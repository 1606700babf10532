module System = Treesls.System
module Kernel = Treesls_kernel.Kernel
module Net_server = Treesls_extsync.Net_server
module Kv_app = Treesls_apps.Kv_app
module Ycsb = Treesls_workloads.Ycsb
module Rng = Treesls_util.Rng

type cfg = {
  keys : int;
  value_size : int;
  mix : Ycsb.workload;
  ring_slots : int;
  ring_slot_size : int;
}

(* Small by design: a tenant is a unit of packing, not a full Redis.  The
   ring is sized to one checkpoint interval's worth of replies; the
   default mix is read-heavy with a trickle of inserts so the Zipfian
   domain actually grows during a run. *)
let default_cfg =
  {
    keys = 1_000;
    value_size = 64;
    mix = Ycsb.Mix { read = 0.5; update = 0.45; insert = 0.05 };
    ring_slots = 256;
    ring_slot_size = 64;
  }

type t = {
  sys : System.t;
  name : string;
  cfg : cfg;
  app : Kv_app.t;
  mutable net : Net_server.t;
  ycsb : Ycsb.t;
  mutable sent : int;
  mutable shed : int;
}

let tenant_name idx = Printf.sprintf "t%d" idx
let ring_name_of name = "netsrv." ^ name

let make_net sys cfg ~name ~proc ~attach =
  let f = if attach then Net_server.reattach else Net_server.create in
  f ~slots:cfg.ring_slots ~slot_size:cfg.ring_slot_size
    ~name:(ring_name_of name) (System.kernel sys) (System.manager sys) ~proc
    ~deliver:(fun ~client:_ ~sent_ns:_ ~payload:_ -> ())

let create sys ~idx ~seed cfg =
  let name = tenant_name idx in
  let app =
    Kv_app.launch ~keys_hint:cfg.keys ~value_size:cfg.value_size ~instance:name
      sys Kv_app.Shard
  in
  for i = 0 to cfg.keys - 1 do
    Kv_app.set_i app i
  done;
  (* The ring lives on the tenant's own server process, so its pages (and
     cursor writes) attribute to this tenant's cap subtree. *)
  let net = make_net sys cfg ~name ~proc:(Kv_app.server app) ~attach:false in
  let ycsb = Ycsb.create cfg.mix ~keys:cfg.keys (Rng.create seed) in
  { sys; name; cfg; app; net; ycsb; sent = 0; shed = 0 }

let name t = t.name
let origin_prefix t = t.name ^ "/"
let app t = t.app

let step t =
  (match Ycsb.next t.ycsb with
  | Ycsb.Read k -> ignore (Kv_app.get_i t.app k)
  | Ycsb.Update k | Ycsb.Insert k -> Kv_app.set_i t.app k);
  t.sent <- t.sent + 1;
  if not (Net_server.send t.net ~client:(t.sent land 255) (Bytes.of_string "+OK"))
  then t.shed <- t.shed + 1

let refresh t =
  Kv_app.refresh t.app;
  t.net <- make_net t.sys t.cfg ~name:t.name ~proc:(Kv_app.server t.app) ~attach:true

let sent t = t.sent
let shed t = t.shed
let delivered t = Net_server.delivered t.net
let key_count t = Ycsb.key_count t.ycsb

let owns_group t g =
  g = Kv_app.server_name t.app || g = Kv_app.client_name t.app
