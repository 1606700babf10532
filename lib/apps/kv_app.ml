module Kernel = Treesls_kernel.Kernel
module System = Treesls.System
module Ipc = Treesls_kernel.Ipc
module Kobj = Treesls_cap.Kobj
module Cost = Treesls_sim.Cost

type profile = Memcached | Redis | Shard

(* Census shaping per Table 2: (threads, ipcs, notifs, extra_pmos) for the
   server and the client process of each profile. The sums, together with
   the process skeleton (cap group, VM space, code PMO, stack PMOs) and the
   store/buffer regions, reproduce the paper's relative object counts.
   [Shard] is a deliberately small census so a multi-tenant run can pack
   64 instances without the per-tenant object count dominating. *)
let census = function
  | Redis -> (("redis", 13, 27, 3, 100), ("redis-cli", 64, 32, 3, 21))
  | Memcached -> (("memcached", 10, 10, 9, 60), ("memcached-cli", 32, 8, 8, 29))
  | Shard -> (("kvshard", 4, 6, 2, 24), ("kvshard-cli", 6, 4, 2, 10))

type t = {
  sys : System.t;
  profile : profile;
  server_name : string;
  client_name : string;
  origin_prefix : string;
  mutable server_p : Kernel.process;
  mutable client_p : Kernel.process;
  mutable kv : Kvstore.t;
  mutable conn : Kobj.ipc_conn;
  kv_vpn : int;
  buf_vpn : int;
  buf_pages : int;
  mutable buf_cursor : int;
  value_size : int;
}

let psz sys = (Kernel.cost (System.kernel sys)).Cost.page_size

let handler kv payload =
  let s = Bytes.to_string payload in
  let op = s.[0] in
  let rest = String.sub s 1 (String.length s - 1) in
  match op with
  | 'S' ->
    let i = String.index rest '\x00' in
    let key = String.sub rest 0 i in
    let value = String.sub rest (i + 1) (String.length rest - i - 1) in
    Kvstore.put kv ~key ~value;
    Bytes.of_string "+OK"
  | 'G' -> (
    match Kvstore.get kv ~key:rest with
    | Some v -> Bytes.of_string ("+" ^ v)
    | None -> Bytes.of_string "-")
  | 'D' -> Bytes.of_string (if Kvstore.delete kv ~key:rest then "+1" else "+0")
  | _ -> Bytes.of_string "-ERR"

let register t = Ipc.register_handler (System.kernel t.sys) t.conn (handler t.kv)

let launch ?(keys_hint = 100_000) ?(value_size = 100) ?instance sys profile =
  let (sname, sth, sipc, snot, spmo), (cname, cth, cipc, cnot, cpmo) = census profile in
  (* [instance] disambiguates multiple launches of the same profile: it
     suffixes both process names (so refresh finds the right pair) and
     prefixes request origins (so rtrace can answer per tenant). *)
  let suffix = match instance with Some s -> "." ^ s | None -> "" in
  let sname = sname ^ suffix and cname = cname ^ suffix in
  let origin_prefix = match instance with Some s -> s ^ "/" | None -> "" in
  let server_p = Launchpad.make_proc sys ~name:sname ~threads:sth ~ipcs:sipc ~notifs:snot ~extra_pmos:spmo in
  let client_p = Launchpad.make_proc sys ~name:cname ~threads:cth ~ipcs:cipc ~notifs:cnot ~extra_pmos:cpmo in
  let k = System.kernel sys in
  (* Size the store: buckets ~ keys, entry = header + key + value. *)
  let entry_bytes = 48 + value_size in
  let bytes = (keys_hint * entry_bytes * 3 / 2) + (keys_hint * 8) + (2 * psz sys) in
  let pages = (bytes / psz sys) + 2 in
  let kv = Kvstore.create k server_p ~buckets:keys_hint ~pages in
  let buf_pages = 8 in
  let buf_vpn = Kernel.grow_heap k client_p ~pages:buf_pages in
  let conn = Ipc.create_conn k ~client:client_p ~server:server_p in
  let t =
    {
      sys;
      profile;
      server_name = sname;
      client_name = cname;
      origin_prefix;
      server_p;
      client_p;
      kv;
      conn;
      kv_vpn = Kvstore.base_vpn kv;
      buf_vpn;
      buf_pages;
      buf_cursor = 0;
      value_size;
    }
  in
  register t;
  t

let refresh t =
  t.server_p <- Launchpad.find_proc t.sys ~name:t.server_name;
  t.client_p <- Launchpad.find_proc t.sys ~name:t.client_name;
  let k = System.kernel t.sys in
  t.kv <- Kvstore.attach k t.server_p ~vpn:t.kv_vpn;
  (* the connection object survived in the tree; find it again *)
  let conn = ref None in
  Kobj.iter_caps
    (fun _ c ->
      match c.Kobj.target with
      | Kobj.Ipc_conn ic when ic.Kobj.ic_id = t.conn.Kobj.ic_id -> conn := Some ic
      | _ -> ())
    t.client_p.Kernel.cg;
  (match !conn with Some ic -> t.conn <- ic | None -> invalid_arg "Kv_app.refresh: conn lost");
  register t

(* The client materialises the request in its own buffer first (this is
   what makes clients dirty pages and show up in checkpoints). *)
let client_stage t payload =
  let k = System.kernel t.sys in
  let len = Bytes.length payload in
  let p = psz t.sys in
  let total = t.buf_pages * p in
  if t.buf_cursor + len > total then t.buf_cursor <- 0;
  Kernel.write_bytes k t.client_p ~vaddr:((t.buf_vpn * p) + t.buf_cursor) payload;
  t.buf_cursor <- t.buf_cursor + ((len + 63) / 64 * 64)

let origin_of payload =
  if Bytes.length payload = 0 then "kv.op"
  else
    match Bytes.get payload 0 with
    | 'S' -> "kv.set"
    | 'G' -> "kv.get"
    | 'D' -> "kv.del"
    | _ -> "kv.op"

let call t payload =
  (* each client op is an externally-driven request: id assigned here,
     carried implicitly through Ipc.call and any Net_server.send *)
  ignore
    (Treesls_obs.Probe.req_arrive (System.obs t.sys) ~origin:(t.origin_prefix ^ origin_of payload));
  client_stage t payload;
  Ipc.call (System.kernel t.sys) t.conn payload

let set t ~key ~value =
  let reply = call t (Bytes.of_string ("S" ^ key ^ "\x00" ^ value)) in
  assert (Bytes.length reply > 0 && Bytes.get reply 0 = '+')

let get t ~key =
  let reply = call t (Bytes.of_string ("G" ^ key)) in
  let s = Bytes.to_string reply in
  if String.length s > 0 && s.[0] = '+' then Some (String.sub s 1 (String.length s - 1))
  else None

let del t ~key =
  let reply = call t (Bytes.of_string ("D" ^ key)) in
  Bytes.to_string reply = "+1"

let value_for t i =
  let base = Printf.sprintf "v%08d-" i in
  let reps = (t.value_size / String.length base) + 1 in
  String.sub (String.concat "" (List.init reps (fun _ -> base))) 0 t.value_size

let set_i t i = set t ~key:(Printf.sprintf "key%08d" i) ~value:(value_for t i)
let get_i t i = get t ~key:(Printf.sprintf "key%08d" i)

let server t = t.server_p
let client t = t.client_p
let server_name t = t.server_name
let client_name t = t.client_name
let kv t = t.kv
let value_size t = t.value_size
