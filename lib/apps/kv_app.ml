module Kernel = Treesls_kernel.Kernel
module System = Treesls.System
module Ipc = Treesls_kernel.Ipc
module Kobj = Treesls_cap.Kobj
module Cost = Treesls_sim.Cost
module Probe = Treesls_obs.Probe
module Rtrace = Treesls_obs.Rtrace

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
  (* request origins, resolved once at launch *)
  origin_set : Rtrace.origin;
  origin_get : Rtrace.origin;
  origin_del : Rtrace.origin;
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

(* Requests are 'S' key '\x00' value, 'G' key and 'D' key.  The handler
   reads them in place: only the key is copied out, and a set's value goes
   to the store straight from the payload. *)
let handler kv payload =
  let len = Bytes.length payload in
  match Bytes.get payload 0 with
  | 'S' ->
    let i = Bytes.index_from payload 1 '\x00' in
    Kvstore.put_sub kv ~key:(Bytes.sub_string payload 1 (i - 1)) payload ~off:(i + 1)
      ~len:(len - i - 1);
    Bytes.of_string "+OK"
  | 'G' -> (
    match Kvstore.get kv ~key:(Bytes.sub_string payload 1 (len - 1)) with
    | Some v ->
      let reply = Bytes.create (1 + String.length v) in
      Bytes.set reply 0 '+';
      Bytes.blit_string v 0 reply 1 (String.length v);
      reply
    | None -> Bytes.of_string "-")
  | 'D' ->
    let deleted = Kvstore.delete kv ~key:(Bytes.sub_string payload 1 (len - 1)) in
    Bytes.of_string (if deleted then "+1" else "+0")
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
  let origin op = Probe.req_origin (System.obs sys) (origin_prefix ^ op) in
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
      origin_set = origin "kv.set";
      origin_get = origin "kv.get";
      origin_del = origin "kv.del";
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

let call t origin payload =
  (* each client op is an externally-driven request: id assigned here,
     carried implicitly through Ipc.call and any Net_server.send *)
  ignore (Probe.req_arrive (System.obs t.sys) ~origin);
  client_stage t payload;
  Ipc.call (System.kernel t.sys) t.conn payload

(* A request buffer: [op], then [key], then [extra] bytes to fill. *)
let request op key ~extra =
  let klen = String.length key in
  let b = Bytes.create (1 + klen + extra) in
  Bytes.set b 0 op;
  Bytes.blit_string key 0 b 1 klen;
  b

let expect_ok reply = assert (Bytes.length reply > 0 && Bytes.get reply 0 = '+')

let reply_value reply =
  if Bytes.length reply > 0 && Bytes.get reply 0 = '+' then
    Some (Bytes.sub_string reply 1 (Bytes.length reply - 1))
  else None

let set t ~key ~value =
  let klen = String.length key and vlen = String.length value in
  let b = request 'S' key ~extra:(1 + vlen) in
  Bytes.set b (1 + klen) '\x00';
  Bytes.blit_string value 0 b (2 + klen) vlen;
  expect_ok (call t t.origin_set b)

let get t ~key = reply_value (call t t.origin_get (request 'G' key ~extra:0))
let del t ~key = Bytes.unsafe_to_string (call t t.origin_del (request 'D' key ~extra:0)) = "+1"

(* Key [i] is "key%08d" and its value "v%08d-" repeated and cut to
   [value_size] bytes; both are written straight into the request. *)

(* The number of digits "%08d" prints for [i >= 0]. *)
let width i =
  let rec digits n d = if n < 10 then d else digits (n / 10) (d + 1) in
  if i < 0 then invalid_arg "Kv_app: negative key index";
  Int.max 8 (digits i 1)

(* [i] zero-padded to [w] digits at [pos], leaving out any digit at or
   past [stop]. *)
let put_digits b ~pos ~w ~stop i =
  let n = ref i in
  for j = pos + w - 1 downto pos do
    if j < stop then Bytes.set b j (Char.unsafe_chr (Char.code '0' + (!n mod 10)));
    n := !n / 10
  done

(* [op] then key [i] of [w] digits, with [extra] bytes to fill. *)
let request_i op i ~w ~extra =
  let b = Bytes.create (4 + w + extra) in
  Bytes.set b 0 op;
  Bytes.blit_string "key" 0 b 1 3;
  put_digits b ~pos:4 ~w ~stop:(4 + w) i;
  b

(* The value of key [i] in [b] from [pos]: one period written, then the
   written prefix doubled until [size] bytes are filled. *)
let put_value b ~pos ~size ~w i =
  let period = w + 2 and stop = pos + size in
  if size > 0 then Bytes.set b pos 'v';
  put_digits b ~pos:(pos + 1) ~w ~stop i;
  if size >= period then begin
    Bytes.set b (pos + period - 1) '-';
    let filled = ref period in
    while !filled < size do
      let n = Int.min !filled (size - !filled) in
      Bytes.blit b pos b (pos + !filled) n;
      filled := !filled + n
    done
  end

let set_i t i =
  let w = width i in
  let b = request_i 'S' i ~w ~extra:(1 + t.value_size) in
  Bytes.set b (4 + w) '\x00';
  put_value b ~pos:(5 + w) ~size:t.value_size ~w i;
  expect_ok (call t t.origin_set b)

let get_i t i = reply_value (call t t.origin_get (request_i 'G' i ~w:(width i) ~extra:0))

let server t = t.server_p
let client t = t.client_p
let server_name t = t.server_name
let client_name t = t.client_name
let kv t = t.kv
let value_size t = t.value_size
