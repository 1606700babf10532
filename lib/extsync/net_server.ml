module Kernel = Treesls_kernel.Kernel
module Manager = Treesls_ckpt.Manager
module Clock = Treesls_sim.Clock

type deliver = client:int -> sent_ns:int -> payload:Bytes.t -> unit

type t = { ring : Ring.t; kernel : Kernel.t; deliver : deliver }

let default_slots = 4096
let default_slot_size = 1200
let default_name = "netsrv"

let encode ~client ~sent_ns payload =
  let b = Bytes.create (16 + Bytes.length payload) in
  Bytes.set_int64_le b 0 (Int64.of_int client);
  Bytes.set_int64_le b 8 (Int64.of_int sent_ns);
  Bytes.blit payload 0 b 16 (Bytes.length payload);
  b

let decode b =
  let client = Int64.to_int (Bytes.get_int64_le b 0) in
  let sent_ns = Int64.to_int (Bytes.get_int64_le b 8) in
  let payload = Bytes.sub b 16 (Bytes.length b - 16) in
  (client, sent_ns, payload)

let flush_visible t =
  let rec drain () =
    match Ring.pop_visible t.ring with
    | None -> ()
    | Some msg ->
      let client, sent_ns, payload = decode msg in
      (* The delivered count lives in the ring's persistent meta word, so
         it survives crash/restore: the cursor pop above already made the
         consumption durable, and the count must stay in step with it. *)
      Ring.set_meta t.ring (Ring.meta t.ring + 1);
      t.deliver ~client ~sent_ns ~payload;
      drain ()
  in
  drain ()

let register t mgr =
  Manager.on_checkpoint mgr (fun () ->
      Ring.on_checkpoint t.ring;
      flush_visible t)

let create ?(slots = default_slots) ?(slot_size = default_slot_size)
    ?(name = default_name) kernel mgr ~proc ~deliver =
  let ring = Ring.create kernel proc ~name ~slots ~slot_size in
  let t = { ring; kernel; deliver } in
  register t mgr;
  t

let reattach ?(slots = default_slots) ?(slot_size = default_slot_size)
    ?(name = default_name) kernel mgr ~proc ~deliver =
  let ring = Ring.reattach kernel proc ~name ~slots ~slot_size in
  Ring.on_restore ring;
  let t = { ring; kernel; deliver } in
  register t mgr;
  (* Responses published before the crash but not yet drained are still
     owed to their clients. *)
  flush_visible t;
  t

let send t ~client payload =
  let sent_ns = Clock.now (Kernel.clock t.kernel) in
  (* stamp the current request's enqueue time and tag the slot with its id
     so the releasing checkpoint can attribute the visibility latency *)
  let req = Treesls_obs.Probe.req_enqueued (Treesls_nvm.Store.probe (Kernel.store t.kernel)) in
  Ring.append ~req t.ring (encode ~client ~sent_ns payload)

let pending t = Ring.unpublished_count t.ring
let delivered t = Ring.meta t.ring
let dropped t = Ring.dropped_count t.ring
