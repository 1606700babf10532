module Kernel = Treesls_kernel.Kernel
module Kobj = Treesls_cap.Kobj
module Radix = Treesls_cap.Radix
module Cost = Treesls_sim.Cost
module Store = Treesls_nvm.Store
module Global_meta = Treesls_nvm.Global_meta
module Probe = Treesls_obs.Probe
module Wearmap = Treesls_obs.Wearmap

type t = {
  kernel : Kernel.t;
  proc : Kernel.process;
  base : int; (* first vaddr of the mapping *)
  slots : int;
  slot_size : int;
  pmo_id : int;
  (* Volatile sidecar: request id per occupied slot (0 = untracked) and a
     shed-message counter.  Observability state, deliberately NOT in the
     PMO — after a crash the pending requests are dropped via Rtrace
     anyway, so persisting the ids would buy nothing. *)
  slot_req : int array;
  mutable dropped : int;
  published : Treesls_obs.Metrics.counter;  (* extsync.published *)
}

let probe t = Store.probe (Kernel.store t.kernel)

let published_counter kernel =
  Treesls_obs.Metrics.counter
    (Probe.metrics (Store.probe (Kernel.store kernel)))
    "extsync.published"

let with_extsync_writer t f = Wearmap.with_writer (Probe.wearmap (probe t)) "extsync" f

let pages_needed kernel ~slots ~slot_size =
  let psz = (Kernel.cost kernel).Cost.page_size in
  1 + (((slots * slot_size) + psz - 1) / psz)

let read_cursor t off = Kernel.read_word t.kernel t.proc ~vaddr:(t.base + off) ~len:8

let write_cursor t off v =
  (* the ring lives in an eternal PMO on NVM: cursor writes are extsync
     wear, not app wear *)
  with_extsync_writer t @@ fun () ->
  Kernel.write_word t.kernel t.proc ~vaddr:(t.base + off) ~len:8 v

let reader t = read_cursor t 0
let writer t = read_cursor t 8
let visible t = read_cursor t 16
let meta t = read_cursor t 24
let set_meta t v = write_cursor t 24 v

(* Header layout (page 0): reader/writer/visible cursors at 0/8/16, the
   caller-owned meta word at 24, then the ring's name (length at 32,
   bytes from 40) — all persistent, so a restore can claim the PMO
   strictly by name instead of by creation order. *)
let name_len_off = 32
let name_bytes_off = 40
let max_name = 64

let psz t = (Kernel.cost t.kernel).Cost.page_size

let slot_vaddr t i =
  t.base + psz t + (i mod t.slots * t.slot_size)

let write_name t name =
  with_extsync_writer t @@ fun () ->
  Kernel.write_word t.kernel t.proc ~vaddr:(t.base + name_len_off) ~len:8 (String.length name);
  Kernel.write_bytes t.kernel t.proc ~vaddr:(t.base + name_bytes_off)
    (Bytes.of_string name)

let create kernel proc ~name ~slots ~slot_size =
  assert (slot_size > 4 && slots > 0);
  if String.length name = 0 || String.length name > max_name then
    invalid_arg "Ring.create: name must be 1..64 bytes";
  assert ((Kernel.cost kernel).Cost.page_size >= name_bytes_off + max_name);
  let pages = pages_needed kernel ~slots ~slot_size in
  let pmo = Kernel.make_eternal_pmo kernel ~pages in
  let vpn = Kernel.map_shared kernel proc pmo ~writable:true in
  let t =
    { kernel; proc; base = vpn * (Kernel.cost kernel).Cost.page_size; slots; slot_size;
      pmo_id = pmo.Kobj.pmo_id; slot_req = Array.make slots 0; dropped = 0;
      published = published_counter kernel }
  in
  write_cursor t 0 0;
  write_cursor t 8 0;
  write_cursor t 16 0;
  set_meta t 0;
  write_name t name;
  t

(* Every eternal PMO, each once, in ascending pmo_id order.
   [Kernel.make_eternal_pmo] installs each one in the root cap group (the
   state auditor checks that every reachable one still holds a slot
   there), so the root's own slots name them all without a walk of the
   tree.  The order matters: [reattach] reads the header of every
   candidate before the match, and each read is charged. *)
let eternal_pmos kernel =
  let acc = ref [] in
  Kobj.iter_caps
    (fun _ c ->
      match c.Kobj.target with
      | Kobj.Pmo p when p.Kobj.pmo_kind = Kobj.Pmo_eternal -> acc := p :: !acc
      | Kobj.Pmo _ | Kobj.Cap_group _ | Kobj.Thread _ | Kobj.Vmspace _ | Kobj.Ipc_conn _
      | Kobj.Notification _ | Kobj.Irq_notification _ -> ())
    (Kernel.root kernel);
  List.sort_uniq (fun a b -> Int.compare a.Kobj.pmo_id b.Kobj.pmo_id) !acc

(* Read a candidate's persisted name straight from NVM (page 0 of the
   PMO), without mapping it into any process: non-ring eternal PMOs (or
   ones whose header page was never materialised) simply fail the
   comparison and are skipped. *)
let stored_name kernel (p : Kobj.pmo) =
  match Radix.get p.Kobj.pmo_radix 0 with
  | None -> None
  | Some paddr ->
    let store = Kernel.store kernel in
    let len = Store.read_word store paddr ~off:name_len_off ~len:8 in
    if len <= 0 || len > max_name then None
    else
      Some (Bytes.to_string (Store.read_page store paddr ~off:name_bytes_off ~len))

let reattach kernel proc ~name ~slots ~slot_size =
  (* Claim strictly by the name persisted in the header: two tenants with
     equal-sized rings can reattach in any order (or not at all) without
     cross-claiming each other's queued responses. *)
  let pages = pages_needed kernel ~slots ~slot_size in
  let pmo =
    match
      List.find_opt
        (fun p ->
          p.Kobj.pmo_pages = pages && stored_name kernel p = Some name)
        (eternal_pmos kernel)
    with
    | Some p -> p
    | None ->
      invalid_arg
        (Printf.sprintf "Ring.reattach: no eternal PMO named %S with %d pages"
           name pages)
  in
  (* The restored VM space usually still maps the ring; reuse that region
     rather than mapping it twice. *)
  let existing =
    List.find_opt
      (fun r -> r.Kobj.vr_pmo.Kobj.pmo_id = pmo.Kobj.pmo_id)
      proc.Kernel.vms.Kobj.vs_regions
  in
  let vpn =
    match existing with
    | Some r -> r.Kobj.vr_vpn
    | None -> Kernel.map_shared kernel proc pmo ~writable:true
  in
  { kernel; proc; base = vpn * (Kernel.cost kernel).Cost.page_size; slots; slot_size;
    pmo_id = pmo.Kobj.pmo_id; slot_req = Array.make slots 0; dropped = 0;
    published = published_counter kernel }

let append ?(req = 0) t msg =
  let len = Bytes.length msg in
  if len > t.slot_size - 4 then invalid_arg "Ring.append: message too large";
  let w = writer t and r = reader t in
  if w - r >= t.slots then begin
    t.dropped <- t.dropped + 1;
    Probe.count (probe t) "extsync.ring.dropped" 1;
    if req <> 0 then Probe.req_shed (probe t) ~id:req;
    false
  end
  else begin
    let va = slot_vaddr t w in
    with_extsync_writer t (fun () ->
        Kernel.write_word t.kernel t.proc ~vaddr:va ~len:4 len;
        Kernel.write_bytes t.kernel t.proc ~vaddr:(va + 4) msg);
    t.slot_req.(w mod t.slots) <- req;
    write_cursor t 8 (w + 1);
    true
  end

let on_checkpoint t =
  let w = writer t in
  let vis = visible t in
  let newly = w - vis in
  (* This commit's version is what released every message in [vis, w):
     attribute each request's visibility to it. *)
  if newly > 0 then begin
    let version = Global_meta.version (Store.meta (Kernel.store t.kernel)) in
    for i = vis to w - 1 do
      let req = t.slot_req.(i mod t.slots) in
      if req <> 0 then begin
        Probe.req_released (probe t) ~id:req ~version;
        t.slot_req.(i mod t.slots) <- 0
      end
    done
  end;
  Treesls_obs.Metrics.count t.published newly;
  if newly > 0 then
    Probe.instant (probe t) "extsync.flush"
      ~args:(fun () -> [ ("published", string_of_int newly); ("pmo", string_of_int t.pmo_id) ]);
  write_cursor t 16 w

let on_restore t =
  (* Messages beyond the visible cursor were never exposed: the rolled-back
     application will re-produce them. *)
  let vis = visible t in
  let w = writer t in
  for i = vis to w - 1 do
    let req = t.slot_req.(i mod t.slots) in
    if req <> 0 then begin
      Probe.req_dropped (probe t) ~id:req;
      t.slot_req.(i mod t.slots) <- 0
    end
  done;
  write_cursor t 8 vis

let pop_visible t =
  let r = reader t in
  if r >= visible t then None
  else begin
    let va = slot_vaddr t r in
    let len = Kernel.read_word t.kernel t.proc ~vaddr:va ~len:4 in
    let msg = Kernel.read_bytes t.kernel t.proc ~vaddr:(va + 4) ~len in
    write_cursor t 0 (r + 1);
    Some msg
  end

let visible_count t = visible t - reader t
let unpublished_count t = writer t - visible t
let capacity t = t.slots
let dropped_count t = t.dropped
