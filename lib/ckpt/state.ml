module Kobj = Treesls_cap.Kobj
module Kernel = Treesls_kernel.Kernel
module Store = Treesls_nvm.Store
module Probe = Treesls_obs.Probe
module Radix = Treesls_cap.Radix
module Paddr = Treesls_nvm.Paddr

type level = Off | Tree | Fault | Cow | Hybrid

type features = {
  mutable level : level;
  mutable incremental_walk : bool;
  mutable adaptive_interval : bool;
  mutable async_drain : bool;
}

type cost_range = { mutable n : int; mutable min_ns : int; mutable max_ns : int }
type obj_cost = { full : cost_range; incr : cost_range; restore : cost_range }

type t = {
  mutable kernel : Kernel.t;
  mutable oroots : Oroot.t option array;
  mutable oroot_count : int;
  active : Active_list.t;
  mutable root_id : int;
  mutable ids_hwm : int;
  features : features;
  pending_fresh : (int, (Kobj.pmo * int list) ref) Hashtbl.t;
  obj_costs : obj_cost array;
  mutable ckpt_callbacks : (unit -> unit) list;
  mutable page_archive_hook : (Kobj.pmo -> int -> Treesls_nvm.Paddr.t -> unit) option;
  mutable interval_ns : int option;
  mutable next_ckpt_at : int;
  mutable last_report : Report.t option;
  mutable live_tree : Live_tree.t option;
  mutable wear_mark : int;
  drain : Drain.t;
  mutable drain_batch : int;  (* backlog pages copied per drain step *)
  mutable claimed : Bytes.t;  (* restore's reconciliation map, one byte per NVM page *)
  commit_metrics : Report.metrics;
}

let default_features () =
  {
    level = Hybrid;
    incremental_walk = true;
    adaptive_interval = false;
    async_drain = false;
  }

let create kernel active_cfg features =
  {
    kernel;
    oroots = [||];
    oroot_count = 0;
    active = Active_list.create active_cfg;
    root_id = Kobj.id (Kobj.Cap_group (Kernel.root kernel));
    ids_hwm = 0;
    features;
    pending_fresh = Hashtbl.create 64;
    obj_costs =
      Array.init (List.length Kobj.all_kinds) (fun _ ->
          let range () = { n = 0; min_ns = max_int; max_ns = min_int } in
          { full = range (); incr = range (); restore = range () });
    ckpt_callbacks = [];
    page_archive_hook = None;
    interval_ns = None;
    next_ckpt_at = 0;
    last_report = None;
    live_tree = None;
    (* the system's own boot (allocator format, service setup) is already
       in the wearmap; the first commit's WAF numerator starts after it *)
    wear_mark = Treesls_obs.Wearmap.total_bytes (Probe.wearmap (Store.probe (Kernel.store kernel)));
    drain = Drain.create ();
    drain_batch = 8;
    claimed = Bytes.empty;
    commit_metrics = Report.metrics (Probe.metrics (Store.probe (Kernel.store kernel)));
  }

let probe t = Store.probe (Kernel.store t.kernel)
let crash_sites t = Store.crash_sites (Kernel.store t.kernel)

let find_oroot t oid = if oid < Array.length t.oroots then t.oroots.(oid) else None

let iter_oroots t f = Array.iteri (fun oid -> function Some o -> f oid o | None -> ()) t.oroots

let oroot_for t obj ~version =
  let oid = Kobj.id obj in
  match find_oroot t oid with
  | Some o -> (o, false)
  | None ->
    let has_pages =
      match obj with
      | Kobj.Pmo p -> p.Kobj.pmo_kind = Kobj.Pmo_normal
      | Kobj.Cap_group _ | Kobj.Thread _ | Kobj.Vmspace _ | Kobj.Ipc_conn _
      | Kobj.Notification _ | Kobj.Irq_notification _ -> false
    in
    let o = Oroot.create ~obj_id:oid ~kind:(Kobj.kind obj) ~version ~has_pages in
    if oid >= Array.length t.oroots then t.oroots <- Treesls_util.Arr.grow t.oroots oid None;
    t.oroots.(oid) <- Some o;
    t.oroot_count <- t.oroot_count + 1;
    (o, true)

let note_fresh_page t pmo pno =
  match Hashtbl.find_opt t.pending_fresh pmo.Kobj.pmo_id with
  | Some r ->
    let p, l = !r in
    r := (p, pno :: l)
  | None -> Hashtbl.replace t.pending_fresh pmo.Kobj.pmo_id (ref (pmo, [ pno ]))

let drain_fresh t pmo =
  match Hashtbl.find_opt t.pending_fresh pmo.Kobj.pmo_id with
  | None -> []
  | Some r ->
    let _, pnos = !r in
    Hashtbl.remove t.pending_fresh pmo.Kobj.pmo_id;
    pnos

type frame_role =
  | Slab_page
  | Drain_saved
  | Runtime
  | Eternal
  | Fresh
  | Detached
  | Cp_backup
  | Cpp_backup

(* A dead PMO's radix is read in key order, so a page noted fresh twice
   comes once. *)
let iter_named_frames t ~live f =
  Treesls_nvm.Slab.iter_pages
    (Store.slab (Kernel.store t.kernel))
    (fun off -> f Slab_page (-1) (-1) (Paddr.nvm off));
  Drain.iter_saved t.drain (fun pmo_id pno frame -> f Drain_saved pmo_id pno frame);
  Array.iter
    (function
      | Kobj.Pmo p ->
        let role = if p.Kobj.pmo_kind = Kobj.Pmo_eternal then Eternal else Runtime in
        Radix.iter (fun pno frame -> f role p.Kobj.pmo_id pno frame) p.Kobj.pmo_radix
      | Kobj.Cap_group _ | Kobj.Thread _ | Kobj.Vmspace _ | Kobj.Ipc_conn _ | Kobj.Notification _
      | Kobj.Irq_notification _ -> ())
    (Live_tree.entries live);
  Hashtbl.iter
    (fun id r ->
      if (not (Live_tree.mem live id)) && Option.is_none (find_oroot t id) then begin
        let pmo, pnos = !r in
        Radix.iter
          (fun pno frame -> if List.mem pno pnos then f Fresh id pno frame)
          pmo.Kobj.pmo_radix
      end)
    t.pending_fresh;
  iter_oroots t (fun oid (o : Oroot.t) ->
      (match o.Oroot.runtime with
      | Some (Kobj.Pmo p) when not (Live_tree.mem live oid) ->
        Radix.iter (fun pno frame -> f Detached oid pno frame) p.Kobj.pmo_radix
      | Some _ | None -> ());
      match o.Oroot.pages with
      | None -> ()
      | Some cps ->
        Ckpt_page.iter
          (fun pno (cp : Ckpt_page.cp) ->
            let role = if cp.Ckpt_page.b2 = None then Cp_backup else Cpp_backup in
            (match cp.Ckpt_page.b1 with Some p -> f role oid pno p | None -> ());
            match cp.Ckpt_page.b2 with Some p -> f role oid pno p | None -> ())
          cps)

let fresh_tree t =
  Live_tree.build ~objects:t.oroot_count ~ids:(Array.length t.oroots)
    ~root:(Kernel.root t.kernel)

let obj_cost t kind = t.obj_costs.(Kobj.kind_index kind)

let note_cost r ns =
  r.n <- r.n + 1;
  r.min_ns <- min r.min_ns ns;
  r.max_ns <- max r.max_ns ns

let note_crash t =
  Active_list.clear t.active;
  Hashtbl.reset t.pending_fresh;
  t.ckpt_callbacks <- [];
  t.live_tree <- None;
  (* the drain backlog and restamp tables die with DRAM; drain-saved NVM
     frames survive for Restore's drain_settle phase *)
  Drain.note_crash t.drain

let checkpoint_bytes t =
  let page_size = (Kernel.cost t.kernel).Treesls_sim.Cost.page_size in
  let total = ref 0 in
  iter_oroots t (fun _ (o : Oroot.t) ->
      let snap_bytes =
        match (o.Oroot.slot_a, o.Oroot.slot_b) with
        | Some (_, s), _ | None, Some (_, s) -> Snapshot.bytes s
        | None, None -> 0
      in
      let page_bytes =
        match o.Oroot.pages with
        | Some pages ->
          (Ckpt_page.backup_frames pages * page_size)
          + (Ckpt_page.cardinal pages * Ckpt_page.record_bytes)
        | None -> 0
      in
      total := !total + snap_bytes + page_bytes);
  !total

(* An ORoot is dead when its object is not in [live] (the committed walk's
   traversal, or the restored tree): nothing can roll back to a state
   containing the object any more.  Every live object has an ORoot, so
   the table holds a dead one exactly when it is larger than the live
   set: the sweep runs only then. *)
let drop_dead_oroots t ~live =
  if t.oroot_count <= Array.length (Live_tree.entries live) then []
  else begin
    let dead = ref [] in
    iter_oroots t (fun oid o ->
        if not (Live_tree.mem live oid) then begin
          t.oroots.(oid) <- None;
          t.oroot_count <- t.oroot_count - 1;
          dead := o :: !dead
        end);
    !dead
  end

(* The commit's GC: drop the dead ORoots, then free their backup frames
   and the runtime frames their runtime pointer still reaches.  A cut
   among the frees leaves frames named by nothing, which restore's
   allocator reconciliation reclaims.

   Those frees reach only pages with a record.  The pages a dead PMO
   gained after its last walk have none (nor has any page of a PMO born
   and dead between two walks, which has no ORoot either); they are its
   [pending_fresh] entry, kept because no walk reached the PMO to drain
   it.  A PMO that existed at the walk ([ids_hwm]) and is not in its live
   set is dead: its fresh runtime frames go too, and so does the entry.
   A PMO born after the walk (a drain window settles later) waits for a
   walk to judge it. *)
let gc_dead_oroots t ~live =
  let store = Kernel.store t.kernel in
  let dead = drop_dead_oroots t ~live in
  List.iter
    (fun (o : Oroot.t) ->
      Option.iter
        (fun pages -> Ckpt_page.free_all store pages ~runtime_of:(Oroot.runtime_page o))
        o.Oroot.pages)
    dead;
  let dead_fresh =
    Hashtbl.fold
      (fun id r acc ->
        if id <= t.ids_hwm && not (Live_tree.mem live id) then (id, !r) :: acc else acc)
      t.pending_fresh []
  in
  List.iter
    (fun (id, (pmo, pnos)) ->
      Hashtbl.remove t.pending_fresh id;
      (* a page the hybrid copy gave a record went with the records *)
      let recorded pno =
        match List.find_opt (fun (o : Oroot.t) -> o.Oroot.obj_id = id) dead with
        | Some { Oroot.pages = Some pages; _ } -> Ckpt_page.find pages pno <> None
        | Some _ | None -> false
      in
      List.iter
        (fun pno ->
          if not (recorded pno) then
            match Radix.get pmo.Kobj.pmo_radix pno with
            | Some p when Paddr.is_nvm p -> Store.free_page store p
            | Some p when Paddr.is_ssd p -> Store.free_ssd_page store p
            | Some _ | None -> ())
        (List.sort_uniq Int.compare pnos))
    dead_fresh;
  List.length dead
