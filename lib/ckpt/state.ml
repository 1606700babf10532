module Kobj = Treesls_cap.Kobj
module Kernel = Treesls_kernel.Kernel
module Store = Treesls_nvm.Store
module Radix = Treesls_cap.Radix
module Probe = Treesls_obs.Probe
module Stats = Treesls_util.Stats

type level = Off | Tree | Fault | Cow | Hybrid

type features = {
  mutable level : level;
  mutable incremental_walk : bool;
  mutable adaptive_interval : bool;
  mutable async_drain : bool;
}

type obj_cost = { full : Stats.t; incr : Stats.t; restore : Stats.t }

type t = {
  mutable kernel : Kernel.t;
  oroots : (int, Oroot.t) Hashtbl.t;
  active : Active_list.t;
  mutable root_id : int;
  mutable ids_hwm : int;
  features : features;
  pending_fresh : (int, (Kobj.pmo * int list) ref) Hashtbl.t;
  obj_costs : (Kobj.kind, obj_cost) Hashtbl.t;
  mutable ckpt_callbacks : (unit -> unit) list;
  mutable page_archive_hook : (Kobj.pmo -> int -> Treesls_nvm.Paddr.t -> unit) option;
  mutable crashed_root : Kobj.cap_group option;
  mutable interval_ns : int option;
  mutable next_ckpt_at : int;
  mutable last_report : Report.t option;
  mutable force_full : bool;
  mutable live_tree : Live_tree.t option;
  mutable wear_mark : int;
  drain : Drain.t;
  mutable drain_batch : int;  (* backlog pages copied per drain step *)
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
    oroots = Hashtbl.create 512;
    active = Active_list.create active_cfg;
    root_id = Kobj.id (Kobj.Cap_group (Kernel.root kernel));
    ids_hwm = 0;
    features;
    pending_fresh = Hashtbl.create 64;
    obj_costs = Hashtbl.create 8;
    ckpt_callbacks = [];
    page_archive_hook = None;
    crashed_root = None;
    interval_ns = None;
    next_ckpt_at = 0;
    last_report = None;
    force_full = true;
    live_tree = None;
    (* the system's own boot (allocator format, service setup) is already
       in the wearmap; the first commit's WAF numerator starts after it *)
    wear_mark = Treesls_obs.Wearmap.total_bytes (Probe.wearmap (Store.probe (Kernel.store kernel)));
    drain = Drain.create ();
    drain_batch = 8;
  }

let probe t = Store.probe (Kernel.store t.kernel)
let crash_sites t = Store.crash_sites (Kernel.store t.kernel)

let oroot_for t obj ~version =
  let oid = Kobj.id obj in
  match Hashtbl.find_opt t.oroots oid with
  | Some o -> (o, false)
  | None ->
    let has_pages =
      match obj with
      | Kobj.Pmo p -> p.Kobj.pmo_kind = Kobj.Pmo_normal
      | Kobj.Cap_group _ | Kobj.Thread _ | Kobj.Vmspace _ | Kobj.Ipc_conn _
      | Kobj.Notification _ | Kobj.Irq_notification _ -> false
    in
    let o = Oroot.create ~obj_id:oid ~kind:(Kobj.kind obj) ~version ~has_pages in
    Hashtbl.replace t.oroots oid o;
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

let obj_cost t kind =
  match Hashtbl.find_opt t.obj_costs kind with
  | Some c -> c
  | None ->
    let c = { full = Stats.create (); incr = Stats.create (); restore = Stats.create () } in
    Hashtbl.replace t.obj_costs kind c;
    c

let note_crash t =
  t.crashed_root <- Some (Kernel.root t.kernel);
  Active_list.clear t.active;
  Hashtbl.reset t.pending_fresh;
  t.ckpt_callbacks <- [];
  (* restored objects carry fresh generations that could collide with the
     pre-crash saved_gen values, so the first post-restore walk is eager *)
  t.force_full <- true;
  t.live_tree <- None;
  (* the drain backlog and restamp tables die with DRAM; drain-saved NVM
     frames survive for Restore's drain_settle phase *)
  Drain.note_crash t.drain

let checkpoint_bytes t =
  let page_size = (Kernel.cost t.kernel).Treesls_sim.Cost.page_size in
  Hashtbl.fold
    (fun _ (o : Oroot.t) acc ->
      let snap_bytes =
        match (o.Oroot.slot_a, o.Oroot.slot_b) with
        | Some (_, s), _ | None, Some (_, s) -> Snapshot.bytes s
        | None, None -> 0
      in
      let page_bytes =
        match o.Oroot.pages with
        | Some pages -> (Ckpt_page.backup_frames pages * page_size) + (Ckpt_page.cardinal pages * 40)
        | None -> 0
      in
      acc + snap_bytes + page_bytes)
    t.oroots 0

(* An ORoot is dead when its object is not in [live] (the committed walk's
   traversal, or the restored tree): nothing can roll back to a state
   containing the object any more, so free its backup frames and its
   runtime frames (reachable through the runtime pointer the ORoot keeps)
   and drop it.  Every live object has an ORoot, so the table holds a dead
   one exactly when it is larger than the live set: the sweep runs only
   then. *)
let gc_dead_oroots t ~live =
  if Hashtbl.length t.oroots <= Hashtbl.length live then 0
  else begin
    let store = Kernel.store t.kernel in
    let dead =
      Hashtbl.fold
        (fun oid (o : Oroot.t) acc -> if Hashtbl.mem live oid then acc else (oid, o) :: acc)
        t.oroots []
    in
    List.iter
      (fun (oid, (o : Oroot.t)) ->
        (match o.Oroot.pages with
        | Some pages ->
          let runtime_of pno =
            match o.Oroot.runtime with
            | Some (Kobj.Pmo p) -> Radix.get p.Kobj.pmo_radix pno
            | Some _ | None -> None
          in
          Ckpt_page.free_all store pages ~runtime_of
        | None -> ());
        Hashtbl.remove t.oroots oid)
      dead;
    List.length dead
  end
