module Kobj = Treesls_cap.Kobj
module Kernel = Treesls_kernel.Kernel
module Manager = Treesls_ckpt.Manager
module State = Treesls_ckpt.State
module Live_tree = Treesls_ckpt.Live_tree
module Oroot = Treesls_ckpt.Oroot
module Ckpt_page = Treesls_ckpt.Ckpt_page
module Snapshot = Treesls_ckpt.Snapshot
module Store = Treesls_nvm.Store
module Paddr = Treesls_nvm.Paddr
module Slab = Treesls_nvm.Slab
module Global_meta = Treesls_nvm.Global_meta

type t = {
  version : int;
  page_size : int;
  total_pages : int;
  free_pages : int;
  runtime_pages : int;
  eternal_pages : int;
  backup_cp_frames : int;
  backup_cpp_frames : int;
  slab_pages : int;
  slab_objects : int;
  cp_records : int;
  snapshot_slots : int;
  snapshot_bytes : int;
  sealed_pages : int;
  allocator_meta_bytes : int;
}

let collect mgr ~live =
  let st = Manager.state mgr in
  let store = Kernel.store st.State.kernel in
  let page_size = (Store.cost store).Treesls_sim.Cost.page_size in
  let runtime_pages = ref 0 and eternal_pages = ref 0 and slab_pages = ref 0 in
  let cp_frames = ref 0 and cpp_frames = ref 0 in
  (* a detached PMO's pages count with its kind; a fresh page is a normal
     PMO's, since an eternal PMO's radix is complete at creation *)
  let detached_counter oid =
    match State.find_oroot st oid with
    | Some { Oroot.runtime = Some (Kobj.Pmo p); _ } when p.Kobj.pmo_kind = Kobj.Pmo_eternal ->
      eternal_pages
    | Some _ | None -> runtime_pages
  in
  State.iter_named_frames st ~live (fun role oid _ frame ->
      if Paddr.is_nvm frame then
        incr
          (match role with
          | State.Slab_page -> slab_pages
          | State.Runtime | State.Fresh -> runtime_pages
          | State.Eternal -> eternal_pages
          | State.Detached -> detached_counter oid
          (* settle installs a drain-saved frame as a CP backup *)
          | State.Cp_backup | State.Drain_saved -> cp_frames
          | State.Cpp_backup -> cpp_frames));
  let cp_records = ref 0 and snapshot_slots = ref 0 and snapshot_bytes = ref 0 in
  State.iter_oroots st (fun _ (oroot : Oroot.t) ->
      let slot = function
        | Some (_, s) ->
          incr snapshot_slots;
          snapshot_bytes := !snapshot_bytes + Snapshot.bytes s
        | None -> ()
      in
      slot oroot.Oroot.slot_a;
      slot oroot.Oroot.slot_b;
      Option.iter
        (fun cps -> cp_records := !cp_records + Ckpt_page.cardinal cps)
        oroot.Oroot.pages);
  {
    version = Global_meta.version (Store.meta store);
    page_size;
    total_pages = Store.nvm_pages_total store;
    free_pages = Store.nvm_pages_free store;
    runtime_pages = !runtime_pages;
    eternal_pages = !eternal_pages;
    backup_cp_frames = !cp_frames;
    backup_cpp_frames = !cpp_frames;
    slab_pages = !slab_pages;
    slab_objects = Slab.live (Store.slab store);
    cp_records = !cp_records;
    snapshot_slots = !snapshot_slots;
    snapshot_bytes = !snapshot_bytes;
    sealed_pages = Store.sealed_pages store;
    allocator_meta_bytes = 8 * Store.allocator_meta_words store;
  }

(* First claim wins, as the auditor reports the first role of a frame
   named twice. *)
let page_owners mgr =
  let st = Manager.state mgr in
  let live = State.fresh_tree st in
  let groups = Live_tree.owners live st.State.kernel in
  let owner oid = (Live_tree.group_names groups).(Live_tree.owner_group groups oid) in
  let label role oid =
    match role with
    | State.Slab_page -> "slab"
    | State.Runtime -> Printf.sprintf "runtime/%s/pmo%d" (owner oid) oid
    | State.Eternal -> Printf.sprintf "eternal/%s/pmo%d" (owner oid) oid
    | State.Fresh | State.Detached -> Printf.sprintf "detached/pmo%d" oid
    | State.Drain_saved | State.Cp_backup | State.Cpp_backup ->
      Printf.sprintf "backup/%s/obj%d" (owner oid) oid
  in
  let owners : (int, string) Hashtbl.t = Hashtbl.create 256 in
  State.iter_named_frames st ~live (fun role oid _ (frame : Paddr.t) ->
      if Paddr.is_nvm frame && not (Hashtbl.mem owners frame.Paddr.idx) then
        Hashtbl.add owners frame.Paddr.idx (label role oid));
  owners

let accounted_pages t =
  t.runtime_pages + t.eternal_pages + t.backup_cp_frames + t.backup_cpp_frames
  + t.slab_pages

let unaccounted_pages t = t.total_pages - t.free_pages - accounted_pages t

let diff cur base =
  {
    version = cur.version;
    page_size = cur.page_size;
    total_pages = cur.total_pages - base.total_pages;
    free_pages = cur.free_pages - base.free_pages;
    runtime_pages = cur.runtime_pages - base.runtime_pages;
    eternal_pages = cur.eternal_pages - base.eternal_pages;
    backup_cp_frames = cur.backup_cp_frames - base.backup_cp_frames;
    backup_cpp_frames = cur.backup_cpp_frames - base.backup_cpp_frames;
    slab_pages = cur.slab_pages - base.slab_pages;
    slab_objects = cur.slab_objects - base.slab_objects;
    cp_records = cur.cp_records - base.cp_records;
    snapshot_slots = cur.snapshot_slots - base.snapshot_slots;
    snapshot_bytes = cur.snapshot_bytes - base.snapshot_bytes;
    sealed_pages = cur.sealed_pages - base.sealed_pages;
    allocator_meta_bytes = cur.allocator_meta_bytes - base.allocator_meta_bytes;
  }

let rows t =
  [
    ("runtime pages", t.runtime_pages, t.runtime_pages * t.page_size);
    ("backup frames (CP)", t.backup_cp_frames, t.backup_cp_frames * t.page_size);
    ("backup frames (CPP)", t.backup_cpp_frames, t.backup_cpp_frames * t.page_size);
    ("eternal PMO pages", t.eternal_pages, t.eternal_pages * t.page_size);
    ("slab pages", t.slab_pages, t.slab_pages * t.page_size);
    ("object snapshots", t.snapshot_slots, t.snapshot_bytes);
    ("page records", t.cp_records, t.cp_records * Ckpt_page.record_bytes);
    ("allocator metadata (words)", t.allocator_meta_bytes / 8, t.allocator_meta_bytes);
    ("free pages", t.free_pages, t.free_pages * t.page_size);
    ("unaccounted pages", unaccounted_pages t, unaccounted_pages t * t.page_size);
  ]

let pp ppf t =
  Format.fprintf ppf "NVM census @@v%d: %d pages x %d B (%d free, %d accounted)@\n"
    t.version t.total_pages t.page_size t.free_pages (accounted_pages t);
  List.iter
    (fun (label, count, bytes) -> Format.fprintf ppf "  %-28s %10d %14d B@\n" label count bytes)
    (rows t);
  Format.fprintf ppf "  %-28s %10d %14s@\n" "slab objects" t.slab_objects "-";
  Format.fprintf ppf "  %-28s %10d %14s@\n" "sealed backup pages" t.sealed_pages "-"

let to_json t =
  Treesls_util.Json.Obj
    (List.map
       (fun (k, v) -> (k, Treesls_util.Json.int v))
       [
         ("version", t.version);
         ("page_size", t.page_size);
         ("total_pages", t.total_pages);
         ("free_pages", t.free_pages);
         ("runtime_pages", t.runtime_pages);
         ("eternal_pages", t.eternal_pages);
         ("backup_cp_frames", t.backup_cp_frames);
         ("backup_cpp_frames", t.backup_cpp_frames);
         ("slab_pages", t.slab_pages);
         ("slab_objects", t.slab_objects);
         ("cp_records", t.cp_records);
         ("snapshot_slots", t.snapshot_slots);
         ("snapshot_bytes", t.snapshot_bytes);
         ("sealed_pages", t.sealed_pages);
         ("allocator_meta_bytes", t.allocator_meta_bytes);
         ("accounted_pages", accounted_pages t);
         ("unaccounted_pages", unaccounted_pages t);
       ])
