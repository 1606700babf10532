module Kobj = Treesls_cap.Kobj
module Radix = Treesls_cap.Radix
module Kernel = Treesls_kernel.Kernel
module Manager = Treesls_ckpt.Manager
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

(* The checkpointed-page record itself is a 40-byte slab object (the size
   Ckpt_page charges when building one). *)
let cp_record_bytes = 40

let count_nvm_frames radix counter =
  Radix.iter (fun _ paddr -> if Paddr.is_nvm paddr then incr counter) radix

let collect mgr =
  let kernel = Manager.kernel mgr in
  let store = Kernel.store kernel in
  let page_size = (Store.cost store).Treesls_sim.Cost.page_size in
  let runtime_pages = ref 0 and eternal_pages = ref 0 in
  let counter_for (p : Kobj.pmo) =
    if p.Kobj.pmo_kind = Kobj.Pmo_eternal then eternal_pages else runtime_pages
  in
  let reachable = Hashtbl.create 256 in
  Kobj.iter_tree ~root:(Kernel.root kernel) (fun obj ->
    Hashtbl.replace reachable (Kobj.id obj) ();
    match obj with
    | Kobj.Pmo p -> count_nvm_frames p.Kobj.pmo_radix (counter_for p)
    | _ -> ());
  (* a dead PMO's fresh pages wait for the commit's GC, named only by its
     note; the auditor claims them the same way *)
  Treesls_ckpt.State.iter_fresh_awaiting_gc (Manager.state mgr) ~reachable:(Hashtbl.mem reachable)
    (fun p _ paddr -> if Paddr.is_nvm paddr then incr (counter_for p));
  let cp_frames = ref 0 and cpp_frames = ref 0 and cp_records = ref 0 in
  let snapshot_slots = ref 0 and snapshot_bytes = ref 0 in
  Manager.iter_oroots mgr (fun oid (oroot : Oroot.t) ->
    (* objects that left the tree but were not yet GC'd still hold their
       runtime frames; count them with the live runtimes *)
    (match oroot.Oroot.runtime with
    | Some (Kobj.Pmo p) when not (Hashtbl.mem reachable oid) ->
      count_nvm_frames p.Kobj.pmo_radix (counter_for p)
    | Some _ | None -> ());
    let slot = function
      | Some (_, s) ->
        incr snapshot_slots;
        snapshot_bytes := !snapshot_bytes + Snapshot.bytes s
      | None -> ()
    in
    slot oroot.Oroot.slot_a;
    slot oroot.Oroot.slot_b;
    match oroot.Oroot.pages with
    | None -> ()
    | Some cps ->
      Ckpt_page.iter
        (fun _pno (cp : Ckpt_page.cp) ->
          incr cp_records;
          let nvm = function Some p when Paddr.is_nvm p -> 1 | Some _ | None -> 0 in
          let frames = nvm cp.Ckpt_page.b1 + nvm cp.Ckpt_page.b2 in
          if cp.Ckpt_page.b2 = None then cp_frames := !cp_frames + frames
          else cpp_frames := !cpp_frames + frames)
        cps);
  let slab = Store.slab store in
  {
    version = Global_meta.version (Store.meta store);
    page_size;
    total_pages = Store.nvm_pages_total store;
    free_pages = Store.nvm_pages_free store;
    runtime_pages = !runtime_pages;
    eternal_pages = !eternal_pages;
    backup_cp_frames = !cp_frames;
    backup_cpp_frames = !cpp_frames;
    slab_pages = List.length (Slab.slab_pages slab);
    slab_objects = Slab.live slab;
    cp_records = !cp_records;
    snapshot_slots = !snapshot_slots;
    snapshot_bytes = !snapshot_bytes;
    sealed_pages = Store.sealed_pages store;
    allocator_meta_bytes = 8 * Store.allocator_meta_words store;
  }

(* NVM page index -> human-readable owner label, for wear-heatmap
   attribution: role (runtime/eternal/backup/detached/slab), owning
   process subtree, and object id.  Same claim order as the audit's roles
   table (slab, reachable PMOs, detached runtimes, backup frames) with
   first-claim-wins for pages shared between views. *)
let page_owners mgr =
  let kernel = Manager.kernel mgr in
  let store = Kernel.store kernel in
  let owners : (int, string) Hashtbl.t = Hashtbl.create 256 in
  let claim idx label = if not (Hashtbl.mem owners idx) then Hashtbl.add owners idx label in
  let claim_radix radix label =
    Radix.iter (fun _ paddr -> if Paddr.is_nvm paddr then claim paddr.Paddr.idx label) radix
  in
  List.iter (fun off -> claim off "slab") (Slab.slab_pages (Store.slab store));
  (* object id -> owning process name (first process wins for shared
     objects; objects reachable only from the root stay "kernel") *)
  let proc_of = Hashtbl.create 256 in
  List.iter
    (fun (p : Kernel.process) ->
      Kobj.iter_tree ~root:p.Kernel.cg (fun obj ->
          let oid = Kobj.id obj in
          if not (Hashtbl.mem proc_of oid) then Hashtbl.add proc_of oid p.Kernel.pname))
    (Kernel.processes kernel);
  let owner_of oid = Option.value ~default:"kernel" (Hashtbl.find_opt proc_of oid) in
  Kobj.iter_tree ~root:(Kernel.root kernel) (fun obj ->
      match obj with
      | Kobj.Pmo p ->
        let role = if p.Kobj.pmo_kind = Kobj.Pmo_eternal then "eternal" else "runtime" in
        claim_radix p.Kobj.pmo_radix
          (Printf.sprintf "%s/%s/pmo%d" role (owner_of (Kobj.id obj)) p.Kobj.pmo_id)
      | _ -> ());
  Manager.iter_oroots mgr (fun oid (oroot : Oroot.t) ->
      (match oroot.Oroot.runtime with
      | Some (Kobj.Pmo p) ->
        claim_radix p.Kobj.pmo_radix (Printf.sprintf "detached/pmo%d" p.Kobj.pmo_id)
      | Some _ | None -> ());
      match oroot.Oroot.pages with
      | None -> ()
      | Some cps ->
        Ckpt_page.iter
          (fun _pno (cp : Ckpt_page.cp) ->
            let backup = function
              | Some pa when Paddr.is_nvm pa ->
                claim pa.Paddr.idx (Printf.sprintf "backup/%s/obj%d" (owner_of oid) oid)
              | Some _ | None -> ()
            in
            backup cp.Ckpt_page.b1;
            backup cp.Ckpt_page.b2)
          cps);
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
    ("page records", t.cp_records, t.cp_records * cp_record_bytes);
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
