module Kobj = Treesls_cap.Kobj
module Kernel = Treesls_kernel.Kernel
module Store = Treesls_nvm.Store
module Global_meta = Treesls_nvm.Global_meta

type version_record = {
  objects : (int, Snapshot.t) Hashtbl.t;  (** live objects at this version *)
  pages : (int * int, Bytes.t) Hashtbl.t;  (** (pmo id, pno) -> content *)
}

type t = {
  mgr : Manager.t;
  max_versions : int;
  history : (int, version_record) Hashtbl.t;  (** version -> record *)
  mutable order : int list;  (** archived versions, newest first *)
  mutable pending_pages : (int * int, Bytes.t) Hashtbl.t;
  mutable active : bool;
}

let page_copy st pmo pno paddr pending =
  let store = Kernel.store st.State.kernel in
  let bytes = Store.page_bytes store paddr in
  Hashtbl.replace pending (pmo.Kobj.pmo_id, pno) (Bytes.copy bytes)

let on_commit t () =
  if t.active then begin
    let st = Manager.state t.mgr in
    let version = Global_meta.version (Store.meta (Kernel.store st.State.kernel)) in
    let objects = Hashtbl.create 256 in
    State.iter_oroots st (fun oid (oroot : Oroot.t) ->
        (* newest-at-or-before rather than exact: the incremental walk does
           not re-snapshot clean objects, whose state at [version] is their
           last saved snapshot *)
        match Oroot.latest_le oroot ~version with
        | Some (_, snap) -> Hashtbl.replace objects oid snap
        | None -> ());
    let record = { objects; pages = t.pending_pages } in
    t.pending_pages <- Hashtbl.create 64;
    Hashtbl.replace t.history version record;
    t.order <- version :: t.order;
    (* prune beyond the window *)
    let rec prune kept = function
      | [] -> List.rev kept
      | v :: rest ->
        if List.length kept < t.max_versions then prune (v :: kept) rest
        else begin
          Hashtbl.remove t.history v;
          prune kept rest
        end
    in
    t.order <- prune [] t.order
  end

let attach ?(max_versions = 64) mgr =
  let t =
    {
      mgr;
      max_versions;
      history = Hashtbl.create 64;
      order = [];
      pending_pages = Hashtbl.create 64;
      active = true;
    }
  in
  let st = Manager.state mgr in
  st.State.page_archive_hook <-
    Some (fun pmo pno paddr -> if t.active then page_copy st pmo pno paddr t.pending_pages);
  Manager.on_checkpoint mgr (on_commit t);
  t

let detach t =
  t.active <- false;
  (Manager.state t.mgr).State.page_archive_hook <- None

let versions t = List.sort compare t.order

let object_at t ~version ~obj_id =
  match Hashtbl.find_opt t.history version with
  | None -> None
  | Some r -> Hashtbl.find_opt r.objects obj_id

let objects_at t ~version =
  match Hashtbl.find_opt t.history version with
  | None -> []
  | Some r -> Hashtbl.fold (fun oid s acc -> (oid, s) :: acc) r.objects []

(* The newest archived image of the page at a version <= the requested
   one. Pages unmodified across an interval are not re-archived, so the
   lookup walks back through the window. *)
let page_at t ~version ~pmo_id ~pno =
  let rec back v =
    if v < 0 then None
    else
      match Hashtbl.find_opt t.history v with
      | None -> if List.exists (fun x -> x < v) t.order then back (v - 1) else None
      | Some r -> (
        match Hashtbl.find_opt r.pages (pmo_id, pno) with
        | Some bytes ->
          (* the page must also still exist at [version] *)
          if Hashtbl.mem r.objects pmo_id || object_at t ~version ~obj_id:pmo_id <> None then
            Some bytes
          else None
        | None -> back (v - 1))
  in
  if object_at t ~version ~obj_id:pmo_id = None then None else back version

let pages_archived_at t ~version =
  match Hashtbl.find_opt t.history version with
  | None -> []
  | Some r ->
    List.sort_uniq compare (Hashtbl.fold (fun key _ acc -> key :: acc) r.pages [])

let diff_objects t ~from_version ~to_version =
  match (Hashtbl.find_opt t.history from_version, Hashtbl.find_opt t.history to_version) with
  | Some a, Some b ->
    let changed = ref [] in
    Hashtbl.iter
      (fun oid snap ->
        match Hashtbl.find_opt b.objects oid with
        | Some snap' -> if snap <> snap' then changed := oid :: !changed
        | None -> changed := oid :: !changed)
      a.objects;
    Hashtbl.iter
      (fun oid _ -> if not (Hashtbl.mem a.objects oid) then changed := oid :: !changed)
      b.objects;
    (* page content changes count as changes to the owning PMO, for every
       version inside the (from, to] range *)
    List.iter
      (fun v ->
        if v > from_version && v <= to_version then
          match Hashtbl.find_opt t.history v with
          | Some r -> Hashtbl.iter (fun (pmo_id, _) _ -> changed := pmo_id :: !changed) r.pages
          | None -> ())
      t.order;
    List.sort_uniq compare !changed
  | _, _ -> []

type stats = {
  archived_versions : int;
  object_snapshots : int;
  page_images : int;
  page_bytes : int;
}

let stats t =
  Hashtbl.fold
    (fun _ r acc ->
      {
        archived_versions = acc.archived_versions + 1;
        object_snapshots = acc.object_snapshots + Hashtbl.length r.objects;
        page_images = acc.page_images + Hashtbl.length r.pages;
        page_bytes =
          acc.page_bytes + Hashtbl.fold (fun _ b n -> n + Bytes.length b) r.pages 0;
      })
    t.history
    { archived_versions = 0; object_snapshots = 0; page_images = 0; page_bytes = 0 }
