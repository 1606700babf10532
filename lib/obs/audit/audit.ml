module Eidetic = Treesls_ckpt.Eidetic
module Manager = Treesls_ckpt.Manager
module Oroot = Treesls_ckpt.Oroot
module Ckpt_page = Treesls_ckpt.Ckpt_page
module Snapshot = Treesls_ckpt.Snapshot
module Restore = Treesls_ckpt.Restore
module State = Treesls_ckpt.State
module Live_tree = Treesls_ckpt.Live_tree
module Kernel = Treesls_kernel.Kernel
module Kobj = Treesls_cap.Kobj
module Radix = Treesls_cap.Radix
module Store = Treesls_nvm.Store
module Paddr = Treesls_nvm.Paddr
module Buddy = Treesls_nvm.Buddy
module Slab = Treesls_nvm.Slab
module Global_meta = Treesls_nvm.Global_meta
module Probe = Treesls_obs.Probe
module Wearmap = Treesls_obs.Wearmap
module Json = Treesls_util.Json
module Int_tbl = Treesls_util.Int_tbl

type severity = Info | Warning | Error
type subsystem = Meta | Journal | Captree | Pages | Allocator | Eternal | Wear

type violation = {
  severity : severity;
  subsystem : subsystem;
  obj_id : int option;
  pno : int option;
  paddr : Paddr.t option;
  message : string;
}

type report = {
  version : int;
  objects_checked : int;
  pages_checked : int;
  violations : violation list;
  census : Nvm_census.t;
}

let severity_name = function Info -> "info" | Warning -> "warning" | Error -> "error"

let subsystem_name = function
  | Meta -> "meta"
  | Journal -> "journal"
  | Captree -> "captree"
  | Pages -> "pages"
  | Allocator -> "allocator"
  | Eternal -> "eternal"
  | Wear -> "wear"

let severity_rank = function Error -> 2 | Warning -> 1 | Info -> 0

(* Wear-health thresholds (doctor): warn when a checkpoint interval's
   write amplification or the per-page wear skew crosses these.  Opt-in —
   [run] performs the checks only when thresholds are passed, so a plain
   audit of a healthy system still reports zero violations. *)
type wear_thresholds = { waf_warn : float; skew_warn : float; skew_min_pages : int }

let default_wear_thresholds = { waf_warn = 8.0; skew_warn = 50.0; skew_min_pages = 64 }

(* ------------------------------------------------------------------ *)
(* The audit walk                                                      *)

let run ?wear mgr =
  let st = Manager.state mgr in
  let kernel = Manager.kernel mgr in
  let store = Kernel.store kernel in
  let probe = Store.probe store in
  let meta = Store.meta store in
  let g = Global_meta.version meta in
  (* Async drain: between a publish and its settle the system legitimately
     holds state stamped one version above the committed [g] — staged
     snapshots, restamped/drain-saved backups, an In_progress meta.  Stamp
     checks run against [limit]; the restore-choice replay below stays at
     [g], because that is what a crash right now would restore to. *)
  let pending_ver = Manager.drain_pending_version mgr in
  let limit = match pending_ver with Some v -> max v g | None -> g in
  let violations = ref [] in
  let add ?obj_id ?pno ?paddr severity subsystem fmt =
    Printf.ksprintf
      (fun message ->
        violations := { severity; subsystem; obj_id; pno; paddr; message } :: !violations)
      fmt
  in
  let objects_checked = ref 0 and pages_checked = ref 0 in

  (* Meta / journal: a quiesced system is outside any STW pause (a pending
     drain window legitimately keeps the meta In_progress until settle). *)
  if Global_meta.status meta <> Global_meta.Idle && pending_ver = None then
    add Error Meta "checkpoint marked in flight on a quiesced system";
  if Store.journal_in_flight store then
    add Error Journal "allocator journal holds an un-truncated record outside a checkpoint";

  (* The runtime tree, by object id: one traversal whose visited set is
     the table itself, sized like the tree it checkpoints. *)
  let root = Kernel.root kernel in
  let reachable : Kobj.t Int_tbl.t = Int_tbl.create st.State.oroot_count in
  Kobj.walk ~seen:reachable ~root Fun.id;

  (* The walk's cached tree must still be the tree: a stale cache would
     skip objects that joined it and let GC free ones still in it. *)
  Option.iter
    (fun lt ->
      Option.iter (add Error Captree "live-tree cache: %s")
        (Live_tree.check lt ~root ~log:(Kernel.dirty_log kernel) ~oroot:(State.find_oroot st)))
    st.State.live_tree;

  (* Captree: ORoot version sanity, snapshot restorability, references. *)
  Manager.iter_oroots mgr (fun oid (oroot : Oroot.t) ->
    incr objects_checked;
    let add ?pno ?paddr sev fmt = add ~obj_id:oid ?pno ?paddr sev Captree fmt in
    if oroot.Oroot.first_ver > limit then
      add Error "ORoot born in uncommitted checkpoint v%d (committed v%d)"
        oroot.Oroot.first_ver g;
    (* the last commit's GC (or restore's drop) ran against the cached
       tree, and every ORoot since came from a walk of that tree; a
       pending drain window defers its GC to settle *)
    (match (pending_ver, st.State.live_tree) with
    | None, Some lt when not (Int_tbl.mem (Live_tree.live lt) oid) ->
      add Warning "stale ORoot missed by GC (outside the tree the last GC ran against, v%d)" g
    | _, _ -> ());
    let slot name = function
      | Some (v, _) when v > limit ->
        add Error "snapshot slot %s stamped v%d above committed v%d" name v g
      | Some _ | None -> ()
    in
    slot "a" oroot.Oroot.slot_a;
    slot "b" oroot.Oroot.slot_b;
    if oroot.Oroot.first_ver <= g then
      match Oroot.latest_le oroot ~version:g with
      | None -> add Error "object committed at v%d has no restorable snapshot" g
      | Some (v, snap) ->
        List.iter
          (fun rid ->
            if Manager.find_oroot mgr rid = None then
              add Warning "snapshot v%d references object %d which has no ORoot" v rid)
          (Snapshot.references snap));

  (* Pages: the CP/CPP state machine and version stamps. *)
  Manager.iter_oroots mgr (fun oid (oroot : Oroot.t) ->
    match oroot.Oroot.pages with
    | None -> ()
    | Some cps ->
      Ckpt_page.iter
        (fun pno (cp : Ckpt_page.cp) ->
          incr pages_checked;
          let add ?paddr sev fmt = add ~obj_id:oid ~pno ?paddr sev Pages fmt in
          if cp.Ckpt_page.born_ver > limit then
            add Error "page record born at v%d above committed v%d" cp.Ckpt_page.born_ver g;
          if cp.Ckpt_page.b1_ver > limit then
            add Error "backup b1 stamped v%d above committed v%d" cp.Ckpt_page.b1_ver g;
          if cp.Ckpt_page.b2_ver > limit then
            add Error "backup b2 stamped v%d above committed v%d" cp.Ckpt_page.b2_ver g;
          let nvm_only name = function
            | Some p when not (Paddr.is_nvm p) ->
              add ~paddr:p Error "backup %s lives on %s, not NVM" name (Paddr.to_string p)
            | Some _ | None -> ()
          in
          nvm_only "b1" cp.Ckpt_page.b1;
          nvm_only "b2" cp.Ckpt_page.b2;
          match Oroot.runtime_page oroot pno with
          | Some rp when Paddr.is_dram rp ->
            if cp.Ckpt_page.b1 = None || cp.Ckpt_page.b2 = None then
              add ~paddr:rp Error "DRAM-cached page missing a CPP backup half"
          | Some rp ->
            if cp.Ckpt_page.b2 <> None then
              add ~paddr:rp Error "persistent runtime page carries a CPP marker (b2 set)"
          | None -> ())
        cps);

  (* Replay the restore rule: every committed page must have a source,
     and sealed sources must still verify (data reliability, paper §8). *)
  Restore.iter_restore_choices st ~global:g (fun ~pmo_id ~pno ~cp ~choice ->
    match choice with
    | `Use p ->
      if Paddr.is_nvm p && not (Store.verify_page store p) then
        add ~obj_id:pmo_id ~pno ~paddr:p Error Pages
          "restore source fails checksum verification"
    | `Drop ->
      if cp.Ckpt_page.born_ver <= g then
        add ~obj_id:pmo_id ~pno Error Pages
          "page committed at v%d has no restorable source" cp.Ckpt_page.born_ver);

  (* Eternal PMOs: excluded from rollback (§5), and installed in the root
     cap group, whose slots are all that ring reattachment searches. *)
  let in_root = Int_tbl.create 16 in
  Kobj.iter_caps (fun _ c -> Int_tbl.replace in_root (Kobj.id c.Kobj.target) ()) root;
  Int_tbl.iter
    (fun oid obj ->
      match obj with
      | Kobj.Pmo p when p.Kobj.pmo_kind = Kobj.Pmo_eternal ->
        let add ?pno ?paddr sev fmt = add ~obj_id:oid ?pno ?paddr sev Eternal fmt in
        if not (Int_tbl.mem in_root oid) then
          add Error "eternal PMO holds no capability in the root cap group";
        Radix.iter
          (fun pno paddr ->
            if not (Paddr.is_nvm paddr) then
              add ~pno ~paddr Error "eternal PMO frame lives on %s, not NVM"
                (Paddr.to_string paddr))
          p.Kobj.pmo_radix;
        (match Manager.find_oroot mgr oid with
        | None -> ()
        | Some oroot ->
          if oroot.Oroot.pages <> None then
            add Error "eternal PMO carries rollback page records";
          (match Oroot.latest_le oroot ~version:g with
          | Some (v, Snapshot.S_pmo { eternal_frames; _ }) ->
            List.iter
              (fun (pno, paddr) ->
                match Radix.get p.Kobj.pmo_radix pno with
                | Some cur when Paddr.equal cur paddr -> ()
                | Some _ | None ->
                  add ~pno ~paddr Warning
                    "eternal frame recorded at v%d is no longer mapped" v)
              eternal_frames
          | Some _ | None -> ()))
      | _ -> ())
    reachable;

  (* Every observability backing (trace ring, wearmap, black box) must be
     a reachable eternal PMO. *)
  List.iter
    (fun (name, id) ->
      match Int_tbl.find_opt reachable id with
      | Some (Kobj.Pmo p) when p.Kobj.pmo_kind = Kobj.Pmo_eternal -> ()
      | Some _ -> add ~obj_id:id Error Eternal "%s backing object is not an eternal PMO" name
      | None -> add ~obj_id:id Error Eternal "%s backing PMO is not reachable from the root" name)
    (Probe.backings probe);

  (* Wear health (doctor, opt-in): write-amplification and wear-skew
     thresholds, plus unattributed writes — NVM bytes recorded outside any
     writer context mean an instrumentation gap. *)
  (match wear with
  | Some th ->
    let wm = Probe.wearmap probe in
    let unattributed = Wearmap.subsystem_bytes wm Wearmap.unattributed in
    if unattributed > 0 then
      add Warning Wear "%d NVM bytes written outside any writer context" unattributed;
    (match Manager.last_report mgr with
    | Some r when r.Treesls_ckpt.Report.logical_dirty_bytes > 0 ->
      let waf = Treesls_ckpt.Report.waf r in
      if waf > th.waf_warn then
        add Warning Wear "write amplification %.2f exceeds threshold %.2f (last checkpoint)"
          waf th.waf_warn
    | Some _ | None -> ());
    let tracked = Wearmap.pages_tracked wm in
    if tracked >= th.skew_min_pages then begin
      let skew = Wearmap.skew wm in
      if skew > th.skew_warn then
        add Warning Wear
          "wear skew %.1f (max/mean writes over %d pages) exceeds threshold %.1f" skew
          tracked th.skew_warn
    end
  | None -> ());

  (* Allocator: internal invariants, then reconcile every live buddy
     block against exactly one owning subsystem. *)
  let buddy = Store.buddy store in
  let slab = Store.slab store in
  (try Buddy.check_invariants buddy
   with Failure m -> add Error Allocator "buddy invariant violated: %s" m);
  (try Slab.check_invariants slab
   with Failure m -> add Error Allocator "slab invariant violated: %s" m);
  let roles : string Int_tbl.t = Int_tbl.create 512 in
  let claim ?obj_id ?pno idx role =
    match Int_tbl.find_opt roles idx with
    | Some other ->
      add ?obj_id ?pno ~paddr:(Paddr.nvm idx) Error Allocator
        "NVM page claimed as both %s and %s" other role
    | None -> Int_tbl.replace roles idx role
  in
  List.iter (fun off -> claim off "slab page") (Slab.slab_pages slab);
  (* In-flight drain frames: version-N content saved by CoW faults during a
     pending window, referenced only by the drain's saved table until
     settle installs them (or restore frees them). *)
  List.iter
    (fun (p : Paddr.t) -> claim p.Paddr.idx "drain-saved frame")
    (Manager.drain_saved_frames mgr);
  let claim_radix ~obj_id radix role =
    Radix.iter
      (fun pno paddr -> if Paddr.is_nvm paddr then claim ~obj_id ~pno paddr.Paddr.idx role)
      radix
  in
  Int_tbl.iter
    (fun oid obj ->
      match obj with
      | Kobj.Pmo p ->
        let role =
          if p.Kobj.pmo_kind = Kobj.Pmo_eternal then "eternal frame" else "runtime page"
        in
        claim_radix ~obj_id:oid p.Kobj.pmo_radix role
      | _ -> ())
    reachable;
  State.iter_fresh_awaiting_gc st ~reachable:(Int_tbl.mem reachable) (fun pmo pno paddr ->
      if Paddr.is_nvm paddr then
        claim ~obj_id:pmo.Kobj.pmo_id ~pno paddr.Paddr.idx "fresh page awaiting GC");
  Manager.iter_oroots mgr (fun oid (oroot : Oroot.t) ->
    (match oroot.Oroot.runtime with
    | Some (Kobj.Pmo p) when not (Int_tbl.mem reachable oid) ->
      claim_radix ~obj_id:oid p.Kobj.pmo_radix "detached runtime page"
    | Some _ | None -> ());
    match oroot.Oroot.pages with
    | None -> ()
    | Some cps ->
      Ckpt_page.iter
        (fun pno (cp : Ckpt_page.cp) ->
          let backup = function
            | Some p when Paddr.is_nvm p -> claim ~obj_id:oid ~pno p.Paddr.idx "backup frame"
            | Some _ | None -> ()
          in
          backup cp.Ckpt_page.b1;
          backup cp.Ckpt_page.b2)
        cps);
  let live : unit Int_tbl.t = Int_tbl.create 512 in
  Buddy.iter_live buddy (fun ~offset ~order ->
    for i = offset to offset + (1 lsl order) - 1 do
      Int_tbl.replace live i ()
    done);
  Int_tbl.iter
    (fun idx () ->
      if not (Int_tbl.mem roles idx) then
        add ~paddr:(Paddr.nvm idx) Error Allocator
          "live NVM block reachable from no subsystem (leak)")
    live;
  Int_tbl.iter
    (fun idx role ->
      if not (Int_tbl.mem live idx) then
        add ~paddr:(Paddr.nvm idx) Error Allocator
          "%s is not a live buddy allocation (dangling frame)" role)
    roles;

  let violations =
    List.stable_sort
      (fun a b -> compare (severity_rank b.severity) (severity_rank a.severity))
      (List.rev !violations)
  in
  let nerr =
    List.length (List.filter (fun v -> v.severity = Error) violations)
  in
  Probe.count probe "audit.runs" 1;
  Probe.count probe "audit.violations" (List.length violations);
  if nerr > 0 then Probe.count probe "audit.errors" nerr;
  {
    version = g;
    objects_checked = !objects_checked;
    pages_checked = !pages_checked;
    violations;
    census = Nvm_census.collect mgr;
  }

let ok r = r.violations = []
let errors r = List.length (List.filter (fun v -> v.severity = Error) r.violations)
let warnings r = List.length (List.filter (fun v -> v.severity = Warning) r.violations)

let pp_violation ppf v =
  Format.fprintf ppf "[%s %s]" (String.uppercase_ascii (severity_name v.severity))
    (subsystem_name v.subsystem);
  (match v.obj_id with Some id -> Format.fprintf ppf " obj=%d" id | None -> ());
  (match v.pno with Some pno -> Format.fprintf ppf " pno=%d" pno | None -> ());
  (match v.paddr with Some p -> Format.fprintf ppf " paddr=%s" (Paddr.to_string p) | None -> ());
  Format.fprintf ppf " %s" v.message

let pp ppf r =
  Format.fprintf ppf "audit @@v%d: %d objects, %d page records checked: " r.version
    r.objects_checked r.pages_checked;
  if ok r then Format.fprintf ppf "OK (0 violations)"
  else
    Format.fprintf ppf "%d error(s), %d warning(s)" (errors r) (warnings r);
  List.iter (fun v -> Format.fprintf ppf "@\n  %a" pp_violation v) r.violations

let violation_to_json v =
  let opt name f = function Some x -> [ (name, f x) ] | None -> [] in
  Json.Obj
    ([
       ("severity", Json.Str (severity_name v.severity));
       ("subsystem", Json.Str (subsystem_name v.subsystem));
     ]
    @ opt "obj_id" Json.int v.obj_id
    @ opt "pno" Json.int v.pno
    @ opt "paddr" (fun p -> Json.Str (Paddr.to_string p)) v.paddr
    @ [ ("message", Json.Str v.message) ])

let to_json r =
  Json.Obj
    [
      ("version", Json.int r.version);
      ("objects_checked", Json.int r.objects_checked);
      ("pages_checked", Json.int r.pages_checked);
      ("errors", Json.int (errors r));
      ("warnings", Json.int (warnings r));
      ("violations", Json.Arr (List.map violation_to_json r.violations));
      ("census", Nvm_census.to_json r.census);
    ]

(* ------------------------------------------------------------------ *)
(* Cross-version diff explorer                                         *)

type object_change = Added | Removed | Mutated
type page_class = Cow_protected | Stop_and_copied | Migrated | Unknown

type diff = {
  from_version : int;
  to_version : int;
  objects : (int * Kobj.kind * object_change) list;
  pages : (int * int * page_class) list;
}

let change_name = function Added -> "added" | Removed -> "removed" | Mutated -> "mutated"

let class_name = function
  | Cow_protected -> "cow-protected"
  | Stop_and_copied -> "stop-and-copied"
  | Migrated -> "migrated"
  | Unknown -> "unknown"

let classify mgr ~to_version pmo_id pno =
  if to_version <> Manager.version mgr then Unknown
  else
    match Manager.find_oroot mgr pmo_id with
    | None -> Unknown
    | Some oroot -> (
      match oroot.Oroot.pages with
      | None -> Unknown
      | Some cps -> (
        match Ckpt_page.find cps pno with
        | None -> Unknown
        | Some cp ->
          if cp.Ckpt_page.b2 = None then Cow_protected
          else if cp.Ckpt_page.b2_ver = to_version then Migrated
          else Stop_and_copied))

let diff mgr eidetic ~from_version ~to_version =
  let archived = Eidetic.versions eidetic in
  if not (List.mem from_version archived) then
    invalid_arg (Printf.sprintf "Audit.diff: version %d not archived" from_version);
  if not (List.mem to_version archived) then
    invalid_arg (Printf.sprintf "Audit.diff: version %d not archived" to_version);
  let table objs =
    let t = Hashtbl.create 128 in
    List.iter (fun (oid, s) -> Hashtbl.replace t oid s) objs;
    t
  in
  let ta = table (Eidetic.objects_at eidetic ~version:from_version) in
  let tb = table (Eidetic.objects_at eidetic ~version:to_version) in
  let changed_pages =
    List.concat_map
      (fun v ->
        if v > from_version && v <= to_version then Eidetic.pages_archived_at eidetic ~version:v
        else [])
      archived
    |> List.sort_uniq compare
  in
  let mutated_pmos = List.sort_uniq compare (List.map fst changed_pages) in
  let objects = ref [] in
  Hashtbl.iter
    (fun oid snap ->
      match Hashtbl.find_opt ta oid with
      | None -> objects := (oid, Snapshot.kind snap, Added) :: !objects
      | Some snap' ->
        if snap <> snap' || List.mem oid mutated_pmos then
          objects := (oid, Snapshot.kind snap, Mutated) :: !objects)
    tb;
  Hashtbl.iter
    (fun oid snap ->
      if not (Hashtbl.mem tb oid) then objects := (oid, Snapshot.kind snap, Removed) :: !objects)
    ta;
  {
    from_version;
    to_version;
    objects = List.sort (fun (a, _, _) (b, _, _) -> compare a b) !objects;
    pages =
      List.map (fun (pmo_id, pno) -> (pmo_id, pno, classify mgr ~to_version pmo_id pno))
        changed_pages;
  }

let pp_diff ppf d =
  let count c = List.length (List.filter (fun (_, _, c') -> c' = c) d.objects) in
  Format.fprintf ppf "diff v%d..v%d: %d object(s) added, %d removed, %d mutated; %d page(s) changed"
    d.from_version d.to_version (count Added) (count Removed) (count Mutated)
    (List.length d.pages);
  List.iter
    (fun (oid, kind, change) ->
      Format.fprintf ppf "@\n  %c obj %d (%s)"
        (match change with Added -> '+' | Removed -> '-' | Mutated -> '~')
        oid (Kobj.kind_name kind))
    d.objects;
  List.iter
    (fun (pmo_id, pno, cls) ->
      Format.fprintf ppf "@\n  * page pmo=%d pno=%d [%s]" pmo_id pno (class_name cls))
    d.pages

let diff_to_json d =
  let obj (oid, kind, change) =
    Json.Obj
      [
        ("obj_id", Json.int oid);
        ("kind", Json.Str (Kobj.kind_name kind));
        ("change", Json.Str (change_name change));
      ]
  in
  let page (pmo_id, pno, cls) =
    Json.Obj
      [ ("pmo_id", Json.int pmo_id); ("pno", Json.int pno); ("class", Json.Str (class_name cls)) ]
  in
  Json.Obj
    [
      ("from_version", Json.int d.from_version);
      ("to_version", Json.int d.to_version);
      ("objects", Json.Arr (List.map obj d.objects));
      ("pages", Json.Arr (List.map page d.pages));
    ]
