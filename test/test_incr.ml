(* Incremental capability-tree walk (DESIGN.md "Dirty-object tracking"):
   unit tests for the region resolver the protect pass archives through,
   fault injection into the hybrid-copy undo path, skip accounting, the
   live-tree cache, every walk of seeded churn against a full-scan oracle
   (audited after every operation), the pages of PMOs that left the tree,
   and a property test that a system checkpointed with skips restores
   byte-identically to an eagerly-walked twin driven by the same traces,
   across two restores. *)

module System = Treesls.System
module Kernel = Treesls_kernel.Kernel
module Ipc = Treesls_kernel.Ipc
module Manager = Treesls_ckpt.Manager
module State = Treesls_ckpt.State
module Oroot = Treesls_ckpt.Oroot
module Ckpt_page = Treesls_ckpt.Ckpt_page
module Active_list = Treesls_ckpt.Active_list
module Snapshot = Treesls_ckpt.Snapshot
module Pagetable = Treesls_kernel.Pagetable
module Dirty_log = Treesls_cap.Dirty_log
module Report = Treesls_ckpt.Report
module Audit = Treesls_audit.Audit
module Kobj = Treesls_cap.Kobj
module Radix = Treesls_cap.Radix
module Store = Treesls_nvm.Store
module Paddr = Treesls_nvm.Paddr
module Rng = Treesls_util.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let feats ~incr =
  let f = State.default_features () in
  f.State.incremental_walk <- incr;
  f

(* ---- region resolution: overlapping and adjacent regions ---- *)

let mk_pmo id pages = Kobj.make_pmo ~id ~pages ~kind:Kobj.Pmo_normal

let region pmo vpn pages =
  { Kobj.vr_vpn = vpn; vr_pages = pages; vr_pmo = pmo; vr_writable = true }

let check_resolve msg vms vpn expect =
  let got =
    match Kernel.region_of vms vpn with
    | Some r -> Some (r.Kobj.vr_pmo.Kobj.pmo_id, vpn - r.Kobj.vr_vpn)
    | None -> None
  in
  Alcotest.(check (option (pair int int))) msg expect got

let resolve_overlapping () =
  let a = mk_pmo 9001 8 and b = mk_pmo 9002 4 and c = mk_pmo 9003 2 in
  (* a covers 100..103, b covers 102..105 (overlap on 102..103), c is
     exactly adjacent at 106..107 *)
  let vms =
    {
      Kobj.vs_id = 910_001;
      vs_regions = [ region a 100 4; region b 102 4; region c 106 2 ];
    }
  in
  check_resolve "below all regions" vms 99 None;
  check_resolve "first page of a" vms 100 (Some (9001, 0));
  check_resolve "interior of a" vms 101 (Some (9001, 1));
  (* on the overlap, the first region in list order must win *)
  check_resolve "overlap start -> a" vms 102 (Some (9001, 2));
  check_resolve "overlap end -> a" vms 103 (Some (9001, 3));
  check_resolve "b after a ends" vms 104 (Some (9002, 2));
  check_resolve "last page of b" vms 105 (Some (9002, 3));
  check_resolve "adjacent region c" vms 106 (Some (9003, 0));
  check_resolve "last page of c" vms 107 (Some (9003, 1));
  check_resolve "past all regions" vms 108 None

let resolve_list_order_and_invalidation () =
  let a = mk_pmo 9011 8 and b = mk_pmo 9012 4 in
  let vms =
    { Kobj.vs_id = 910_002; vs_regions = [ region a 100 8; region b 102 4 ] }
  in
  check_resolve "a shadows b entirely" vms 103 (Some (9011, 3));
  (* replace the region list: the answers follow the new list *)
  vms.Kobj.vs_regions <- [ region b 102 4; region a 100 8 ];
  check_resolve "b first now" vms 103 (Some (9012, 1));
  check_resolve "b covers 102..105" vms 105 (Some (9012, 3));
  check_resolve "a where b does not reach" vms 106 (Some (9011, 6));
  check_resolve "a below b's start" vms 100 (Some (9011, 0));
  vms.Kobj.vs_regions <- [];
  check_resolve "emptied region list" vms 103 None

(* ---- hybrid copy: unexpected-CPP-state undo retires the entry ---- *)

let hybrid_undo_drops_entry () =
  let sys = System.boot ~features:(feats ~incr:true) () in
  let k = System.kernel sys in
  let st = Manager.state (System.manager sys) in
  let p = Kernel.create_process k ~name:"hot" ~threads:1 ~prio:5 in
  let vpn = Kernel.grow_heap k p ~pages:1 in
  Kernel.touch_write k p ~vpn;
  ignore (System.checkpoint sys);
  let pmo, pno =
    match Kernel.region_of p.Kernel.vms vpn with
    | Some r -> (r.Kobj.vr_pmo, vpn - r.Kobj.vr_vpn)
    | None -> Alcotest.fail "heap page not resolved"
  in
  let runtime = Option.get (Radix.get pmo.Kobj.pmo_radix pno) in
  check_bool "page starts on NVM" true (Paddr.is_nvm runtime);
  (* cross the hotness threshold: the next checkpoint will try to migrate
     the page into the DRAM cache *)
  let al = st.State.active in
  for _ = 1 to (Active_list.config al).Active_list.hot_threshold do
    Active_list.record_fault al pmo pno
  done;
  let on_list () =
    List.exists
      (fun e -> e.Active_list.e_pmo == pmo && e.Active_list.e_pno = pno)
      (Active_list.entries al)
  in
  check_bool "hot page appended" true (on_list ());
  (* Fault injection: give the CP record a second backup slot while the
     runtime still lives on NVM — the CP invariant (runtime-on-NVM implies
     b2 = None) no longer holds, so the migration must be undone. *)
  let oroot = Option.get (State.find_oroot st pmo.Kobj.pmo_id) in
  let cp = Option.get (Ckpt_page.find (Oroot.pages_exn oroot) pno) in
  cp.Ckpt_page.b2 <- Some (Store.alloc_page (System.store sys));
  ignore (System.checkpoint sys);
  check_bool "undo: runtime stayed on NVM" true
    (match Radix.get pmo.Kobj.pmo_radix pno with
    | Some pa -> Paddr.is_nvm pa
    | None -> false);
  check_bool "undo: entry retired from the active list" false (on_list ());
  (* a retired entry must not come back and retry the doomed migration *)
  ignore (System.checkpoint sys);
  check_bool "no retry on later checkpoints" false (on_list ())

(* ---- skip accounting: conservation against an eager twin ---- *)

let conservation () =
  let mk incr =
    let sys = System.boot ~features:(feats ~incr) () in
    let k = System.kernel sys in
    let p = Kernel.create_process k ~name:"pool" ~threads:1 ~prio:5 in
    let ns = Array.init 40 (fun _ -> Kernel.create_notification k p) in
    (* the first post-boot walk is forced eager in both modes *)
    ignore (System.checkpoint sys);
    ignore (System.checkpoint sys);
    (sys, k, ns)
  in
  let sys_e, k_e, ns_e = mk false in
  let sys_i, k_i, ns_i = mk true in
  for i = 0 to 3 do
    Ipc.notify k_e ns_e.(i);
    Ipc.notify k_i ns_i.(i)
  done;
  let re = System.checkpoint sys_e in
  let ri = System.checkpoint sys_i in
  check_int "eager walk never skips" 0 re.Report.objects_skipped;
  check_int "walked + skipped = eager walked" re.Report.objects_walked
    (ri.Report.objects_walked + ri.Report.objects_skipped);
  check_bool "some objects were skipped" true (ri.Report.objects_skipped > 0);
  check_bool "the walk scales with the delta" true
    (ri.Report.objects_walked < re.Report.objects_walked / 2);
  (* nothing mutated since: a steady-state checkpoint skips the tree *)
  let r2 = System.checkpoint sys_i in
  check_bool "clean checkpoint walks (almost) nothing" true (r2.Report.objects_walked <= 4)

(* ---- live-tree cache: reused while the shape holds, rebuilt on edge changes ---- *)

module Live_tree = Treesls_ckpt.Live_tree

let live_tree sys =
  match (Manager.state (System.manager sys)).State.live_tree with
  | Some t -> t
  | None -> Alcotest.fail "no live-tree cache"

let live_tree_tracks_shape () =
  let sys = System.boot ~features:(feats ~incr:true) () in
  let k = System.kernel sys in
  let mgr = System.manager sys in
  let p = Kernel.create_process k ~name:"shape" ~threads:1 ~prio:5 in
  let n = Kernel.create_notification k p in
  let vpn = Kernel.grow_heap k p ~pages:1 in
  Kernel.touch_write k p ~vpn;
  let server = Kernel.create_process k ~name:"server" ~threads:1 ~prio:5 in
  let conn = Ipc.create_conn k ~client:p ~server in
  Ipc.register_handler k conn (fun b -> b);
  ignore (System.checkpoint sys);
  let t0 = live_tree sys in
  let size t = Array.length (Live_tree.entries t) in
  let audit_clean what = check_int (what ^ ": audit errors") 0 (Audit.errors (System.audit sys)) in
  let walked_at (r : Report.t) oid =
    match Manager.find_oroot mgr oid with
    | Some o -> Oroot.at o ~version:r.Report.version <> None
    | None -> false
  in
  (* object state changes leave the shape alone: same cache, nothing rebuilt *)
  Ipc.notify k n;
  let r = System.checkpoint sys in
  check_bool "state change reuses the cache" true (live_tree sys == t0);
  check_int "walked + skipped = cached objects" (size t0)
    (r.Report.objects_walked + r.Report.objects_skipped);
  audit_clean "reused";
  (* a CoW fault on the page the checkpoint protected logs the VM space,
     and an IPC call the connection: neither changes an edge *)
  let cow = (Kernel.stats k).Kernel.cow_faults in
  Kernel.touch_write k p ~vpn;
  check_int "one CoW fault" (cow + 1) (Kernel.stats k).Kernel.cow_faults;
  let r = System.checkpoint sys in
  check_bool "CoW fault reuses the cache" true (live_tree sys == t0);
  check_bool "the VM space is walked" true (walked_at r p.Kernel.vms.Kobj.vs_id);
  audit_clean "CoW fault";
  ignore (Ipc.call k conn (Bytes.of_string "ping"));
  let r = System.checkpoint sys in
  check_bool "IPC call reuses the cache" true (live_tree sys == t0);
  check_bool "the connection is walked" true (walked_at r conn.Kobj.ic_id);
  audit_clean "IPC call";
  (* a new capability changes a cap group's slots *)
  let n2 = Kernel.create_notification k p in
  ignore (System.checkpoint sys);
  let t1 = live_tree sys in
  check_bool "install rebuilds" true (t1 != t0);
  check_int "new object cached" (size t0 + 1) (size t1);
  check_bool "new object live" true (Treesls_util.Int_tbl.mem (Live_tree.live t1) n2.Kobj.nt_id);
  audit_clean "install";
  (* a heap grows through a replaced region list (and a new PMO cap) *)
  ignore (Kernel.grow_heap k p ~pages:1);
  ignore (System.checkpoint sys);
  let t2 = live_tree sys in
  check_bool "region change rebuilds" true (t2 != t1);
  check_int "heap PMO cached" (size t1 + 1) (size t2);
  (* revoking the process's cap drops its subtree, and GC its ORoots *)
  Kernel.exit_process k p;
  ignore (System.checkpoint sys);
  let t3 = live_tree sys in
  check_bool "revoke rebuilds" true (t3 != t2);
  check_bool "exited objects leave the live set" false
    (Treesls_util.Int_tbl.mem (Live_tree.live t3) n2.Kobj.nt_id);
  check_bool "their ORoots are collected" true (Manager.find_oroot mgr n2.Kobj.nt_id = None);
  audit_clean "revoke";
  (* a crash drops the cache with the rest of DRAM; restore rebuilds it
     from its one walk of the restored tree, and the next checkpoint
     reuses that walk: every restored object equals its ORoot's newest
     snapshot and the restored kernel's log is empty, so it walks only
     what changed since *)
  ignore (System.crash_and_recover sys);
  let t4 = live_tree sys in
  check_bool "restored cache matches the restored tree" true
    (Live_tree.check t4
       ~root:(Kernel.root (System.kernel sys))
       ~log:(Kernel.dirty_log (System.kernel sys))
       ~oroot:(Manager.find_oroot mgr)
    = None);
  audit_clean "restore";
  let r4 = System.checkpoint sys in
  check_bool "first checkpoint after restore reuses the cache" true (live_tree sys == t4);
  check_int "nothing run since the restore: nothing walked" 0 r4.Report.objects_walked;
  check_int "every cached object skipped" (size t4) r4.Report.objects_skipped;
  let restored_notif =
    match
      Array.find_map
        (function Kobj.Notification n -> Some n | _ -> None)
        (Live_tree.entries t4)
    with
    | Some n -> n
    | None -> Alcotest.fail "no notification in the restored tree"
  in
  Ipc.notify (System.kernel sys) restored_notif;
  let r5 = System.checkpoint sys in
  check_bool "one touch reuses the cache" true (live_tree sys == t4);
  check_int "one touch: one object walked" 1 r5.Report.objects_walked;
  check_bool "the touched notification is walked" true
    (walked_at r5 restored_notif.Kobj.nt_id);
  audit_clean "after restore"

(* ---- restore equivalence under randomized mutation traces ---- *)

(* Whole-state fingerprint: every reachable object's snapshot plus the
   byte contents of every normal-PMO page, sorted by object id. *)
let fingerprint sys =
  let k = System.kernel sys in
  let store = System.store sys in
  let objs = ref [] in
  Kobj.iter_tree ~root:(Kernel.root k) (fun obj ->
      let pages =
        match obj with
        | Kobj.Pmo p when p.Kobj.pmo_kind = Kobj.Pmo_normal ->
          List.sort compare
            (Radix.fold
               (fun pno paddr acc ->
                 (pno, Bytes.to_string (Store.page_bytes store paddr)) :: acc)
               p.Kobj.pmo_radix [])
        | Kobj.Pmo _ | Kobj.Cap_group _ | Kobj.Thread _ | Kobj.Vmspace _ | Kobj.Ipc_conn _
        | Kobj.Notification _ | Kobj.Irq_notification _ -> []
      in
      objs := (Kobj.id obj, Snapshot.take obj, pages) :: !objs);
  List.sort (fun (a, _, _) (b, _, _) -> compare a b) !objs

type op =
  | Notify of int
  | Wait of int
  | Touch of int
  | Write of int
  | Spawn
  | Exit of int
  | Grow
  | Ckpt

let gen_trace rng n =
  List.init n (fun _ ->
      match Rng.int rng 16 with
      | 0 | 1 | 2 | 3 -> Notify (Rng.int rng 1000)
      | 4 | 5 -> Wait (Rng.int rng 1000)
      | 6 | 7 | 8 -> Touch (Rng.int rng 1000)
      | 9 | 10 -> Write (Rng.int rng 1000)
      | 11 -> Spawn
      | 12 -> Exit (Rng.int rng 1000)
      | 13 -> Grow
      | _ -> Ckpt)

(* Replay [ops] on [sys] (deterministic: the same trace drives the eager
   and the incremental system identically), ending with a checkpoint so
   both commit the same state; returns the total skipped-object count. *)
let apply sys ops =
  let k () = System.kernel sys in
  let base = Kernel.create_process (k ()) ~name:"driver" ~threads:1 ~prio:5 in
  let heap0 = Kernel.grow_heap (k ()) base ~pages:4 in
  let heap_pages = 4 in
  let psz = (Kernel.cost (k ())).Treesls_sim.Cost.page_size in
  let notifs = ref [| Kernel.create_notification (k ()) base |] in
  let procs = ref [] in
  let spawned = ref 0 in
  let skipped = ref 0 in
  let ckpt () = skipped := !skipped + (System.checkpoint sys).Report.objects_skipped in
  List.iter
    (fun op ->
      match op with
      | Notify i -> Ipc.notify (k ()) !notifs.(i mod Array.length !notifs)
      | Wait i ->
        (* only consume pending signals — blocking the driver's single
           thread would wedge the trace *)
        let n = !notifs.(i mod Array.length !notifs) in
        if n.Kobj.nt_count > 0 then
          ignore (Ipc.wait (k ()) n (List.hd base.Kernel.threads))
      | Touch i -> Kernel.touch_write (k ()) base ~vpn:(heap0 + (i mod heap_pages))
      | Write i ->
        Kernel.write_bytes (k ()) base
          ~vaddr:(((heap0 + (i mod heap_pages)) * psz) + 64)
          (Bytes.of_string (Printf.sprintf "w%06d" i))
      | Spawn ->
        incr spawned;
        let p =
          Kernel.create_process (k ()) ~name:(Printf.sprintf "w%d" !spawned) ~threads:1
            ~prio:5
        in
        notifs := Array.append !notifs [| Kernel.create_notification (k ()) p |];
        procs := !procs @ [ p ]
      | Exit i -> (
        match !procs with
        | [] -> ()
        | ps ->
          let idx = i mod List.length ps in
          Kernel.exit_process (k ()) (List.nth ps idx);
          procs := List.filteri (fun j _ -> j <> idx) ps)
      | Grow ->
        let v = Kernel.grow_heap (k ()) base ~pages:2 in
        Kernel.touch_write (k ()) base ~vpn:v
      | Ckpt -> ckpt ())
    ops;
  ckpt ();
  !skipped

let prop_restore_equivalence =
  QCheck.Test.make
    ~name:"incremental restore = eager restore (random traces, audit clean)" ~count:8
    QCheck.(pair (int_bound 10_000) (int_range 60 160))
    (fun (seed, nops) ->
      let rng = Rng.create (Int64.of_int seed) in
      let trace1 = gen_trace rng nops in
      let trace2 = gen_trace rng nops in
      let boot incr = System.boot ~features:(feats ~incr) () in
      let sys_e = boot false and sys_i = boot true in
      (* one epoch: both twins replay [trace] (ending with a checkpoint),
         crash and recover; the two restored states must agree
         object-for-object and page-for-page, and both must satisfy the
         NVM auditor *)
      let epoch trace =
        let skipped_e = apply sys_e trace in
        ignore (apply sys_i trace);
        ignore (System.crash_and_recover sys_e);
        ignore (System.crash_and_recover sys_i);
        skipped_e = 0
        && fingerprint sys_e = fingerprint sys_i
        && Audit.errors (System.audit sys_e) = 0
        && Audit.errors (System.audit sys_i) = 0
      in
      (* the second epoch starts from a restore: the incremental twin's
         checkpoints skip what the restore left unchanged, the eager
         twin's re-save it, and the next restore must not tell them
         apart *)
      epoch trace1 && epoch trace2)

(* ---- the pages of a PMO that left the tree are freed ---- *)

(* The commit's GC frees a dead PMO's recorded pages through its ORoot;
   the pages it gained after its last walk, a PMO born and dead between
   two walks, and a page the hybrid copy cached in DRAM must go too. *)
let dead_pmo_pages_freed () =
  let audit_clean what sys = check_int (what ^ ": audit errors") 0 (Audit.errors (System.audit sys)) in
  (* a fresh page written after the last walk, then the process exits *)
  let sys = System.boot ~features:(feats ~incr:true) () in
  let k = System.kernel sys in
  let p = Kernel.create_process k ~name:"late" ~threads:1 ~prio:5 in
  let vpn = Kernel.grow_heap k p ~pages:2 in
  ignore (System.checkpoint sys);
  Kernel.touch_write k p ~vpn;
  Kernel.exit_process k p;
  ignore (System.checkpoint sys);
  audit_clean "fresh page after the last walk" sys;
  (* a PMO born and dead between two walks *)
  let p = Kernel.create_process k ~name:"brief" ~threads:1 ~prio:5 in
  Kernel.touch_write k p ~vpn:(Kernel.grow_heap k p ~pages:1);
  Kernel.exit_process k p;
  ignore (System.checkpoint sys);
  audit_clean "born and dead between walks" sys;
  (* a DRAM-cached page: the entry retires and its frame is returned *)
  let st = Manager.state (System.manager sys) in
  let al = st.State.active in
  let p = Kernel.create_process k ~name:"hot" ~threads:1 ~prio:5 in
  let vpn = Kernel.grow_heap k p ~pages:1 in
  Kernel.touch_write k p ~vpn;
  ignore (System.checkpoint sys);
  let pmo = (List.nth p.Kernel.vms.Kobj.vs_regions 2).Kobj.vr_pmo in
  for _ = 1 to (Active_list.config al).Active_list.hot_threshold do
    Active_list.record_fault al pmo 0
  done;
  ignore (System.checkpoint sys);
  check_bool "page cached in DRAM" true
    (match Radix.get pmo.Kobj.pmo_radix 0 with Some pa -> Paddr.is_dram pa | None -> false);
  let cached = Active_list.cached_count al in
  let free = Store.dram_pages_free (System.store sys) in
  Kernel.exit_process k p;
  for _ = 0 to (Active_list.config al).Active_list.idle_limit + 1 do
    ignore (System.checkpoint sys)
  done;
  check_int "the entry retired" (cached - 1) (Active_list.cached_count al);
  check_int "its DRAM frame returned" (free + 1) (Store.dram_pages_free (System.store sys));
  check_bool "no entry of the dead PMO" false
    (List.exists (fun e -> e.Active_list.e_pmo == pmo) (Active_list.entries al));
  audit_clean "DRAM-cached page of an exited process" sys

(* ---- the walk against a full-scan oracle, under seeded churn ---- *)

(* What the next walk owes, from state alone: every reachable object when
   the walk is eager; otherwise every reachable object with no ORoot or a
   snapshot unequal to its ORoot's newest, every VM space whose page
   table holds dirty pages to re-protect, and every PMO whose fresh pages
   wait for their page records. *)
let owed sys ~eager =
  let k = System.kernel sys in
  let st = Manager.state (System.manager sys) in
  let protects = st.State.features.State.level >= State.Fault in
  let s = Hashtbl.create 64 and reachable = ref [] in
  Kobj.iter_tree ~root:(Kernel.root k) (fun obj ->
      reachable := obj :: !reachable;
      let oid = Kobj.id obj in
      let unsaved =
        match State.find_oroot st oid with
        | Some o -> (
          match Oroot.latest_le o ~version:max_int with
          | Some (_, snap) -> snap <> Snapshot.take obj
          | None -> true)
        | None -> true
      in
      let pending =
        match obj with
        | Kobj.Vmspace vms -> (
          protects
          && match Kernel.pagetable k vms with Some pt -> Pagetable.dirty_count pt > 0 | None -> false)
        | Kobj.Pmo p -> Hashtbl.mem st.State.pending_fresh p.Kobj.pmo_id
        | Kobj.Cap_group _ | Kobj.Thread _ | Kobj.Ipc_conn _ | Kobj.Notification _
        | Kobj.Irq_notification _ -> false
      in
      if eager || unsaved || pending then Hashtbl.replace s oid ());
  (s, !reachable)

(* One checkpoint, checked against the oracle: everything owed is walked;
   the walk is exactly the reachable objects that were logged or had no
   ORoot (all of them when eager); and afterwards nothing is owed. *)
let checked_checkpoint sys what =
  (* a pending window settles (and publishes) before the walk starts *)
  System.drain_settle sys;
  let st = Manager.state (System.manager sys) in
  let log = Kernel.dirty_log (System.kernel sys) in
  let eager = not st.State.features.State.incremental_walk in
  let owed_before, reachable = owed sys ~eager in
  let expected = Hashtbl.create 64 in
  List.iter
    (fun obj ->
      let oid = Kobj.id obj in
      if eager || Dirty_log.mem log oid || State.find_oroot st oid = None then
        Hashtbl.replace expected oid ())
    reachable;
  let r = System.checkpoint sys in
  (* a walk stamps each snapshot it saves with its version *)
  let walked oid =
    match State.find_oroot st oid with
    | Some o -> Oroot.at o ~version:r.Report.version <> None
    | None -> false
  in
  List.iter
    (fun obj ->
      let oid = Kobj.id obj in
      if Hashtbl.mem owed_before oid && not (walked oid) then
        Alcotest.failf "%s: object %d owed, not walked" what oid;
      match (walked oid, Hashtbl.mem expected oid) with
      | true, false -> Alcotest.failf "%s: object %d walked, neither logged nor new" what oid
      | false, true -> Alcotest.failf "%s: object %d logged or new, not walked" what oid
      | true, true | false, false -> ())
    reachable;
  check_int (what ^ ": objects walked") (Hashtbl.length expected) r.Report.objects_walked;
  let owed_after, _ = owed sys ~eager:false in
  Hashtbl.iter (fun oid () -> Alcotest.failf "%s: object %d still owed" what oid) owed_after

let pick rng = function [] -> None | l -> Some (List.nth l (Rng.int rng (List.length l)))

let targets (p : Kernel.process) =
  let acc = ref [] in
  Kobj.iter_caps (fun _ c -> acc := c.Kobj.target :: !acc) p.Kernel.cg;
  List.rev !acc

let notifications p =
  List.filter_map (function Kobj.Notification n -> Some n | _ -> None) (targets p)

let irqs p = List.filter_map (function Kobj.Irq_notification i -> Some i | _ -> None) (targets p)
let conns p = List.filter_map (function Kobj.Ipc_conn c -> Some c | _ -> None) (targets p)

let writable_normal p =
  List.filter
    (fun r -> r.Kobj.vr_writable && r.Kobj.vr_pmo.Kobj.pmo_kind = Kobj.Pmo_normal)
    p.Kernel.vms.Kobj.vs_regions

(* Seeded churn over whatever the current tree holds (handles are looked
   up afresh, so a restore in the middle breaks no handle):
   IPC calls, notify/wait, IRQs, writes that take CoW and fresh-page
   faults, heap growth, map_shared, process create/exit, drain steps,
   crash/recover, and an oracle-checked checkpoint every few ops.  The
   whole state is audited after every operation: any violation, a
   warning included, fails with the seed and the operation. *)
let churn ~seed ~ops features =
  let sys = System.boot ~features () in
  let rng = Rng.create (Int64.of_int seed) in
  let spawned = ref 0 and ckpts = ref 0 in
  let k () = System.kernel sys in
  let psz = (Kernel.cost (k ())).Treesls_sim.Cost.page_size in
  let audited what =
    let r = System.audit sys in
    if not (Audit.ok r) then Alcotest.failf "seed %d, %s:@\n%a" seed what Audit.pp r
  in
  let spawn () =
    incr spawned;
    let k = k () in
    let p =
      Kernel.create_process k ~name:(Printf.sprintf "churn%d" !spawned) ~threads:2 ~prio:5
    in
    ignore (Kernel.create_notification k p);
    ignore (Kernel.create_irq k p ~line:!spawned);
    ignore (Kernel.grow_heap k p ~pages:2);
    match pick rng (List.filter (fun q -> q != p) (Kernel.processes k)) with
    | Some server -> ignore (Ipc.create_conn k ~client:p ~server)
    | None -> ()
  in
  let ckpt () =
    incr ckpts;
    checked_checkpoint sys (Printf.sprintf "seed %d, checkpoint %d" seed !ckpts)
  in
  spawn ();
  spawn ();
  ckpt ();
  audited "set-up";
  for i = 1 to ops do
    let k = k () in
    let op =
      match pick rng (Kernel.processes k) with
      | None -> "no process"
      | Some p -> (
        let th () = pick rng p.Kernel.threads in
        match Rng.int rng 16 with
        | 0 ->
          Option.iter (Ipc.notify k) (pick rng (notifications p));
          "notify"
        | 1 ->
          (match (pick rng (notifications p), th ()) with
          | Some n, Some th -> ignore (Ipc.wait k n th)
          | _ -> ());
          "wait"
        | 2 ->
          Option.iter
            (fun c ->
              if not (Ipc.has_handler k c) then Ipc.register_handler k c (fun b -> b);
              ignore (Ipc.call k c (Bytes.of_string "ping")))
            (pick rng (conns p));
          "IPC call"
        | 3 ->
          Option.iter (Kernel.raise_irq k) (pick rng (irqs p));
          "raise_irq"
        | 4 ->
          (match (pick rng (irqs p), th ()) with
          | Some i, Some th -> ignore (Kernel.wait_irq k i th)
          | _ -> ());
          "wait_irq"
        | 5 | 6 | 7 ->
          Option.iter
            (fun r ->
              let vaddr = ((r.Kobj.vr_vpn + Rng.int rng r.Kobj.vr_pages) * psz) + 64 in
              Kernel.write_word k p ~vaddr ~len:8 (Rng.int rng 1_000_000))
            (pick rng (writable_normal p));
          "write"
        | 8 ->
          ignore (Kernel.grow_heap k p ~pages:(1 + Rng.int rng 3));
          "grow_heap"
        | 9 ->
          (match pick rng (Kernel.processes k) with
          | Some q when q != p ->
            Option.iter
              (fun r -> ignore (Kernel.map_shared k p r.Kobj.vr_pmo ~writable:true))
              (pick rng (writable_normal q))
          | Some _ | None -> ());
          "map_shared"
        | 10 ->
          spawn ();
          "spawn"
        | 11 ->
          (match
             pick rng
               (List.filter
                  (fun q -> String.starts_with ~prefix:"churn" q.Kernel.pname)
                  (Kernel.processes k))
           with
          | Some q -> Kernel.exit_process k q
          | None -> ());
          "exit_process"
        | 12 ->
          System.drain_tick sys;
          "drain step"
        | 13 when Rng.int rng 6 = 0 ->
          ignore (System.crash_and_recover sys);
          "crash and recover"
        | _ ->
          ckpt ();
          Printf.sprintf "checkpoint %d" !ckpts)
    in
    audited (Printf.sprintf "op %d (%s)" i op)
  done;
  ckpt ();
  audited "final checkpoint"

let walk_matches_oracle () =
  List.iter
    (fun (incr, async) ->
      let f = feats ~incr in
      f.State.async_drain <- async;
      List.iter (fun seed -> churn ~seed ~ops:400 f) [ 1; 2; 3; 4 ])
    [ (true, false); (true, true); (false, false) ]

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_restore_equivalence ]

let () =
  Alcotest.run "incr"
    [
      ( "resolve-region",
        [
          Alcotest.test_case "overlapping + adjacent regions" `Quick resolve_overlapping;
          Alcotest.test_case "list order wins; cache invalidation" `Quick
            resolve_list_order_and_invalidation;
        ] );
      ("hybrid-undo", [ Alcotest.test_case "undo retires the entry" `Quick hybrid_undo_drops_entry ]);
      ("accounting", [ Alcotest.test_case "conservation vs eager twin" `Quick conservation ]);
      ( "live-tree",
        [
          Alcotest.test_case "reused while the shape holds" `Quick live_tree_tracks_shape;
          Alcotest.test_case "walk matches the full-scan oracle" `Quick walk_matches_oracle;
          Alcotest.test_case "a dead PMO's pages are freed" `Quick dead_pmo_pages_freed;
        ] );
      ("properties", qsuite);
    ]
