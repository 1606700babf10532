(* Incremental capability-tree walk (DESIGN.md "Dirty-object tracking"):
   unit tests for the interval-indexed region resolver, fault injection
   into the hybrid-copy undo path, skip accounting, and a property test
   that a system checkpointed with skips restores byte-identically to an
   eagerly-walked twin driven by the same trace. *)

module System = Treesls.System
module Kernel = Treesls_kernel.Kernel
module Ipc = Treesls_kernel.Ipc
module Manager = Treesls_ckpt.Manager
module State = Treesls_ckpt.State
module Region_index = Treesls_ckpt.Region_index
module Oroot = Treesls_ckpt.Oroot
module Ckpt_page = Treesls_ckpt.Ckpt_page
module Active_list = Treesls_ckpt.Active_list
module Snapshot = Treesls_ckpt.Snapshot
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
    match Region_index.resolve (Region_index.build vms) vpn with
    | Some (p, pno) -> Some (p.Kobj.pmo_id, pno)
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
      vs_gen = 1;
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
    { Kobj.vs_id = 910_002; vs_regions = [ region a 100 8; region b 102 4 ]; vs_gen = 1 }
  in
  check_resolve "a shadows b entirely" vms 103 (Some (9011, 3));
  (* replace the region list: the cached index must not serve stale
     answers for the old list *)
  vms.Kobj.vs_regions <- [ region b 102 4; region a 100 8 ];
  check_resolve "b first now" vms 103 (Some (9012, 1));
  check_resolve "b covers 102..105" vms 105 (Some (9012, 3));
  check_resolve "a where b does not reach" vms 106 (Some (9011, 6));
  check_resolve "a below b's start" vms 100 (Some (9011, 0));
  vms.Kobj.vs_regions <- [];
  check_resolve "emptied region list" vms 103 None

let resolve_against_linear_model =
  QCheck.Test.make ~name:"resolve_region = first-match linear scan" ~count:200
    QCheck.(pair (int_bound 10_000) (int_range 1 12))
    (fun (seed, nregions) ->
      let rng = Rng.create (Int64.of_int seed) in
      let regions =
        List.init nregions (fun i ->
            region (mk_pmo (9100 + i) 16) (Rng.int rng 40) (1 + Rng.int rng 16))
      in
      let vms = { Kobj.vs_id = 920_000 + seed; vs_regions = regions; vs_gen = 1 } in
      let model vpn =
        match
          List.find_opt
            (fun r -> vpn >= r.Kobj.vr_vpn && vpn < r.Kobj.vr_vpn + r.Kobj.vr_pages)
            regions
        with
        | Some r -> Some (r.Kobj.vr_pmo.Kobj.pmo_id, vpn - r.Kobj.vr_vpn)
        | None -> None
      in
      let ok = ref true in
      for vpn = 0 to 60 do
        let got =
          match Region_index.resolve (Region_index.build vms) vpn with
          | Some (p, pno) -> Some (p.Kobj.pmo_id, pno)
          | None -> None
        in
        if got <> model vpn then ok := false
      done;
      !ok)

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
    match Region_index.resolve (Region_index.build p.Kernel.vms) vpn with
    | Some r -> r
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
  let oroot = Hashtbl.find st.State.oroots (Kobj.id (Kobj.Pmo pmo)) in
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
  ignore (System.checkpoint sys);
  let t0 = live_tree sys in
  let size t = Array.length (Live_tree.entries t) in
  let audit_clean what = check_int (what ^ ": audit errors") 0 (Audit.errors (System.audit sys)) in
  (* object state changes leave the shape alone: same cache, nothing rebuilt *)
  Ipc.notify k n;
  let r = System.checkpoint sys in
  check_bool "state change reuses the cache" true (live_tree sys == t0);
  check_int "walked + skipped = cached objects" (size t0)
    (r.Report.objects_walked + r.Report.objects_skipped);
  audit_clean "reused";
  (* a new capability changes a cap group's slots *)
  let n2 = Kernel.create_notification k p in
  ignore (System.checkpoint sys);
  let t1 = live_tree sys in
  check_bool "install rebuilds" true (t1 != t0);
  check_int "new object cached" (size t0 + 1) (size t1);
  check_bool "new object live" true (Hashtbl.mem (Live_tree.live t1) n2.Kobj.nt_id);
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
    (Hashtbl.mem (Live_tree.live t3) n2.Kobj.nt_id);
  check_bool "their ORoots are collected" true (Manager.find_oroot mgr n2.Kobj.nt_id = None);
  audit_clean "revoke";
  (* a crash drops the cache with the rest of DRAM; restore rebuilds it
     from its one walk of the restored tree, and the next checkpoint
     reuses that walk *)
  ignore (System.crash_and_recover sys);
  let t4 = live_tree sys in
  check_bool "restored cache matches the restored tree" true
    (Live_tree.check t4 ~root:(Kernel.root (System.kernel sys)) = None);
  audit_clean "restore";
  let r4 = System.checkpoint sys in
  check_bool "first checkpoint after restore reuses the cache" true (live_tree sys == t4);
  check_int "first checkpoint after restore is eager" 0 r4.Report.objects_skipped;
  check_int "it walks every cached object" (size t4) r4.Report.objects_walked

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
      let trace = gen_trace (Rng.create (Int64.of_int seed)) nops in
      let run incr =
        let sys = System.boot ~features:(feats ~incr) () in
        let skipped = apply sys trace in
        ignore (System.crash_and_recover sys);
        (sys, skipped)
      in
      let sys_e, skipped_e = run false in
      let sys_i, _skipped_i = run true in
      (* the two restored states must agree object-for-object and
         page-for-page, and both must satisfy the NVM auditor *)
      fingerprint sys_e = fingerprint sys_i
      && skipped_e = 0
      && Audit.errors (System.audit sys_e) = 0
      && Audit.errors (System.audit sys_i) = 0
      (* post-restore generations are untrusted: the first checkpoint
         after a restore must resync eagerly, skipping nothing *)
      && (System.checkpoint sys_i).Report.objects_skipped = 0)

let qsuite =
  List.map QCheck_alcotest.to_alcotest [ resolve_against_linear_model; prop_restore_equivalence ]

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
        [ Alcotest.test_case "reused while the shape holds" `Quick live_tree_tracks_shape ] );
      ("properties", qsuite);
    ]
