(* Asynchronous checkpoint drain (DESIGN.md §16): unit tests for the
   drain state machine, the commit contract it shares with the eager
   path, CoW-fault resolution against a pending backlog, mid-drain crash
   recovery, and a property test that a system checkpointed with the
   async drain restores byte-identically to an eager twin driven by the
   same trace — under arbitrary interleavings of app writes and drain
   steps. *)

module System = Treesls.System
module Kernel = Treesls_kernel.Kernel
module Ipc = Treesls_kernel.Ipc
module Manager = Treesls_ckpt.Manager
module State = Treesls_ckpt.State
module Region_index = Treesls_ckpt.Region_index
module Active_list = Treesls_ckpt.Active_list
module Snapshot = Treesls_ckpt.Snapshot
module Report = Treesls_ckpt.Report
module Audit = Treesls_audit.Audit
module Kobj = Treesls_cap.Kobj
module Radix = Treesls_cap.Radix
module Store = Treesls_nvm.Store
module Metrics = Treesls_obs.Metrics
module Probe = Treesls_obs.Probe
module Rng = Treesls_util.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let boot_async ?(batch = 1) () =
  let f = State.default_features () in
  f.State.async_drain <- true;
  let sys = System.boot ~features:f () in
  Manager.set_drain_batch (System.manager sys) batch;
  sys

(* Build [n] DRAM-cached heap pages that are dirty right now, so the next
   checkpoint has exactly [n] hybrid-copy candidates: fault each page onto
   the active list, checkpoint (migrates them into the DRAM cache), then
   re-dirty them. *)
let make_hot_pages sys n =
  let k = System.kernel sys in
  let st = Manager.state (System.manager sys) in
  let p = Kernel.create_process k ~name:"hot" ~threads:1 ~prio:5 in
  let vpn0 = Kernel.grow_heap k p ~pages:n in
  for i = 0 to n - 1 do
    Kernel.touch_write k p ~vpn:(vpn0 + i)
  done;
  ignore (System.checkpoint sys);
  System.drain_settle sys;
  let al = st.State.active in
  for i = 0 to n - 1 do
    match Region_index.resolve (Region_index.build p.Kernel.vms) (vpn0 + i) with
    | Some (pmo, pno) ->
      for _ = 1 to (Active_list.config al).Active_list.hot_threshold do
        Active_list.record_fault al pmo pno
      done
    | None -> Alcotest.fail "heap page not resolved"
  done;
  ignore (System.checkpoint sys);
  System.drain_settle sys;
  for i = 0 to n - 1 do
    Kernel.touch_write k p ~vpn:(vpn0 + i)
  done;
  (p, vpn0)

(* ---- the lazy drain window: stage, step, settle ---- *)

let lazy_staging () =
  let sys = boot_async ~batch:2 () in
  ignore (make_hot_pages sys 5);
  let v0 = System.version sys in
  let r = System.checkpoint sys in
  check_int "version not bumped at the STW" v0 (System.version sys);
  check_int "backlog = dirty cached pages" 5 (System.drain_backlog sys);
  check_int "nothing stop-and-copied inside the pause" 0 r.Report.dram_dirty_copied;
  check_int "staged report has no drained pages yet" 0 r.Report.pages_drained;
  check_int "first step copies one batch" 2 (Manager.drain_step (System.manager sys));
  check_int "backlog shrinks by the batch" 3 (System.drain_backlog sys);
  check_int "still not committed" v0 (System.version sys);
  ignore (Manager.drain_step (System.manager sys));
  ignore (Manager.drain_step (System.manager sys));
  check_int "backlog empty" 0 (System.drain_backlog sys);
  check_int "settle committed exactly one version" (v0 + 1) (System.version sys);
  (match Manager.last_report (System.manager sys) with
  | Some r -> check_int "drained pages accounted at settle" 5 r.Report.pages_drained
  | None -> Alcotest.fail "no last report");
  check_int "further steps are no-ops" 0 (Manager.drain_step (System.manager sys));
  check_int "audit clean" 0 (Audit.errors (System.audit sys))

let cow_fault_resolution () =
  let sys = boot_async ~batch:1 () in
  let p, vpn0 = make_hot_pages sys 4 in
  let k = System.kernel sys in
  let v0 = System.version sys in
  ignore (System.checkpoint sys);
  check_int "staged" 4 (System.drain_backlog sys);
  (* write a still-backlogged page: the fault resolves its owed copy *)
  Kernel.touch_write k p ~vpn:(vpn0 + 3);
  check_int "fault took the entry off the backlog" 3 (System.drain_backlog sys);
  (* the page reopened for writing: a second write is free *)
  Kernel.touch_write k p ~vpn:(vpn0 + 3);
  check_int "second write does not fault" 3 (System.drain_backlog sys);
  System.drain_settle sys;
  check_int "committed" (v0 + 1) (System.version sys);
  (match Manager.last_report (System.manager sys) with
  | Some r ->
    check_int "cow fault counted" 1 r.Report.cow_faults;
    check_int "every staged page accounted" 4 r.Report.pages_drained
  | None -> Alcotest.fail "no last report");
  check_int "audit clean" 0 (Audit.errors (System.audit sys))

let mid_drain_crash () =
  let sys = boot_async ~batch:1 () in
  ignore (make_hot_pages sys 4);
  let v0 = System.version sys in
  ignore (System.checkpoint sys);
  ignore (Manager.drain_step (System.manager sys));
  check_bool "window still pending" true (System.drain_backlog sys > 0);
  ignore (System.crash_and_recover sys);
  check_int "rolled back to the committed version" v0 (System.version sys);
  check_int "drain state abandoned by restore" 0 (System.drain_backlog sys);
  check_bool "no pending window after restore" true
    (Manager.drain_pending_version (System.manager sys) = None);
  check_int "audit clean" 0 (Audit.errors (System.audit sys));
  (* liveness: staging and settling still work end to end *)
  ignore (make_hot_pages sys 2);
  ignore (System.checkpoint sys);
  System.drain_settle sys;
  check_int "audit clean after new work" 0 (Audit.errors (System.audit sys))

(* A cut inside the settle, after the version bump and before the
   bookkeeping is applied: recovery lands on the staged version N and
   rolls the settle forward from the surviving records.  Two cold NVM
   pages fault during the window: [x] was dirty at N, so its fault saved
   N's content to a fresh frame; [y] was clean at N, so its fault banked
   a pre-image that settle restamps to N. *)
let settle_cut_rolls_forward () =
  let sys = boot_async ~batch:1 () in
  let k = System.kernel sys in
  let psz = (Kernel.cost k).Treesls_sim.Cost.page_size in
  let cold = Kernel.create_process k ~name:"cold" ~threads:1 ~prio:5 in
  let vpn = Kernel.grow_heap k cold ~pages:2 in
  let vaddr i = ((vpn + i) * psz) + 64 in
  let write i s = Kernel.write_bytes (System.kernel sys) cold ~vaddr:(vaddr i) (Bytes.of_string s) in
  write 0 "x0";
  write 1 "y0";
  ignore (System.checkpoint sys);
  System.drain_settle sys;
  (* dirty cached pages keep N's window pending across the faults below *)
  ignore (make_hot_pages sys 2);
  write 0 "x1";
  let v_n = System.version sys + 1 in
  ignore (System.checkpoint sys);
  check_bool "window pending" true (System.drain_backlog sys > 0);
  write 0 "x2";
  write 1 "y2";
  let sites = Store.crash_sites (System.store sys) in
  Treesls_nvm.Crash_site.arm sites ~site:"ckpt.version_bump" ~nth:1;
  (match System.drain_settle sys with
  | () -> Alcotest.fail "armed settle did not crash"
  | exception Treesls_nvm.Warea.Crashed _ -> ());
  Treesls_nvm.Crash_site.reset sites;
  check_int "the bump landed" v_n (System.version sys);
  System.crash sys;
  ignore (System.recover sys);
  check_int "recovered to the staged version" v_n (System.version sys);
  check_bool "window forgotten" true (Manager.drain_pending_version (System.manager sys) = None);
  let cold = Option.get (Kernel.find_process (System.kernel sys) ~name:"cold") in
  let read i = Bytes.to_string (Kernel.read_bytes (System.kernel sys) cold ~vaddr:(vaddr i) ~len:2) in
  Alcotest.(check string) "saved frame installed" "x1" (read 0);
  Alcotest.(check string) "restamped backup used" "y0" (read 1);
  check_int "audit clean" 0 (Audit.errors (System.audit sys))

let whole_backlog_batch () =
  let sys = boot_async ~batch:max_int () in
  ignore (make_hot_pages sys 6);
  let v0 = System.version sys in
  ignore (System.checkpoint sys);
  check_int "staged all" 6 (System.drain_backlog sys);
  check_int "first step drains the whole backlog" 6
    (Manager.drain_step (System.manager sys));
  check_int "committed" (v0 + 1) (System.version sys);
  check_int "audit clean" 0 (Audit.errors (System.audit sys))

let sync_stop_and_copy () =
  let sys = System.boot () in
  ignore (make_hot_pages sys 3);
  let v0 = System.version sys in
  let r = System.checkpoint sys in
  check_int "no backlog with async_drain off" 0 (System.drain_backlog sys);
  check_int "committed at the STW" (v0 + 1) (System.version sys);
  check_int "pages stop-and-copied inside the pause" 3 r.Report.dram_dirty_copied;
  check_int "nothing drained" 0 r.Report.pages_drained

(* ---- the commit contract, shared by the eager commit and the settle ---- *)

(* One checkpoint of 5 dirty cached pages, committed inside the pause
   (eager) or at the settle after lazy drain steps; either way the
   callbacks run at the committed version, the published report is the
   one the commit probes saw, and its logical dirty bytes count every
   captured page exactly once. *)
let commit_contract ~async () =
  let sys = if async then boot_async ~batch:2 () else System.boot () in
  let mgr = System.manager sys in
  ignore (make_hot_pages sys 5);
  let metrics = Probe.metrics (System.obs sys) in
  let runs0 = Metrics.counter_value metrics "ckpt.runs" in
  let seen = ref [] in
  Manager.on_checkpoint mgr (fun () -> seen := System.version sys :: !seen);
  let v0 = System.version sys in
  let staged = System.checkpoint sys in
  check_int "staged version" (v0 + 1) staged.Report.version;
  check_int "commit probes only once committed"
    (if async then runs0 else runs0 + 1)
    (Metrics.counter_value metrics "ckpt.runs");
  while Manager.drain_step mgr > 0 do
    ()
  done;
  check_int "one version committed" (v0 + 1) (System.version sys);
  let r = Option.get (Manager.last_report mgr) in
  check_bool "callbacks ran once, at the committed version" true (!seen = [ r.Report.version ]);
  check_int "ckpt.runs rose once" (runs0 + 1) (Metrics.counter_value metrics "ckpt.runs");
  check_int "published version is the gauge's" r.Report.version
    (Metrics.gauge_value metrics "ckpt.version");
  check_int "published WAF is the gauge's"
    (100 * r.Report.nvm_bytes_written / max 1 r.Report.logical_dirty_bytes)
    (Metrics.gauge_value metrics "ckpt.nvm.waf");
  check_int "STW side unchanged by the publish" staged.Report.stw_ns r.Report.stw_ns;
  if not async then check_bool "eager: run returns the published report" true (staged = r);
  let psz = (Kernel.cost (System.kernel sys)).Treesls_sim.Cost.page_size in
  check_int "logical dirty bytes"
    (psz * (r.Report.pages_protected + r.Report.dram_dirty_copied + r.Report.pages_drained))
    r.Report.logical_dirty_bytes;
  check_int "each dirty cached page captured once" 5
    (r.Report.dram_dirty_copied + r.Report.pages_drained);
  check_int "copied in the pause or drained, not both" 0
    (min r.Report.dram_dirty_copied r.Report.pages_drained)

(* ---- restore equivalence under randomized traces + drain interleaving ---- *)

(* Whole-state fingerprint, as in test_incr: every reachable object's
   snapshot plus the byte contents of every normal-PMO page. *)
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
      | 0 | 1 | 2 -> Notify (Rng.int rng 1000)
      | 3 | 4 -> Wait (Rng.int rng 1000)
      | 5 | 6 | 7 | 8 -> Touch (Rng.int rng 1000)
      | 9 | 10 -> Write (Rng.int rng 1000)
      | 11 -> Spawn
      | 12 -> Exit (Rng.int rng 1000)
      | 13 -> Grow
      | _ -> Ckpt)

(* Replay [ops] on [sys].  [drain_gap] interleaves drain steps with app
   work: one drain step every [drain_gap] ops (0 = never mid-trace, so
   the whole backlog resolves via CoW faults and the final settle) — a
   no-op on eager systems either way.  Ends with a checkpoint plus a
   forced settle so both twins commit the same final state. *)
let apply sys ~drain_gap ops =
  let k () = System.kernel sys in
  let base = Kernel.create_process (k ()) ~name:"driver" ~threads:1 ~prio:5 in
  let heap0 = Kernel.grow_heap (k ()) base ~pages:4 in
  let heap_pages = 4 in
  let psz = (Kernel.cost (k ())).Treesls_sim.Cost.page_size in
  let notifs = ref [| Kernel.create_notification (k ()) base |] in
  let procs = ref [] in
  let spawned = ref 0 in
  List.iteri
    (fun idx op ->
      (match op with
      | Notify i -> Ipc.notify (k ()) !notifs.(i mod Array.length !notifs)
      | Wait i ->
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
          let j = i mod List.length ps in
          Kernel.exit_process (k ()) (List.nth ps j);
          procs := List.filteri (fun l _ -> l <> j) ps)
      | Grow ->
        let v = Kernel.grow_heap (k ()) base ~pages:2 in
        Kernel.touch_write (k ()) base ~vpn:v
      | Ckpt -> ignore (System.checkpoint sys));
      if drain_gap > 0 && (idx + 1) mod drain_gap = 0 then System.drain_tick sys)
    ops;
  ignore (System.checkpoint sys);
  System.drain_settle sys

let prop_async_restore_equivalence =
  QCheck.Test.make
    ~name:"async-drain restore = eager restore (random traces, audit clean)" ~count:6
    QCheck.(pair (int_bound 10_000) (pair (int_range 60 160) (int_bound 5)))
    (fun (seed, (nops, drain_gap)) ->
      let trace = gen_trace (Rng.create (Int64.of_int seed)) nops in
      let run async =
        let f = State.default_features () in
        f.State.async_drain <- async;
        let sys =
          System.boot ~features:f
            ~active_cfg:{ Active_list.default_config with Active_list.hot_threshold = 1 }
            ()
        in
        if async then Manager.set_drain_batch (System.manager sys) 1;
        apply sys ~drain_gap trace;
        ignore (System.crash_and_recover sys);
        sys
      in
      let sys_e = run false in
      let sys_a = run true in
      System.version sys_e = System.version sys_a
      && fingerprint sys_e = fingerprint sys_a
      && Audit.errors (System.audit sys_e) = 0
      && Audit.errors (System.audit sys_a) = 0)

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_async_restore_equivalence ]

let () =
  Alcotest.run "drain"
    [
      ( "window",
        [
          Alcotest.test_case "lazy stage/step/settle" `Quick lazy_staging;
          Alcotest.test_case "cow fault resolves a backlogged page" `Quick cow_fault_resolution;
          Alcotest.test_case "mid-drain crash restores cleanly" `Quick mid_drain_crash;
          Alcotest.test_case "settle cut after the bump rolls forward" `Quick
            settle_cut_rolls_forward;
          Alcotest.test_case "max_int batch drains in one step" `Quick whole_backlog_batch;
          Alcotest.test_case "async_drain off copies inside the pause" `Quick
            sync_stop_and_copy;
        ] );
      ( "commit",
        [
          Alcotest.test_case "eager commit contract" `Quick (commit_contract ~async:false);
          Alcotest.test_case "lazy-settle commit contract" `Quick (commit_contract ~async:true);
        ] );
      ("properties", qsuite);
    ]
