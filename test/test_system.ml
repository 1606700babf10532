(* Whole-system integration tests: the paper's §7.2 functional claim, made
   precise — after any crash, the system state equals the state at the
   last committed checkpoint, exactly. Includes crash injection inside
   allocator operations (torn journal records) and model-based random
   testing against a shadow map. *)

module System = Treesls.System
module Kernel = Treesls_kernel.Kernel
module Manager = Treesls_ckpt.Manager
module State = Treesls_ckpt.State
module Report = Treesls_ckpt.Report
module Active_list = Treesls_ckpt.Active_list
module Warea = Treesls_nvm.Warea
module Store = Treesls_nvm.Store
module Kv_app = Treesls_apps.Kv_app
module Kvstore = Treesls_apps.Kvstore
module Rng = Treesls_util.Rng
module Crash_site = Treesls_nvm.Crash_site
module Probe = Treesls_obs.Probe
module Metrics = Treesls_obs.Metrics
module Wearmap = Treesls_obs.Wearmap

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- exact rollback: state equals last committed checkpoint ---- *)

let exact_rollback () =
  let sys = System.boot () in
  let app = Kv_app.launch ~keys_hint:2_000 sys Kv_app.Memcached in
  (* committed state: keys 0..49 *)
  for i = 0 to 49 do
    Kv_app.set_i app i
  done;
  ignore (System.checkpoint sys);
  (* uncommitted: keys 50..79 and overwrites of 0..9 *)
  for i = 50 to 79 do
    Kv_app.set_i app i
  done;
  for i = 0 to 9 do
    Kv_app.set app ~key:(Printf.sprintf "key%08d" i) ~value:"OVERWRITTEN"
  done;
  let _ = System.crash_and_recover sys in
  Kv_app.refresh app;
  for i = 0 to 49 do
    check_bool (Printf.sprintf "key %d present" i) true (Kv_app.get_i app i <> None)
  done;
  for i = 50 to 79 do
    check_bool (Printf.sprintf "key %d rolled back" i) true (Kv_app.get_i app i = None)
  done;
  (* overwrites undone *)
  for i = 0 to 9 do
    check_bool "original value restored" true
      (Kv_app.get app ~key:(Printf.sprintf "key%08d" i) <> Some "OVERWRITTEN")
  done;
  check_int "count exact" 50 (Kvstore.count (Kv_app.kv app))

(* ---- work between checkpoints is bounded by the interval ---- *)

let loses_at_most_one_interval () =
  let sys = System.boot ~interval_us:1000 () in
  let app = Kv_app.launch ~keys_hint:20_000 sys Kv_app.Memcached in
  let committed = ref 0 in
  Manager.on_checkpoint (System.manager sys) (fun () -> ());
  let last_committed_i = ref 0 in
  let i = ref 0 in
  (* run with periodic checkpoints; remember op index at each commit *)
  while System.version sys < 6 do
    incr i;
    Kv_app.set_i app !i;
    (match System.tick sys with
    | Some _ ->
      last_committed_i := !i;
      committed := System.version sys
    | None -> ())
  done;
  let _ = System.crash_and_recover sys in
  Kv_app.refresh app;
  (* everything up to the last commit is present *)
  for j = 1 to !last_committed_i do
    check_bool "committed op present" true (Kv_app.get_i app j <> None)
  done;
  (* nothing after the crash-time op count can exist *)
  check_bool "nothing from the future" true (Kv_app.get_i app (!i + 1) = None)

(* ---- exited process reappears when rolling back past its exit ---- *)

let exit_rolled_back () =
  let sys = System.boot () in
  let k = System.kernel sys in
  let p = Kernel.create_process k ~name:"phoenix-proc" ~threads:1 ~prio:5 in
  ignore (System.checkpoint sys);
  Kernel.exit_process k p;
  check_bool "gone before crash" true (Kernel.find_process k ~name:"phoenix-proc" = None);
  let _ = System.crash_and_recover sys in
  let k = System.kernel sys in
  check_bool "resurrected by rollback" true (Kernel.find_process k ~name:"phoenix-proc" <> None)

(* ---- exited process stays gone once the exit is checkpointed ---- *)

let exit_committed () =
  let sys = System.boot () in
  let k = System.kernel sys in
  let p = Kernel.create_process k ~name:"really-gone" ~threads:1 ~prio:5 in
  ignore (System.checkpoint sys);
  Kernel.exit_process k p;
  ignore (System.checkpoint sys);
  let _ = System.crash_and_recover sys in
  let k = System.kernel sys in
  check_bool "stays gone" true (Kernel.find_process k ~name:"really-gone" = None)

(* ---- fresh pages read zero, whoever owned the frame before ---- *)

let page_size k = (Kernel.cost k).Treesls_sim.Cost.page_size

let fill_heap k proc ~pages c =
  let vpn = Kernel.grow_heap k proc ~pages in
  for i = 0 to pages - 1 do
    Kernel.write_bytes k proc ~vaddr:((vpn + i) * page_size k) (Bytes.make (page_size k) c)
  done

(* pages of a new [pages]-page heap region that do not read all zero *)
let stale_fresh_pages k proc ~pages =
  let vpn = Kernel.grow_heap k proc ~pages in
  List.init pages (fun i ->
      Kernel.read_bytes k proc ~vaddr:((vpn + i) * page_size k) ~len:(page_size k))
  |> List.filter (Bytes.exists (fun c -> c <> '\000'))
  |> List.length

(* frames written after the last commit are freed by the restore *)
let fresh_pages_zero_after_crash () =
  let sys = System.boot () in
  let k = System.kernel sys in
  let a = Kernel.create_process k ~name:"a" ~threads:1 ~prio:5 in
  ignore (System.checkpoint sys);
  fill_heap k a ~pages:8 'X';
  ignore (System.crash_and_recover sys);
  let k = System.kernel sys in
  let b = Kernel.create_process k ~name:"b" ~threads:1 ~prio:5 in
  check_int "fresh pages read zero" 0 (stale_fresh_pages k b ~pages:8)

(* an exited process's frames are freed by the checkpoints after its exit *)
let fresh_pages_zero_after_exit () =
  let sys = System.boot () in
  let k = System.kernel sys in
  let a = Kernel.create_process k ~name:"a" ~threads:1 ~prio:5 in
  fill_heap k a ~pages:32 'X';
  ignore (System.checkpoint sys);
  Kernel.exit_process k a;
  ignore (System.checkpoint sys);
  ignore (System.checkpoint sys);
  let b = Kernel.create_process k ~name:"b" ~threads:1 ~prio:5 in
  check_int "fresh pages read zero" 0 (stale_fresh_pages k b ~pages:32)

(* ---- crash injected inside an allocator operation ---- *)

let crash_in_allocator phase () =
  let sys = System.boot () in
  let app = Kv_app.launch ~keys_hint:2_000 sys Kv_app.Memcached in
  for i = 0 to 19 do
    Kv_app.set_i app i
  done;
  ignore (System.checkpoint sys);
  (* arm a torn journal record: the next page allocation crashes *)
  Warea.set_crash_plan (Store.warea (System.store sys)) (Some phase);
  (try
     for i = 20 to 2_000 do
       Kv_app.set_i app i
     done;
     Alcotest.fail "expected a crash"
   with Warea.Crashed _ -> ());
  System.crash sys;
  let _ = System.recover sys in
  Kv_app.refresh app;
  for i = 0 to 19 do
    check_bool "committed keys survive torn journal" true (Kv_app.get_i app i <> None)
  done;
  check_int "exactly the committed state" 20 (Kvstore.count (Kv_app.kv app));
  (* the system keeps working *)
  Kv_app.set_i app 99;
  ignore (System.checkpoint sys);
  check_bool "alive after recovery" true (Kv_app.get_i app 99 <> None)

(* ---- shared memory between processes ---- *)

let shared_pmo_cow () =
  let sys = System.boot () in
  let k = System.kernel sys in
  let a = Kernel.create_process k ~name:"sharer-a" ~threads:1 ~prio:5 in
  let b = Kernel.create_process k ~name:"sharer-b" ~threads:1 ~prio:5 in
  let pmo =
    Treesls_cap.Kobj.make_pmo
      ~id:(Treesls_cap.Id_gen.next (Kernel.ids k))
      ~pages:2 ~kind:Treesls_cap.Kobj.Pmo_normal
  in
  let va = Kernel.map_shared k a pmo ~writable:true in
  let vb = Kernel.map_shared k b pmo ~writable:true in
  let psz = (Kernel.cost k).Treesls_sim.Cost.page_size in
  (* writes through either mapping are visible through the other *)
  Kernel.write_bytes k a ~vaddr:(va * psz) (Bytes.of_string "from-a");
  Alcotest.(check string) "b sees a's write" "from-a"
    (Bytes.to_string (Kernel.read_bytes k b ~vaddr:(vb * psz) ~len:6));
  ignore (System.checkpoint sys);
  (* both processes fault-and-write the same page in one interval: only
     one CoW backup is taken (the ORoot dedup), and the content is safe *)
  Kernel.write_bytes k a ~vaddr:(va * psz) (Bytes.of_string "AAAAAA");
  Kernel.write_bytes k b ~vaddr:(vb * psz) (Bytes.of_string "BBBBBB");
  let _ = System.crash_and_recover sys in
  let k = System.kernel sys in
  let a = Option.get (Kernel.find_process k ~name:"sharer-a") in
  let b = Option.get (Kernel.find_process k ~name:"sharer-b") in
  Alcotest.(check string) "rolled back (via a)" "from-a"
    (Bytes.to_string (Kernel.read_bytes k a ~vaddr:(va * psz) ~len:6));
  Alcotest.(check string) "rolled back (via b)" "from-a"
    (Bytes.to_string (Kernel.read_bytes k b ~vaddr:(vb * psz) ~len:6));
  (* still shared after recovery *)
  Kernel.write_bytes k b ~vaddr:(vb * psz) (Bytes.of_string "post-x");
  Alcotest.(check string) "still shared" "post-x"
    (Bytes.to_string (Kernel.read_bytes k a ~vaddr:(va * psz) ~len:6))

(* ---- ping-pong (paper 7.2's second functional program) ---- *)

let ping_pong () =
  let sys = System.boot ~interval_us:1000 () in
  let k = System.kernel sys in
  let ping = Kernel.create_process k ~name:"ping" ~threads:1 ~prio:5 in
  let pong = Kernel.create_process k ~name:"pong" ~threads:1 ~prio:5 in
  let conn = Treesls_kernel.Ipc.create_conn k ~client:ping ~server:pong in
  let register () =
    Treesls_kernel.Ipc.register_handler (System.kernel sys) conn (fun b ->
        Bytes.of_string ("pong:" ^ Bytes.to_string b))
  in
  register ();
  for i = 1 to 500 do
    let reply =
      Treesls_kernel.Ipc.call (System.kernel sys) conn (Bytes.of_string (string_of_int i))
    in
    Alcotest.(check string) "reply" ("pong:" ^ string_of_int i) (Bytes.to_string reply);
    ignore (System.tick sys)
  done;
  let calls_before = conn.Treesls_cap.Kobj.ic_calls in
  ignore (System.checkpoint sys);
  let _ = System.crash_and_recover sys in
  register ();
  (* the connection's served-call counter is part of the checkpointed
     state and survived *)
  check_int "call count restored" calls_before conn.Treesls_cap.Kobj.ic_calls |> ignore;
  (* note: [conn] still points at the pre-crash object; re-find it *)
  let k = System.kernel sys in
  let ping = Option.get (Kernel.find_process k ~name:"ping") in
  let restored = ref None in
  Treesls_cap.Kobj.iter_caps
    (fun _ c ->
      match c.Treesls_cap.Kobj.target with
      | Treesls_cap.Kobj.Ipc_conn ic -> restored := Some ic
      | _ -> ())
    ping.Kernel.cg;
  match !restored with
  | Some ic ->
    check_int "restored counter" calls_before ic.Treesls_cap.Kobj.ic_calls;
    Treesls_kernel.Ipc.register_handler k ic (fun b -> b);
    let echo = Treesls_kernel.Ipc.call k ic (Bytes.of_string "again") in
    Alcotest.(check string) "ipc works after recovery" "again" (Bytes.to_string echo)
  | None -> Alcotest.fail "connection lost"

(* ---- model-based random crash testing ---- *)

let prop_crash_equals_committed_model =
  QCheck.Test.make ~name:"system: post-recovery state = committed model" ~count:12
    QCheck.(pair (int_bound 1000) (int_range 20 150))
    (fun (seed, crash_after) ->
      let sys = System.boot ~interval_us:500 () in
      let app = Kv_app.launch ~keys_hint:2_000 sys Kv_app.Memcached in
      let rng = Rng.create (Int64.of_int seed) in
      let model : (string, string) Hashtbl.t = Hashtbl.create 64 in
      let committed = ref (Hashtbl.copy model) in
      Manager.on_checkpoint (System.manager sys) (fun () -> committed := Hashtbl.copy model);
      (* random ops until the crash point *)
      for _ = 1 to crash_after do
        let key = Printf.sprintf "k%03d" (Rng.int rng 200) in
        (match Rng.int rng 3 with
        | 0 | 1 ->
          let value = Printf.sprintf "v%d" (Rng.int rng 100000) in
          Kv_app.set app ~key ~value;
          Hashtbl.replace model key value
        | _ ->
          ignore (Kv_app.del app ~key);
          Hashtbl.remove model key);
        ignore (System.tick sys)
      done;
      if System.version sys = 0 then ignore (System.checkpoint sys);
      System.crash sys;
      ignore (System.recover sys);
      Kv_app.refresh app;
      (* every key in the committed model is present with the right value;
         no key outside it exists *)
      Hashtbl.fold
        (fun key value acc -> acc && Kv_app.get app ~key = Some value)
        !committed true
      && Kvstore.count (Kv_app.kv app) = Hashtbl.length !committed)

let prop_repeated_crashes =
  QCheck.Test.make ~name:"system: repeated crash/recover cycles stay consistent" ~count:6
    (QCheck.int_bound 1000)
    (fun seed ->
      let sys = System.boot ~interval_us:500 () in
      let app = Kv_app.launch ~keys_hint:2_000 sys Kv_app.Memcached in
      let rng = Rng.create (Int64.of_int seed) in
      let model = Hashtbl.create 64 in
      let committed = ref (Hashtbl.copy model) in
      Manager.on_checkpoint (System.manager sys) (fun () -> committed := Hashtbl.copy model);
      let ok = ref true in
      for _round = 1 to 4 do
        for _ = 1 to 30 + Rng.int rng 50 do
          let key = Printf.sprintf "k%03d" (Rng.int rng 100) in
          let value = Printf.sprintf "v%d" (Rng.int rng 1000) in
          Kv_app.set app ~key ~value;
          Hashtbl.replace model key value;
          ignore (System.tick sys)
        done;
        if System.version sys = 0 then ignore (System.checkpoint sys);
        System.crash sys;
        ignore (System.recover sys);
        Kv_app.refresh app;
        (* resync the model to the recovered (committed) state *)
        Hashtbl.reset model;
        Hashtbl.iter (Hashtbl.replace model) !committed;
        Manager.on_checkpoint (System.manager sys) (fun () -> committed := Hashtbl.copy model);
        Hashtbl.iter (fun k v -> if Kv_app.get app ~key:k <> Some v then ok := false) !committed
      done;
      !ok)

(* ---- the virtual-time driver ---- *)

(* A deadline fires at the deadline itself, so the clock ends one pause
   past it. *)
let deadline_fires_on_time () =
  let sys = System.boot ~interval_us:1000 () in
  let d = System.now_ns sys + 1_000_000 in
  match System.advance_to sys d with
  | [ r ] -> check_int "clock = deadline + pause" (d + r.Report.stw_ns) (System.now_ns sys)
  | l -> Alcotest.failf "expected one report, got %d" (List.length l)

let advance_to_now_is_a_noop () =
  let sys = System.boot ~interval_us:1000 () in
  let now = System.now_ns sys in
  check_int "no reports" 0 (List.length (System.advance_to sys now));
  check_int "clock unmoved" now (System.now_ns sys)

let fires_every_deadline_in_order () =
  let sys = System.boot ~interval_us:1000 () in
  let target = System.now_ns sys + 3_500_000 in
  let reports = System.advance_to sys target in
  let v = List.map (fun (r : Report.t) -> r.Report.version) reports in
  check_int "three deadlines in 3.5 ms" 3 (List.length reports);
  check_bool "oldest first" true (List.sort_uniq compare v = v);
  check_int "ends at the target" target (System.now_ns sys)

(* Idle time takes no drain step: a staged backlog waits for the next op
   boundary, or for the next deadline's checkpoint, which settles it. *)
let idle_takes_no_drain_step () =
  let f = State.default_features () in
  f.State.async_drain <- true;
  let sys =
    System.boot ~features:f
      ~active_cfg:{ Active_list.default_config with Active_list.hot_threshold = 1 }
      ()
  in
  let k = System.kernel sys in
  let p = Kernel.create_process k ~name:"hot" ~threads:1 ~prio:5 in
  let n = 16 in
  let vpn0 = Kernel.grow_heap k p ~pages:n in
  let dirty () =
    for i = 0 to n - 1 do
      Kernel.touch_write k p ~vpn:(vpn0 + i)
    done
  in
  (* first write; CoW fault (hot at one fault, so the capture migrates
     the page into the DRAM cache); re-dirty in the cache, so the last
     capture stages one copy per page *)
  for round = 1 to 3 do
    dirty ();
    ignore (System.checkpoint sys);
    if round < 3 then System.drain_settle sys
  done;
  let backlog = System.drain_backlog sys and v0 = System.version sys in
  check_int "staged backlog" n backlog;
  System.set_interval_us sys (Some 1000);
  let target = System.now_ns sys + 500_000 in
  check_int "no deadline before the target" 0 (List.length (System.advance_to sys target));
  check_int "backlog untouched while idle" backlog (System.drain_backlog sys);
  check_int "still staged" v0 (System.version sys);
  check_int "ends at the target" target (System.now_ns sys);
  check_int "the deadline's checkpoint fires" 1
    (List.length (System.advance_to sys (target + 1_000_000)));
  check_int "and settles the backlog" 0 (System.drain_backlog sys);
  check_int "both versions committed" (v0 + 2) (System.version sys)

(* With checkpointing Off an interval arms no deadline: [Manager.tick]
   never fires or re-arms one, so a driver waiting on it would spin. *)
let off_level_does_not_hang () =
  let sys =
    System.boot ~interval_us:1000 ~features:{ (State.default_features ()) with level = State.Off } ()
  in
  let target = System.now_ns sys + 5_000_000 in
  check_int "no reports" 0 (List.length (System.advance_to sys target));
  check_int "ends at the target" target (System.now_ns sys)

(* ---- two systems in one process share no state ---- *)

(* Each system's probe, crash-site table and wear writer stack belong to
   its store, so booting, checkpointing, arming or scoping one system
   leaves every other system's observability and crash injection alone. *)
let two_systems_share_nothing () =
  let a = System.boot () in
  let wear s = Wearmap.total_bytes (System.wearmap s) in
  let runs s = Metrics.counter_value (Probe.metrics (System.obs s)) "ckpt.runs" in
  let a_snap = System.metrics_snapshot a and a_wear = wear a in
  check_bool "A's boot is charged to A" true (a_wear > 0);
  let b = System.boot () in
  check_bool "B's boot leaves A's metrics unchanged" true (System.metrics_snapshot a = a_snap);
  check_int "B's boot leaves A's wear unchanged" a_wear (wear a);
  check_int "B's boot is charged to B" a_wear (wear b);
  ignore (System.checkpoint a);
  check_int "A counts its own checkpoint" 1 (runs a);
  check_int "B does not count A's checkpoint" 0 (runs b);
  ignore (System.checkpoint b);
  (* a site armed on B's store stays quiet through A's checkpoint, then
     fires in B's *)
  Crash_site.arm (Store.crash_sites (System.store b)) ~site:"ckpt.begin" ~nth:1;
  ignore (System.checkpoint a);
  check_int "A checkpoints past B's armed site" 2 (runs a);
  check_bool "B's armed site fires in B's checkpoint" true
    (match System.checkpoint b with _ -> false | exception Warea.Crashed _ -> true);
  ignore (System.crash_and_recover b);
  (* a writer scope opened on A's wearmap does not attribute B's writes *)
  let kb = System.kernel b in
  let p = Kernel.create_process kb ~name:"writer" ~threads:1 ~prio:5 in
  let vpn = Kernel.grow_heap kb p ~pages:1 in
  let app_b = Wearmap.subsystem_bytes (System.wearmap b) "app" in
  Wearmap.with_writer (System.wearmap a) "scope.a" (fun () -> Kernel.touch_write kb p ~vpn);
  check_int "A's scope attributes none of B's writes" 0
    (Wearmap.subsystem_bytes (System.wearmap b) "scope.a");
  check_bool "B's write lands under B's own default writer" true
    (Wearmap.subsystem_bytes (System.wearmap b) "app" > app_b);
  check_int "A's scope records nothing in A" 0
    (Wearmap.subsystem_bytes (System.wearmap a) "scope.a")

let qsuite =
  List.map QCheck_alcotest.to_alcotest [ prop_crash_equals_committed_model; prop_repeated_crashes ]

let () =
  Alcotest.run "system"
    [
      ( "rollback",
        [
          Alcotest.test_case "exact rollback" `Quick exact_rollback;
          Alcotest.test_case "loses at most one interval" `Quick loses_at_most_one_interval;
          Alcotest.test_case "exit rolled back" `Quick exit_rolled_back;
          Alcotest.test_case "exit committed stays" `Quick exit_committed;
          Alcotest.test_case "shared PMO copy-on-write" `Quick shared_pmo_cow;
          Alcotest.test_case "ping-pong across crash" `Quick ping_pong;
        ] );
      ( "fresh-pages",
        [
          Alcotest.test_case "zero after a crash" `Quick fresh_pages_zero_after_crash;
          Alcotest.test_case "zero after an exit" `Quick fresh_pages_zero_after_exit;
        ] );
      ( "torn-journal",
        [
          Alcotest.test_case "crash before-log" `Quick (crash_in_allocator Warea.Before_log);
          Alcotest.test_case "crash after-log" `Quick (crash_in_allocator Warea.After_log);
          Alcotest.test_case "crash mid-apply" `Quick (crash_in_allocator Warea.Mid_apply);
          Alcotest.test_case "crash after-apply" `Quick (crash_in_allocator Warea.After_apply);
        ] );
      ( "driver",
        [
          Alcotest.test_case "deadline fires on time" `Quick deadline_fires_on_time;
          Alcotest.test_case "advance to now is a no-op" `Quick advance_to_now_is_a_noop;
          Alcotest.test_case "fires every deadline in order" `Quick fires_every_deadline_in_order;
          Alcotest.test_case "idle takes no drain step" `Quick idle_takes_no_drain_step;
          Alcotest.test_case "Off-level interval does not hang" `Quick off_level_does_not_hang;
        ] );
      ("properties", qsuite);
      ( "isolation",
        [ Alcotest.test_case "two systems share nothing" `Quick two_systems_share_nothing ] );
    ]
