(* Tests for the multi-tenant serving layer (lib/serve) and the
   cross-tenant crash bugs it flushed out: ring reattach by persisted name
   (never by creation order), the persistent delivered count, and
   per-subtree STW attribution staying exact under tenant churn. *)

module System = Treesls.System
module Kernel = Treesls_kernel.Kernel
module Ipc = Treesls_kernel.Ipc
module Report = Treesls_ckpt.Report
module Net_server = Treesls_extsync.Net_server
module Kv_app = Treesls_apps.Kv_app
module Launchpad = Treesls_apps.Launchpad
module Tenant = Treesls_serve.Tenant
module Serve = Treesls_serve.Serve
module Rtrace = Treesls_obs.Rtrace
module Probe = Treesls_obs.Probe
module Ycsb = Treesls_workloads.Ycsb

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

exception Crash_mid_delivery

(* ---- the two-tenant reattach regression (ISSUE 10 satellite 1) ---- *)

(* Two tenants with equal-sized rings; tenant A crashes mid-delivery so a
   published reply stays parked on its ring, and the recovery reattaches
   B FIRST.  The old name-blind claim handed B the first equal-sized
   eternal PMO — A's ring, and with it A's parked backlog and delivered
   count.  Name-based claiming must give each tenant exactly its own
   backlog, in any reattach order. *)
let two_tenant_reattach_own_backlog () =
  let sys = System.boot () in
  let k = System.kernel sys in
  let proc_a = Launchpad.make_proc sys ~name:"srv-a" ~threads:1 ~ipcs:1 ~notifs:1 ~extra_pmos:1 in
  let proc_b = Launchpad.make_proc sys ~name:"srv-b" ~threads:1 ~ipcs:1 ~notifs:1 ~extra_pmos:1 in
  let a_msgs = ref [] and b_msgs = ref [] in
  let a_fail = ref false in
  let deliver_a ~client:_ ~sent_ns:_ ~payload =
    a_msgs := Bytes.to_string payload :: !a_msgs;
    if !a_fail && List.length !a_msgs = 3 then raise Crash_mid_delivery
  in
  let deliver_b ~client:_ ~sent_ns:_ ~payload =
    b_msgs := Bytes.to_string payload :: !b_msgs
  in
  let mgr = System.manager sys in
  let net_a = Net_server.create ~slots:8 ~slot_size:32 ~name:"netsrv.a" k mgr ~proc:proc_a ~deliver:deliver_a in
  let net_b = Net_server.create ~slots:8 ~slot_size:32 ~name:"netsrv.b" k mgr ~proc:proc_b ~deliver:deliver_b in
  (* round 1: clean commit *)
  ignore (Net_server.send net_a ~client:0 (Bytes.of_string "a1"));
  ignore (Net_server.send net_a ~client:0 (Bytes.of_string "a2"));
  ignore (Net_server.send net_b ~client:0 (Bytes.of_string "b1"));
  ignore (System.checkpoint sys);
  check_int "A delivered 2" 2 (Net_server.delivered net_a);
  check_int "B delivered 1" 1 (Net_server.delivered net_b);
  (* round 2: A's delivery dies after "a3", so "a4" stays published but
     undrained on A's ring and B's callback never runs ("b2" unpublished) *)
  ignore (Net_server.send net_a ~client:0 (Bytes.of_string "a3"));
  ignore (Net_server.send net_a ~client:0 (Bytes.of_string "a4"));
  ignore (Net_server.send net_b ~client:0 (Bytes.of_string "b2"));
  a_fail := false;
  a_fail := true;
  (match System.checkpoint sys with
  | _ -> Alcotest.fail "checkpoint should have died mid-delivery"
  | exception Crash_mid_delivery -> ());
  System.crash sys;
  let _ = System.recover sys in
  let k = System.kernel sys in
  let mgr = System.manager sys in
  let proc_a = Launchpad.find_proc sys ~name:"srv-a" in
  let proc_b = Launchpad.find_proc sys ~name:"srv-b" in
  a_fail := false;
  (* reattach in REVERSE creation order: B must still get B's ring *)
  let net_b2 = Net_server.reattach ~slots:8 ~slot_size:32 ~name:"netsrv.b" k mgr ~proc:proc_b ~deliver:deliver_b in
  let net_a2 = Net_server.reattach ~slots:8 ~slot_size:32 ~name:"netsrv.a" k mgr ~proc:proc_a ~deliver:deliver_a in
  (* B: "b2" was never published -> discarded; nothing new delivered *)
  check_int "B delivered count persisted" 1 (Net_server.delivered net_b2);
  Alcotest.(check (list string)) "B drained only its own backlog" [ "b1" ] (List.rev !b_msgs);
  (* A: the parked "a4" is still owed; delivered count carries across *)
  check_int "A delivered count caught up" 4 (Net_server.delivered net_a2);
  Alcotest.(check (list string))
    "A drained only its own backlog" [ "a1"; "a2"; "a3"; "a4" ] (List.rev !a_msgs)

(* ---- delivered count persistence (ISSUE 10 satellite 3) ---- *)

let delivered_count_survives_crash () =
  let sys = System.boot () in
  let k = System.kernel sys in
  let proc = Option.get (Kernel.find_process k ~name:"netdrv") in
  let count = ref 0 in
  let deliver ~client:_ ~sent_ns:_ ~payload:_ = incr count in
  let net = Net_server.create ~slots:8 ~slot_size:32 k (System.manager sys) ~proc ~deliver in
  for i = 1 to 5 do
    ignore (Net_server.send net ~client:i (Bytes.of_string "m"))
  done;
  ignore (System.checkpoint sys);
  check_int "delivered before crash" 5 (Net_server.delivered net);
  let _ = System.crash_and_recover sys in
  let k = System.kernel sys in
  let proc = Option.get (Kernel.find_process k ~name:"netdrv") in
  let net2 = Net_server.reattach ~slots:8 ~slot_size:32 k (System.manager sys) ~proc ~deliver in
  (* the regression: reattach used to reset this to 0 *)
  check_int "delivered survives restore" 5 (Net_server.delivered net2);
  ignore (Net_server.send net2 ~client:9 (Bytes.of_string "m"));
  ignore (System.checkpoint sys);
  check_int "and keeps counting monotonically" 6 (Net_server.delivered net2)

(* ---- Zipfian domain growth through the tenant mix ---- *)

let mix_draws_inserted_keys () =
  let rng = Treesls_util.Rng.create 11L in
  let gen =
    Ycsb.create (Ycsb.Mix { read = 0.45; update = 0.3; insert = 0.25 }) ~keys:2 rng
  in
  let saw_new = ref false in
  for _ = 1 to 2_000 do
    match Ycsb.next gen with
    | Ycsb.Read k | Ycsb.Update k -> if k >= 2 then saw_new := true
    | Ycsb.Insert _ -> ()
  done;
  check_bool "key space grew" true (Ycsb.key_count gen > 2);
  (* the frozen-domain bug: reads/updates could never land on a key
     inserted after create *)
  check_bool "a post-insert key was drawn" true !saw_new

(* ---- per_group attribution under tenant churn (ISSUE 10 satellite 4) ---- *)

let group_sum r =
  List.fold_left (fun acc (_, g) -> acc + g.Report.g_ns) 0 r.Report.per_group

let assert_groups_live_and_exact sys (r : Report.t) =
  let live = List.map (fun p -> p.Kernel.pname) (Kernel.processes (System.kernel sys)) in
  List.iter
    (fun (g, _) ->
      check_bool (Printf.sprintf "group %S is a live process or kernel" g) true
        (g = "kernel" || List.mem g live))
    r.Report.per_group;
  check_bool "no unattributed group" true (not (List.mem_assoc "unattributed" r.Report.per_group));
  check_int "per-group sum = captree" r.Report.captree_ns (group_sum r)

let per_group_churn () =
  let sys = System.boot () in
  ignore (System.checkpoint sys);
  (* create tenant -> checkpoint: its subtree must appear *)
  let apps =
    List.init 4 (fun i ->
        let app = Kv_app.launch ~keys_hint:64 ~value_size:32 ~instance:(Printf.sprintf "c%d" i) sys Kv_app.Shard in
        for j = 0 to 15 do
          Kv_app.set_i app j
        done;
        app)
  in
  let r1 = System.checkpoint sys in
  List.iter
    (fun app ->
      check_bool (Kv_app.server_name app ^ " attributed") true
        (List.mem_assoc (Kv_app.server_name app) r1.Report.per_group))
    apps;
  assert_groups_live_and_exact sys r1;
  (* destroy half the tenants -> checkpoint: their groups must vanish
     (exits revoke root slots, which retires the live-tree cache and its
     owner map) *)
  let doomed, kept = (List.filteri (fun i _ -> i < 2) apps, List.filteri (fun i _ -> i >= 2) apps) in
  let k = System.kernel sys in
  List.iter
    (fun app ->
      Kernel.exit_process k (Kv_app.server app);
      Kernel.exit_process k (Kv_app.client app))
    doomed;
  List.iter (fun app -> Kv_app.set_i app 1) kept;
  let r2 = System.checkpoint sys in
  List.iter
    (fun app ->
      check_bool (Kv_app.server_name app ^ " no stale group") false
        (List.mem_assoc (Kv_app.server_name app) r2.Report.per_group))
    doomed;
  List.iter
    (fun app ->
      check_bool (Kv_app.server_name app ^ " still attributed") true
        (List.mem_assoc (Kv_app.server_name app) r2.Report.per_group))
    kept;
  assert_groups_live_and_exact sys r2

(* A shared object whose first owner exits must be re-attributed to the
   surviving owner, not to the dead name lingering in a stale cache. *)
let per_group_shared_object_reattributed () =
  let sys = System.boot () in
  let k = System.kernel sys in
  let doomed = Kernel.create_process k ~name:"churn.doomed" ~threads:1 ~prio:1 in
  let keeper = Kernel.create_process k ~name:"churn.keeper" ~threads:1 ~prio:1 in
  let conn = Ipc.create_conn k ~client:doomed ~server:keeper in
  Ipc.register_handler k conn (fun _ -> Bytes.of_string "+");
  ignore (Ipc.call k conn (Bytes.of_string "x"));
  let r1 = System.checkpoint sys in
  check_bool "conn first attributed to its creator" true
    (List.mem_assoc "churn.doomed" r1.Report.per_group);
  Kernel.exit_process k doomed;
  ignore (Ipc.call k conn (Bytes.of_string "y"));
  let r2 = System.checkpoint sys in
  check_bool "dead owner no longer charged" false
    (List.mem_assoc "churn.doomed" r2.Report.per_group);
  check_bool "surviving owner charged instead" true
    (List.mem_assoc "churn.keeper" r2.Report.per_group);
  assert_groups_live_and_exact sys r2

(* ---- the serving harness end to end ---- *)

let serve_cfg ~tenants ~ops =
  {
    Serve.default_cfg with
    Serve.tenants;
    ops_per_tenant = ops;
    gap_ns = 8_000;
    tenant = { Tenant.default_cfg with Tenant.keys = 128 };
  }

let serve_smoke () =
  let sys = System.boot ~interval_us:500 () in
  let srv = Serve.create sys (serve_cfg ~tenants:2 ~ops:80) in
  Serve.run srv;
  let rows = Serve.rows srv in
  check_int "one row per tenant" 2 (List.length rows);
  List.iter
    (fun (r : Serve.row) ->
      check_bool (r.Serve.r_tenant ^ " released requests") true (r.Serve.r_enq2vis.Rtrace.s_count > 0);
      check_bool (r.Serve.r_tenant ^ " delivered replies") true (r.Serve.r_delivered > 0);
      check_bool (r.Serve.r_tenant ^ " charged some captree time") true (r.Serve.r_group_ns > 0))
    rows;
  check_bool "attribution sums to captree exactly" true (Serve.attribution_exact srv);
  check_bool "collected reports" true (Serve.reports srv <> []);
  (* tenants are isolated: per-tenant origins never mix *)
  let rt = Probe.rtrace (System.obs sys) in
  List.iter
    (fun o ->
      check_bool (o ^ " tagged by tenant") true
        (String.length o > 1 && o.[0] = 't' && String.contains o '/'))
    (Rtrace.origins rt)

let serve_crash_recover_continues () =
  let sys = System.boot ~interval_us:500 () in
  let srv = Serve.create sys (serve_cfg ~tenants:2 ~ops:40) in
  Serve.run srv;
  let before = List.map Tenant.delivered (Serve.tenants srv) in
  check_bool "some replies delivered" true (List.for_all (fun d -> d > 0) before);
  let _ = System.crash_and_recover sys in
  (* the "serve" service refreshed every tenant; delivered counts persist *)
  List.iter2
    (fun tn d -> check_int (Tenant.name tn ^ " delivered persists") d (Tenant.delivered tn))
    (Serve.tenants srv) before;
  (* and the system still serves: another round of ops releases replies *)
  for _ = 1 to 20 do
    List.iter Tenant.step (Serve.tenants srv);
    ignore (System.tick sys)
  done;
  System.drain_settle sys;
  ignore (System.checkpoint sys);
  List.iter2
    (fun tn d ->
      check_bool (Tenant.name tn ^ " delivers after recovery") true (Tenant.delivered tn > d))
    (Serve.tenants srv) before

let () =
  Alcotest.run "serve"
    [
      ( "reattach",
        [
          Alcotest.test_case "two tenants drain only their own backlog" `Quick
            two_tenant_reattach_own_backlog;
          Alcotest.test_case "delivered count survives crash" `Quick
            delivered_count_survives_crash;
        ] );
      ( "workload", [ Alcotest.test_case "mix draws inserted keys" `Quick mix_draws_inserted_keys ] );
      ( "attribution",
        [
          Alcotest.test_case "tenant churn leaves no stale groups" `Quick per_group_churn;
          Alcotest.test_case "shared object re-attributed on owner exit" `Quick
            per_group_shared_object_reattributed;
        ] );
      ( "harness",
        [
          Alcotest.test_case "two-tenant open loop" `Quick serve_smoke;
          Alcotest.test_case "crash/recover continues serving" `Quick
            serve_crash_recover_continues;
        ] );
    ]
