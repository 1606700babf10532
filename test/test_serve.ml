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
module Kobj = Treesls_cap.Kobj
module Manager = Treesls_ckpt.Manager
module State = Treesls_ckpt.State
module Checkpoint = Treesls_ckpt.Checkpoint
module Live_tree = Treesls_ckpt.Live_tree
module Rng = Treesls_util.Rng

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
  List.fold_left (fun acc (_, g) -> acc + g.Report.g_ns) 0 (Report.per_group r)

let assert_groups_live_and_exact sys (r : Report.t) =
  let live = List.map (fun p -> p.Kernel.pname) (Kernel.processes (System.kernel sys)) in
  List.iter
    (fun (g, _) ->
      check_bool (Printf.sprintf "group %S is a live process or kernel" g) true
        (g = "kernel" || List.mem g live))
    (Report.per_group r);
  check_bool "no unattributed group" true (not (List.mem_assoc "unattributed" (Report.per_group r)));
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
        (List.mem_assoc (Kv_app.server_name app) (Report.per_group r1)))
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
        (List.mem_assoc (Kv_app.server_name app) (Report.per_group r2)))
    doomed;
  List.iter
    (fun app ->
      check_bool (Kv_app.server_name app ^ " still attributed") true
        (List.mem_assoc (Kv_app.server_name app) (Report.per_group r2)))
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
    (List.mem_assoc "churn.doomed" (Report.per_group r1));
  Kernel.exit_process k doomed;
  ignore (Ipc.call k conn (Bytes.of_string "y"));
  let r2 = System.checkpoint sys in
  check_bool "dead owner no longer charged" false
    (List.mem_assoc "churn.doomed" (Report.per_group r2));
  check_bool "surviving owner charged instead" true
    (List.mem_assoc "churn.keeper" (Report.per_group r2));
  assert_groups_live_and_exact sys r2

(* ---- attribution against the original table-keyed code ---- *)

(* The original owner map, kept as the oracle: one [iter_tree] per
   process, each with a visited set of its own; the first process in
   [Kernel.processes] order whose walk reaches an object owns it, and
   objects no process reaches stay "kernel". *)
let oracle_owner kernel =
  let owners = Hashtbl.create 256 in
  List.iter
    (fun (p : Kernel.process) ->
      Kobj.iter_tree ~root:p.Kernel.cg (fun obj ->
          let oid = Kobj.id obj in
          if not (Hashtbl.mem owners oid) then Hashtbl.add owners oid p.Kernel.pname))
    (Kernel.processes kernel);
  fun oid -> Option.value ~default:"kernel" (Hashtbl.find_opt owners oid)

(* The original attribution, kept as the oracle: tallies in tables keyed
   by kind and by group name, Table 3's collectors in [costs], keyed by
   kind and created on first use. *)
let oracle_attribute owner costs dirty =
  let add tbl k dt = Hashtbl.replace tbl k (dt + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
  let pairs tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  let per_kind = Hashtbl.create 8 in
  let per_group : (string, int ref * int ref * (Kobj.kind, int) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun (obj, dt, full) ->
      let kind = Kobj.kind obj in
      add per_kind kind dt;
      let g_ns, g_objs, g_kinds =
        match Hashtbl.find_opt per_group (owner (Kobj.id obj)) with
        | Some g -> g
        | None ->
          let g = (ref 0, ref 0, Hashtbl.create 8) in
          Hashtbl.add per_group (owner (Kobj.id obj)) g;
          g
      in
      g_ns := !g_ns + dt;
      incr g_objs;
      add g_kinds kind dt;
      let cost =
        match Hashtbl.find_opt costs kind with
        | Some c -> c
        | None ->
          let range () = { State.n = 0; min_ns = max_int; max_ns = min_int } in
          let c = { State.full = range (); incr = range (); restore = range () } in
          Hashtbl.replace costs kind c;
          c
      in
      State.note_cost (if full then cost.State.full else cost.State.incr) dt)
    dirty;
  ( pairs per_kind,
    Hashtbl.fold
      (fun name (g_ns, g_objs, g_kinds) acc ->
        (name, { Report.g_ns = !g_ns; g_objects = !g_objs; g_kinds = pairs g_kinds }) :: acc)
      per_group [] )

(* Order-free renderings: every consumer sorts or sums these lists. *)
let kinds_str l =
  List.map (fun (k, ns) -> Printf.sprintf "%s=%d" (Kobj.kind_name k) ns) l |> List.sort compare

let groups_str l =
  List.map
    (fun (name, g) ->
      Printf.sprintf "%s %dns/%d [%s]" name g.Report.g_ns g.Report.g_objects
        (String.concat "; " (kinds_str g.Report.g_kinds)))
    l
  |> List.sort compare

let costs_str l =
  let r (c : State.cost_range) = Printf.sprintf "%d/%d/%d" c.State.n c.State.min_ns c.State.max_ns in
  List.map
    (fun (k, (c : State.obj_cost)) ->
      Printf.sprintf "%s full=%s incr=%s restore=%s" (Kobj.kind_name k) (r c.State.full)
        (r c.State.incr) (r c.State.restore))
    l
  |> List.sort compare

(* A copy of the system's collectors, keyed by kind as the oracle keeps
   them. *)
let oracle_costs mgr =
  let copy (c : State.cost_range) = { c with State.n = c.State.n } in
  let t = Hashtbl.create 8 in
  List.iter
    (fun (k, (c : State.obj_cost)) ->
      Hashtbl.replace t k
        { State.full = copy c.State.full; incr = copy c.State.incr; restore = copy c.State.restore })
    (Manager.obj_costs mgr);
  t

(* Attribute [dirty] through the system's own code and through the oracle,
   from the same collectors, and compare everything both produce. *)
let check_attribution sys dirty =
  let mgr = System.manager sys in
  let st = Manager.state mgr in
  let live =
    match st.State.live_tree with Some lt -> lt | None -> Alcotest.fail "no live-tree cache"
  in
  let costs = oracle_costs mgr in
  let want_kinds, want_groups =
    oracle_attribute (oracle_owner (System.kernel sys)) costs dirty
  in
  let kinds, groups = Checkpoint.attribute st live dirty in
  let groups = Report.group_list groups in
  let check_strs = Alcotest.(check (list string)) in
  check_strs "per_kind_ns" (kinds_str want_kinds) (kinds_str kinds);
  check_strs "per_group" (groups_str want_groups) (groups_str groups);
  check_strs "obj_costs" (costs_str (Hashtbl.fold (fun k c acc -> (k, c) :: acc) costs []))
    (costs_str (Manager.obj_costs mgr));
  groups

(* A seeded sample of the cached tree's objects, in walk order, as a walk
   would checkpoint them: some with 0 ns, some full. *)
let sample_dirty rng sys =
  let st = Manager.state (System.manager sys) in
  match st.State.live_tree with
  | None -> Alcotest.fail "no live-tree cache"
  | Some lt ->
    Array.to_list (Live_tree.entries lt)
    |> List.filter_map (fun (e : Live_tree.entry) ->
           if Rng.int rng 3 = 0 then None
           else
             Some
               ( e.Live_tree.obj,
                 (if Rng.int rng 8 = 0 then 0 else Rng.int rng 5_000),
                 Rng.int rng 4 = 0 ))

let test_procs k =
  List.filter
    (fun (p : Kernel.process) -> String.length p.Kernel.pname > 2 && String.sub p.Kernel.pname 0 2 = "t.")
    (Kernel.processes k)

(* Seeded systems under churn: processes created (two names shared) and
   exited, so re-created processes take lower root slots than older ones
   while coming after them in [Kernel.processes]; IPC connections and
   PMOs installed in two processes; eternal PMOs reachable only from the
   root; now and then a crash and recovery, after which
   [Kernel.processes] runs in slot order.  After every checkpoint the
   system's attribution must equal the oracle's on a sample of the tree. *)
let attribution_matches_the_oracle () =
  List.iter
    (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let sys = System.boot () in
      let names = [| "t.a"; "t.b"; "t.dup"; "t.dup"; "t.c" |] in
      let spawn () =
        ignore (Kernel.create_process (System.kernel sys) ~name:(Rng.pick rng names) ~threads:1 ~prio:1)
      in
      spawn ();
      spawn ();
      for step = 1 to 40 do
        let k = System.kernel sys in
        let procs = Array.of_list (test_procs k) in
        let two () = (Rng.pick rng procs, Rng.pick rng procs) in
        (match Rng.int rng 7 with
        | 0 | 1 -> spawn ()
        | 2 when Array.length procs > 1 -> Kernel.exit_process k (Rng.pick rng procs)
        | 3 when Array.length procs > 0 ->
          let client, server = two () in
          ignore (Ipc.create_conn k ~client ~server)
        | 4 when Array.length procs > 0 ->
          let a, b = two () in
          ignore (Kernel.grow_heap k a ~pages:1);
          let heap = List.hd (List.rev a.Kernel.vms.Kobj.vs_regions) in
          ignore (Kernel.map_shared k b heap.Kobj.vr_pmo ~writable:true)
        | 5 -> ignore (Kernel.make_eternal_pmo k ~pages:1)
        | _ when Array.length procs > 0 ->
          ignore (Kernel.create_notification k (Rng.pick rng procs))
        | _ -> spawn ());
        ignore (System.checkpoint sys);
        ignore (check_attribution sys (sample_dirty rng sys));
        if step mod 13 = 0 then begin
          ignore (System.crash_and_recover sys);
          ignore (System.checkpoint sys);
          ignore (check_attribution sys (sample_dirty rng sys))
        end
      done)
    [ 1; 2; 3; 4; 5; 6 ]

(* Pinned: C re-created into A's freed root slot sits below B in the
   root, but after B in [Kernel.processes]; an object both hold is B's.
   One walk from the root in slot order would hand it to C. *)
let attribution_first_process_not_lowest_slot () =
  let sys = System.boot () in
  let k = System.kernel sys in
  let a = Kernel.create_process k ~name:"pin.a" ~threads:1 ~prio:1 in
  let b = Kernel.create_process k ~name:"pin.b" ~threads:1 ~prio:1 in
  Kernel.exit_process k a;
  let c = Kernel.create_process k ~name:"pin.c" ~threads:1 ~prio:1 in
  let slot (p : Kernel.process) =
    let s = ref (-1) in
    Kobj.iter_caps
      (fun i cap -> if Kobj.id cap.Kobj.target = p.Kernel.pid then s := i)
      (Kernel.root k);
    !s
  in
  check_bool "C holds the lower root slot" true (slot c < slot b);
  Alcotest.(check (list string))
    "B comes first in Kernel.processes" [ "pin.b"; "pin.c" ]
    (List.filter_map
       (fun (p : Kernel.process) -> if p == b || p == c then Some p.Kernel.pname else None)
       (Kernel.processes k));
  let conn = Ipc.create_conn k ~client:c ~server:b in
  ignore (System.checkpoint sys);
  let groups = check_attribution sys [ (Kobj.Ipc_conn conn, 1_000, false) ] in
  Alcotest.(check (list string)) "the shared connection is B's" [ "pin.b" ] (List.map fst groups)

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
          Alcotest.test_case "matches the table-keyed oracle" `Quick
            attribution_matches_the_oracle;
          Alcotest.test_case "first process wins, not the lowest slot" `Quick
            attribution_first_process_not_lowest_slot;
        ] );
      ( "harness",
        [
          Alcotest.test_case "two-tenant open loop" `Quick serve_smoke;
          Alcotest.test_case "crash/recover continues serving" `Quick
            serve_crash_recover_continues;
        ] );
    ]
