(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§7) from the simulator, plus the ablations in DESIGN.md.

     dune exec bench/main.exe                 # all experiments
     dune exec bench/main.exe -- --exp fig13  # one experiment
     dune exec bench/main.exe -- --bechamel   # host-time microbenchmarks

   Tracing: add [--trace FILE] (and optionally [--trace-verbose]) to record
   every booted system's checkpoint pipeline and export the last system's
   ring as Chrome/Perfetto trace_event JSON, with a reconciliation check of
   the ckpt.stw spans against their children:

     dune exec bench/main.exe -- --exp fig9 --trace fig9.trace.json

   Paranoid mode: add [--audit] to re-run the NVM state auditor
   (Treesls_audit) after every committed checkpoint and every
   crash/restore; any Error-severity violation aborts with exit code 2:

     dune exec bench/main.exe -- --exp smoke --audit

   Machine-readable results: [--json FILE] collects every experiment's
   (config, metrics) rows into one JSON file; [--json-dir DIR] writes one
   BENCH_<exp>.json per experiment (what `make bench` uses to seed the
   perf trajectory).  [--smoke] shrinks supporting experiments to CI
   scale:

     dune exec bench/main.exe -- --exp extsync_lat --smoke --json out.json
*)

let experiments =
  [
    ("functional", ("Functional tests (paper 7.2): crash/recovery matrix", Exp_functional.run));
    ("table2", ("Table 2: workload object composition", Exp_table2.run));
    ("fig9", ("Figure 9: STW checkpoint breakdown", Exp_fig9.run));
    ("table3", ("Table 3: per-object checkpoint/restore times", Exp_table3.run));
    ("fig10", ("Figure 10: runtime overhead breakdown", Exp_fig10.run));
    ("table4", ("Table 4: hybrid copy effect", Exp_table4.run));
    ("fig11", ("Figure 11: Memcached latency vs interval", Exp_fig11.run));
    ("fig12", ("Figure 12: external synchrony", Exp_fig12.run));
    ( "extsync_lat",
      ("External synchrony: checkpoint interval vs visible latency (Rtrace)", Exp_extsync_lat.run)
    );
    ("fig13", ("Figure 13: YCSB on Redis", Exp_fig13.run));
    ("fig14", ("Figure 14: RocksDB Prefix_dist", Exp_fig14.run));
    ("ablate", ("Design ablations", Exp_ablate.run));
    ( "incr_walk",
      ("Incremental walk: captree vs dirty fraction x tree size", Exp_incr_walk.run) );
    ( "crashtest",
      ("Crash-schedule exploration: enumerate/inject/recover/verify sweep", Exp_crashtest.run) );
    ( "wear",
      ("NVM write amplification + wear telemetry: eager vs incremental walk", Exp_wear.run) );
    ( "rto",
      ("Recovery observability: per-phase restore time + flight recorder gates", Exp_rto.run) );
    ( "adaptive",
      ("Adaptive checkpoint interval vs statics on a bursty workload (SLO gate)", Exp_adaptive.run)
    );
    ( "multitenant",
      ("Multi-tenant serving: per-tenant p99 + STW attribution vs tenant count", Exp_multitenant.run)
    );
    ( "async_drain",
      ("Split-capture checkpoint: async drain vs eager stop-and-copy (STW/WAF/p99 gate)",
       Exp_async_drain.run) );
    ("smoke", ("Audit smoke: checkpoints + crash/restore under --audit (make ci)", Exp_smoke.run));
  ]

(* --- Bechamel host-time microbenchmarks: one per table/figure -------- *)

(* Each suite builds its fixture only when it is about to run, and the
   fixture is garbage once its cases are timed: a case sharing the heap
   with every other case's fixture (a 64-tenant system among them) would
   also time their collection.  The paper's cases share one memcached
   system. *)
let bechamel_suites : (unit -> Bechamel.Test.t list) list =
  let open Bechamel in
  let open Exp_common in
  [
    (fun () ->
      let sys = boot () in
      ignore (System.checkpoint sys);
      let rng = Rng.create 61L in
      let mem = Kv_app.launch ~keys_hint:20_000 sys Kv_app.Memcached in
      for i = 0 to 4_999 do
        Kv_app.set_i mem i
      done;
      let lsm = Lsm.launch sys Lsm.Rocksdb in
      let gen = Treesls_workloads.Prefix_dist.create (Rng.create 67L) in
      let ycsb =
        Treesls_workloads.Ycsb.create Treesls_workloads.Ycsb.A ~keys:5_000 (Rng.create 71L)
      in
      [
        Test.make ~name:"table2-census" (Staged.stage (fun () -> ignore (census sys)));
        Test.make ~name:"fig9-incremental-checkpoint"
          (Staged.stage (fun () -> ignore (System.checkpoint sys)));
        Test.make ~name:"table3-snapshot-object"
          (Staged.stage (fun () ->
               ignore
                 (Treesls_ckpt.Snapshot.take
                    (Treesls_cap.Kobj.Cap_group (Kernel.root (System.kernel sys))))));
        Test.make ~name:"fig10-fig11-memcached-set"
          (Staged.stage (fun () ->
               Kv_app.set_i mem (Rng.int rng 5_000);
               ignore (System.tick sys)));
        Test.make ~name:"table4-page-fault-path"
          (Staged.stage (fun () -> Kv_app.set_i mem (Rng.int rng 20_000)));
        Test.make ~name:"fig13-ycsb-op"
          (Staged.stage (fun () ->
               match Treesls_workloads.Ycsb.next ycsb with
               | Treesls_workloads.Ycsb.Read k -> ignore (Kv_app.get_i mem (k mod 5_000))
               | Treesls_workloads.Ycsb.Update k -> Kv_app.set_i mem (k mod 5_000)
               | Treesls_workloads.Ycsb.Insert k -> Kv_app.set_i mem (k mod 20_000)));
        Test.make ~name:"fig14-rocksdb-op"
          (Staged.stage (fun () ->
               match Treesls_workloads.Prefix_dist.next gen with
               | Treesls_workloads.Prefix_dist.Put { key; value } -> Lsm.put lsm ~key ~value
               | Treesls_workloads.Prefix_dist.Get { key } -> ignore (Lsm.get lsm ~key)));
        Test.make ~name:"fig12-ring-roundtrip"
          (Staged.stage
             (let netdrv =
                match Kernel.find_process (System.kernel sys) ~name:"netdrv" with
                | Some p -> p
                | None -> assert false
              in
              let ring =
                Treesls_extsync.Ring.create (System.kernel sys) netdrv ~name:"bench" ~slots:64
                  ~slot_size:128
              in
              fun () ->
                ignore (Treesls_extsync.Ring.append ring (Bytes.of_string "m"));
                Treesls_extsync.Ring.on_checkpoint ring;
                ignore (Treesls_extsync.Ring.pop_visible ring)));
      ]);
    (fun () ->
      [
        Test.make ~name:"tseries-sample-full-ring"
          (Staged.stage
             (* one black-box sample (registry read, tseries record, default
                SLO rules) with 1,024 samples already retained *)
             (let module Probe = Treesls_obs.Probe in
              let module Tseries = Treesls_obs.Tseries in
              let s = boot () in
              let app = Kv_app.launch ~keys_hint:1_000 s Kv_app.Memcached in
              for i = 0 to 1_999 do
                Kv_app.set_i app (i mod 1_000);
                ignore (System.tick s)
              done;
              let probe = System.obs s in
              let ts = Probe.tseries probe in
              let sample () =
                Probe.tseries_sample probe ~version:(Tseries.total ts + 1) ~stw_ns:20_000
                  ~interval_ns:(Some 1_000_000)
              in
              while Tseries.length ts < Tseries.capacity ts do
                sample ()
              done;
              sample));
      ]);
    (fun () ->
      [
        Test.make ~name:"boot"
          (Staged.stage (* one system boot at the default NVM capacity *)
             (fun () -> ignore (System.boot ())));
      ]);
    (fun () ->
      [
        Test.make ~name:"restore-16-tenants"
          (Staged.stage
             (* one power cut and recovery of a 16-tenant KV system
                checkpointed once; the serve service rebinds the tenants
                inside each recover *)
             (let module Serve = Treesls_serve.Serve in
              let s = boot () in
              ignore (Serve.create s { Serve.default_cfg with Serve.tenants = 16 });
              ignore (System.checkpoint s);
              fun () -> ignore (System.crash_and_recover s)));
      ]);
    (* the first checkpoint after a 16-tenant recovery, with nothing run
       since: a logged walk over the cache the restore built (the log is
       empty), the owner index and the commit.  Each run starts from what
       a restore leaves behind, a fresh live-tree cache built before the
       clock starts *)
    (fun () ->
      let module Serve = Treesls_serve.Serve in
      let module Live_tree = Treesls_ckpt.Live_tree in
      let s = boot () in
      ignore (Serve.create s { Serve.default_cfg with Serve.tenants = 16 });
      ignore (System.checkpoint s);
      ignore (System.crash_and_recover s);
      let st = Manager.state (System.manager s) in
      [
        Test.make_with_resource ~name:"ckpt-after-restore-16-tenants" Test.multiple
          ~allocate:(fun () -> Live_tree.build ~root:(Kernel.root (System.kernel s)))
          ~free:ignore
          (Staged.stage (fun tree ->
               st.State.live_tree <- Some tree;
               ignore (System.checkpoint s)));
      ]);
    (fun () ->
      [
        Test.make ~name:"commit-64-tenants-4-touched"
          (Staged.stage
             (* one incremental commit of a 64-tenant tree (~5.9k objects)
                in which four notifications changed since the last one *)
             (let module Serve = Treesls_serve.Serve in
              let s = boot () in
              ignore (Serve.create s { Serve.default_cfg with Serve.tenants = 64 });
              ignore (System.checkpoint s);
              let notifs = ref [] in
              Kobj.iter_tree ~root:(Kernel.root (System.kernel s)) (function
                | Kobj.Notification n -> notifs := n :: !notifs
                | _ -> ());
              let notifs = Array.of_list !notifs in
              let touched = List.init 4 (fun i -> notifs.(i * Array.length notifs / 4)) in
              fun () ->
                List.iter (Treesls_kernel.Ipc.notify (System.kernel s)) touched;
                ignore (System.checkpoint s)));
      ]);
    (fun () ->
      let s = boot () in
      let k = System.kernel s in
      let p = Kernel.create_process k ~name:"words" ~threads:1 ~prio:5 in
      let vaddr = Kernel.grow_heap k p ~pages:1 * (Kernel.cost k).Treesls_sim.Cost.page_size in
      Kernel.write_word k p ~vaddr ~len:8 1;
      [
        (* hits on a mapped, writable NVM page: the page-table load, the
           device access and, for the write, the wear record *)
        Test.make_grouped ~name:"kernel"
          [
            Test.make ~name:"read_word"
              (Staged.stage (fun () -> ignore (Kernel.read_word k p ~vaddr ~len:8)));
            Test.make ~name:"write_word"
              (Staged.stage (fun () -> Kernel.write_word k p ~vaddr ~len:8 42));
          ];
      ]);
    (fun () ->
      let s = boot () in
      let app = Kv_app.launch ~keys_hint:2_000 ~value_size:1024 s Kv_app.Memcached in
      for i = 0 to 999 do
        Kv_app.set_i app i
      done;
      let rng = Rng.create 79L in
      [
        (* one served request on a resident key with a 1 KiB value: the
           request built, staged, called over IPC and served; no
           checkpoint runs, so no page faults *)
        Test.make_grouped ~name:"kv_app"
          [
            Test.make ~name:"set_i-1KiB"
              (Staged.stage (fun () -> Kv_app.set_i app (Rng.int rng 1_000)));
            Test.make ~name:"get_i-1KiB"
              (Staged.stage (fun () -> ignore (Kv_app.get_i app (Rng.int rng 1_000))));
          ];
      ]);
    (fun () ->
      let s = boot () in
      let k = System.kernel s in
      let p = Kernel.create_process k ~name:"kv" ~threads:1 ~prio:5 in
      let kv = Kvstore.create k p ~buckets:1024 ~pages:64 in
      let key i = Printf.sprintf "key%05d" i in
      let keys = Array.init 1_000 key and value = String.make 32 'v' in
      Array.iter (fun key -> Kvstore.put kv ~key ~value) keys;
      let rng = Rng.create 73L in
      [
        Test.make_grouped ~name:"kvstore"
          [
            (* a hit: the bucket chain walk reads 8- and 4-byte header words *)
            Test.make ~name:"get"
              (Staged.stage (fun () -> ignore (Kvstore.get kv ~key:(Rng.pick rng keys))));
            (* an in-place update: the chain walk, the value and its length word *)
            Test.make ~name:"put"
              (Staged.stage (fun () -> Kvstore.put kv ~key:(Rng.pick rng keys) ~value));
          ];
      ]);
  ]

let run_bechamel () =
  let open Bechamel in
  let open Toolkit in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.3) ~kde:(Some 100) () in
  Printf.printf "\n== Bechamel host-time microbenchmarks (one per table/figure) ==\n%!";
  let estimates suite =
    let tests = suite () in
    (* the previous suite's fixture is garbage by now: collect it before
       the clock starts *)
    Gc.compact ();
    let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"treesls" tests) in
    let ols =
      Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
        Instance.monotonic_clock raw
    in
    Hashtbl.fold (fun name est acc -> (name, Analyze.OLS.estimates est) :: acc) ols []
  in
  List.concat_map estimates bechamel_suites
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (name, est) ->
         match est with
         | Some [ ns ] -> Printf.printf "  %-45s %12.0f ns/op\n" name ns
         | Some _ | None -> Printf.printf "  %-45s (no estimate)\n" name)

(* --- CLI -------------------------------------------------------------- *)

let () =
  let args = Array.to_list Sys.argv in
  let want_bechamel = List.mem "--bechamel" args in
  let rec find_opt key = function
    | k :: v :: _ when k = key -> Some v
    | _ :: rest -> find_opt key rest
    | [] -> None
  in
  let exp = find_opt "--exp" args in
  Exp_common.trace_out := find_opt "--trace" args;
  Exp_common.trace_verbose := List.mem "--trace-verbose" args;
  Exp_common.audit_mode := List.mem "--audit" args;
  Exp_common.smoke := List.mem "--smoke" args;
  Exp_common.json_out := find_opt "--json" args;
  Exp_common.json_dir := find_opt "--json-dir" args;
  if want_bechamel then run_bechamel ()
  else begin
    let to_run =
      match exp with
      | None -> experiments
      | Some name -> (
        match List.assoc_opt name experiments with
        | Some e -> [ (name, e) ]
        | None ->
          Printf.eprintf "unknown experiment %s; available: %s\n" name
            (String.concat ", " (List.map fst experiments));
          exit 1)
    in
    List.iter
      (fun (name, (title, run)) ->
        Printf.printf "\n########## %s ##########\n%!" title;
        Exp_common.current_exp := name;
        let t0 = Unix.gettimeofday () in
        run ();
        Printf.printf "(experiment took %.1fs host time)\n%!" (Unix.gettimeofday () -. t0))
      to_run;
    Exp_common.finish_trace ();
    Exp_common.finish_json ()
  end
