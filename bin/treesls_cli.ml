(* Command-line driver for the TreeSLS simulator.

     treesls_cli census                      object census of a booted system
     treesls_cli census -w redis -n 5000 --baseline default
                                             ... per-kind deltas vs the Default system
     treesls_cli run -w redis -n 20000       run a workload with 1ms checkpoints
     treesls_cli run -w memcached --crash 3  inject 3 power failures while running
     treesls_cli serve --tenants 16 --crash 2 multi-tenant serving; rings reclaimed by name
     treesls_cli ckpt                        one checkpoint, print the breakdown
     treesls_cli ckpt top -w redis -n 5000   STW time ranked by capability subtree
     treesls_cli ckpt top --folded stw.folded   ... plus collapsed stacks for flamegraphs
     treesls_cli trace -w redis --crash 1    run traced; dump the event ring
     treesls_cli trace --export t.json       ... and write Perfetto JSON
     treesls_cli trace --requests 20         newest request timelines (Rtrace)
     treesls_cli metrics -w sqlite --json    run and dump the metrics registry
     treesls_cli inspect -w sqlite           NVM census by subsystem (--json for JSON)
     treesls_cli wear top -w redis -n 5000   NVM write/wear telemetry: WAF, hottest pages
     treesls_cli wear --heatmap wear.csv     ... full per-page heatmap as CSV
     treesls_cli wear --json                 ... totals/subsystems/top pages as JSON
     treesls_cli doctor -w redis --crash 2   audit the persisted state (slsfsck)
     treesls_cli doctor --strict             ... exit 1 on warnings or SLO alerts too
     treesls_cli tseries -w redis --crash 1  crash-surviving metrics time-series (black box)
     treesls_cli tseries --csv bb.csv --perfetto bb.json    ... export it
     treesls_cli slo --rule "p99(enq2vis) < 2*interval"     watch an SLO rule over a run
     treesls_cli diff -w sqlite -n 3000      explain the last two checkpoint versions
     treesls_cli crashtest                   sweep every crash schedule of a smoke trace
     treesls_cli crashtest --schedule "seed=42;ops=280;mode=eager;commit:57:mid_apply"
                                             replay one failing schedule and shrink it
*)

module System = Treesls.System
module Kernel = Treesls_kernel.Kernel
module Manager = Treesls_ckpt.Manager
module Report = Treesls_ckpt.Report
module Census = Treesls_cap.Census
module Kobj = Treesls_cap.Kobj
module Rng = Treesls_util.Rng
module Trace = Treesls_obs.Trace
module Audit = Treesls_audit.Audit
module Nvm_census = Treesls_audit.Nvm_census
module Eidetic = Treesls_ckpt.Eidetic
module Json = Treesls_util.Json
open Cmdliner

let workloads =
  [
    ("memcached", `Memcached);
    ("redis", `Redis);
    ("sqlite", `Sqlite);
    ("leveldb", `Leveldb);
    ("rocksdb", `Rocksdb);
    ("wordcount", `Wordcount);
    ("kmeans", `Kmeans);
    ("pca", `Pca);
  ]

let launch sys rng = function
  | `Memcached ->
    let app = Treesls_apps.Kv_app.launch ~keys_hint:20_000 sys Treesls_apps.Kv_app.Memcached in
    ( (fun () -> Treesls_apps.Kv_app.set_i app (Rng.int rng 20_000)),
      fun () -> Treesls_apps.Kv_app.refresh app )
  | `Redis ->
    let app = Treesls_apps.Kv_app.launch ~keys_hint:20_000 sys Treesls_apps.Kv_app.Redis in
    ( (fun () -> Treesls_apps.Kv_app.set_i app (Rng.int rng 20_000)),
      fun () -> Treesls_apps.Kv_app.refresh app )
  | `Sqlite ->
    let app = Treesls_apps.Sqlite.launch sys in
    ((fun () -> Treesls_apps.Sqlite.step app rng), fun () -> Treesls_apps.Sqlite.refresh app)
  | `Leveldb ->
    let app = Treesls_apps.Lsm.launch sys Treesls_apps.Lsm.Leveldb in
    let n = ref 0 in
    ( (fun () ->
        Treesls_apps.Lsm.fillbatch app ~base:!n ~count:16;
        n := !n + 16),
      fun () -> Treesls_apps.Lsm.refresh app )
  | `Rocksdb ->
    let app = Treesls_apps.Lsm.launch sys Treesls_apps.Lsm.Rocksdb in
    let n = ref 0 in
    ( (fun () ->
        incr n;
        Treesls_apps.Lsm.put app ~key:(Printf.sprintf "k%08d" (Rng.int rng 50_000))
          ~value:(String.make 100 'v')),
      fun () -> Treesls_apps.Lsm.refresh app )
  | (`Wordcount | `Kmeans | `Pca) as kind ->
    let kind =
      match kind with
      | `Wordcount -> Treesls_apps.Phoenix.Wordcount
      | `Kmeans -> Treesls_apps.Phoenix.Kmeans
      | `Pca -> Treesls_apps.Phoenix.Pca
    in
    let app = Treesls_apps.Phoenix.launch sys kind in
    ((fun () -> Treesls_apps.Phoenix.step app rng), fun () -> Treesls_apps.Phoenix.refresh app)

let print_census sys =
  let c = Census.collect ~root:(Kernel.root (System.kernel sys)) in
  Printf.printf "cap groups    %d\nthreads       %d\nipc conns     %d\nnotifications %d\n"
    c.Census.cap_groups c.Census.threads c.Census.ipcs c.Census.notifications;
  Printf.printf "pmos          %d\nvm spaces     %d\nirqs          %d\napp pages     %d\n"
    c.Census.pmos c.Census.vmspaces c.Census.irqs c.Census.app_pages

(* Shared argument terms and run loop for the run/trace/metrics commands. *)

let workload_arg =
  Arg.(
    value
    & opt (enum workloads) `Memcached
    & info [ "w"; "workload" ] ~docv:"NAME" ~doc:"Workload to run (memcached, redis, ...)")

let ops_arg =
  Arg.(value & opt int 20_000 & info [ "n"; "ops" ] ~docv:"N" ~doc:"Operations to run")

let interval_arg =
  Arg.(
    value & opt int 1000
    & info [ "i"; "interval-us" ] ~docv:"US" ~doc:"Checkpoint interval in microseconds (0 = off)")

let crashes_arg =
  Arg.(
    value & opt int 0 & info [ "crash" ] ~docv:"K" ~doc:"Inject K evenly spaced power failures")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"Random seed")

let boot_configured interval =
  let sys = System.boot ~interval_us:(max 1 interval) () in
  if interval = 0 then System.set_interval_us sys None;
  sys

(* Drive [ops] workload operations with periodic checkpoints and [crashes]
   evenly spaced power failures. *)
let drive sys ~workload ~ops ~crashes ~seed =
  let rng = Rng.create (Int64.of_int seed) in
  let step, refresh = launch sys rng workload in
  let crash_every = if crashes > 0 then ops / (crashes + 1) else max_int in
  for i = 1 to ops do
    step ();
    ignore (System.tick sys);
    if crashes > 0 && i mod crash_every = 0 && System.version sys > 0 then begin
      let r = System.crash_and_recover sys in
      refresh ();
      Printf.eprintf "crash at op %d: rolled back to v%d (%d objects)\n%!" i
        r.Treesls_ckpt.Restore.version r.Treesls_ckpt.Restore.restored_objects
    end
  done

let json_arg = Arg.(value & flag & info [ "json" ] ~doc:"Emit JSON instead of text")

(* [--json] output: exactly one document on stdout (informational lines
   such as crash notices and "wrote FILE" go to stderr) *)
let print_json j = print_endline (Json.to_string j)

(* Sum a run's reports into one aggregate for the `ckpt top` view and the
   folded flamegraph export. *)
let aggregate_reports reports =
  let merge_assoc l acc =
    List.fold_left
      (fun acc (k, v) -> (k, v + Option.value ~default:0 (List.assoc_opt k acc)) :: List.remove_assoc k acc)
      acc l
  in
  List.fold_left
    (fun acc (r : Report.t) ->
      {
        acc with
        Report.version = r.Report.version;
        stw_ns = acc.Report.stw_ns + r.Report.stw_ns;
        ipi_ns = acc.Report.ipi_ns + r.Report.ipi_ns;
        captree_ns = acc.Report.captree_ns + r.Report.captree_ns;
        others_ns = acc.Report.others_ns + r.Report.others_ns;
        hybrid_ns = acc.Report.hybrid_ns + r.Report.hybrid_ns;
        per_kind_ns = merge_assoc r.Report.per_kind_ns acc.Report.per_kind_ns;
        groups =
          Report.groups_of_list
            (List.fold_left
               (fun groups (name, g) ->
                 let prev =
                   Option.value
                     ~default:{ Report.g_ns = 0; g_objects = 0; g_kinds = [] }
                     (List.assoc_opt name groups)
                 in
                 ( name,
                   {
                     Report.g_ns = prev.Report.g_ns + g.Report.g_ns;
                     g_objects = prev.Report.g_objects + g.Report.g_objects;
                     g_kinds = merge_assoc g.Report.g_kinds prev.Report.g_kinds;
                   } )
                 :: List.remove_assoc name groups)
               (Report.per_group acc) (Report.per_group r));
        objects_walked = acc.Report.objects_walked + r.Report.objects_walked;
        pages_drained = acc.Report.pages_drained + r.Report.pages_drained;
        cow_faults = acc.Report.cow_faults + r.Report.cow_faults;
        drain_ns = acc.Report.drain_ns + r.Report.drain_ns;
      })
    Report.zero reports

let ckpt_cmd =
  let action =
    Arg.(
      value
      & pos 0 (enum [ ("breakdown", `Breakdown); ("top", `Top) ]) `Breakdown
      & info [] ~docv:"ACTION"
          ~doc:
            "$(b,breakdown): one full + one incremental checkpoint with phase breakdowns. \
             $(b,top): run a workload and rank capability subtrees (process groups) by the \
             STW time their objects cost.")
  in
  let top_n =
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"N" ~doc:"Rows to show in the top view")
  in
  let folded =
    Arg.(
      value
      & opt (some string) None
      & info [ "folded" ] ~docv:"FILE"
          ~doc:
            "Write collapsed-stack lines (aggregated over the run's checkpoints) to FILE — \
             feed to flamegraph.pl or speedscope")
  in
  let run action workload ops interval seed top_n folded =
    match action with
    | `Breakdown ->
      let sys = System.boot () in
      let r1 = System.checkpoint sys in
      let r2 = System.checkpoint sys in
      Format.printf "full:        %a@." Report.pp r1;
      Format.printf "incremental: %a@." Report.pp r2
    | `Top ->
      let sys = boot_configured interval in
      let rng = Rng.create (Int64.of_int seed) in
      let step, _refresh = launch sys rng workload in
      let reports = ref [] in
      for _ = 1 to ops do
        step ();
        match System.tick sys with Some r -> reports := r :: !reports | None -> ()
      done;
      reports := System.checkpoint sys :: !reports;
      let n_ckpt = List.length !reports in
      let agg = aggregate_reports !reports in
      let total_captree = max 1 agg.Report.captree_ns in
      Printf.printf "%d checkpoints, %.1fus STW total (captree %.1fus); by capability subtree:\n"
        n_ckpt
        (float_of_int agg.Report.stw_ns /. 1e3)
        (float_of_int agg.Report.captree_ns /. 1e3);
      if agg.Report.pages_drained > 0 || agg.Report.cow_faults > 0 then
        Printf.printf
          "async drain: %d pages off the STW path (%.1fus background), %d CoW faults\n"
          agg.Report.pages_drained
          (float_of_int agg.Report.drain_ns /. 1e3)
          agg.Report.cow_faults;
      print_newline ();
      Printf.printf "  %-16s %12s %12s %8s %8s\n" "group" "captree (us)" "us/ckpt" "objs/ck"
        "% walk";
      List.iteri
        (fun i (name, (g : Report.group_cost)) ->
          if i < top_n then
            Printf.printf "  %-16s %12.1f %12.2f %8.1f %7.1f%%\n" name
              (float_of_int g.Report.g_ns /. 1e3)
              (float_of_int g.Report.g_ns /. 1e3 /. float_of_int n_ckpt)
              (float_of_int g.Report.g_objects /. float_of_int n_ckpt)
              (100.0 *. float_of_int g.Report.g_ns /. float_of_int total_captree))
        (Report.sorted_groups agg);
      (match folded with
      | Some path ->
        let oc = open_out path in
        List.iter (fun l -> output_string oc (l ^ "\n")) (Report.folded_lines agg);
        close_out oc;
        Printf.eprintf "wrote %s (collapsed stacks; render with flamegraph.pl)\n" path
      | None -> ())
  in
  Cmd.v
    (Cmd.info "ckpt"
       ~doc:
         "Checkpoint cost views: phase breakdown, or STW attribution by capability subtree \
          ($(b,top)) with an optional collapsed-stack export for flamegraphs")
    Term.(const run $ action $ workload_arg $ ops_arg $ interval_arg $ seed_arg $ top_n $ folded)


let census_cmd =
  let ops0 =
    Arg.(
      value & opt int 0
      & info [ "n"; "ops" ] ~docv:"N" ~doc:"Workload operations to run first (0 = none)")
  in
  let baseline =
    Arg.(
      value
      & opt (some (enum [ ("default", `Default) ])) None
      & info [ "baseline" ] ~docv:"NAME"
          ~doc:
            "Also print per-kind object deltas against a freshly booted baseline system \
             (only $(b,default) is available)")
  in
  let run workload ops interval seed baseline =
    let sys = boot_configured interval in
    if ops > 0 then drive sys ~workload ~ops ~crashes:0 ~seed;
    print_census sys;
    match baseline with
    | None -> ()
    | Some `Default ->
      let base = Census.collect ~root:(Kernel.root (System.kernel (System.boot ()))) in
      let cur = Census.collect ~root:(Kernel.root (System.kernel sys)) in
      let d = Census.diff cur base in
      Printf.printf "\nper-kind deltas vs default baseline:\n";
      List.iter
        (fun kind -> Printf.printf "  %-13s %+d\n" (Kobj.kind_name kind) (Census.count d kind))
        Kobj.all_kinds;
      Printf.printf "  %-13s %+d\n" "app pages" d.Census.app_pages
  in
  Cmd.v
    (Cmd.info "census"
       ~doc:
         "Print the object census of a booted system, optionally after running a workload \
          and relative to the Default baseline (paper Table 2)")
    Term.(const run $ workload_arg $ ops0 $ interval_arg $ seed_arg $ baseline)

let inspect_cmd =
  let run workload ops interval crashes seed json =
    let sys = boot_configured interval in
    drive sys ~workload ~ops ~crashes ~seed;
    let c = System.nvm_census sys in
    if json then print_json (Nvm_census.to_json c) else Format.printf "%a@?" Nvm_census.pp c
  in
  Cmd.v
    (Cmd.info "inspect"
       ~doc:"Run a workload, then price the persisted state: NVM consumption by subsystem")
    Term.(const run $ workload_arg $ ops_arg $ interval_arg $ crashes_arg $ seed_arg $ json_arg)

let doctor_cmd =
  let module Slo = Treesls_obs.Slo in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:
            "Treat warning-severity findings as failures: exit 1 when the audit reports \
             warnings (wear health) or the SLO watchdog fired alerts during the run. \
             Error-severity violations still exit 2.")
  in
  let run workload ops interval crashes seed strict json =
    let sys = boot_configured interval in
    drive sys ~workload ~ops ~crashes ~seed;
    let r = System.audit ~wear:Audit.default_wear_thresholds sys in
    let slo = System.slo sys in
    if json then print_json (Json.Obj [ ("audit", Audit.to_json r); ("slo", Slo.to_json slo) ])
    else begin
      Format.printf "%a@." Audit.pp r;
      Format.printf "%a@." Slo.pp slo
    end;
    if Audit.errors r > 0 then exit 2;
    if strict && (Audit.warnings r > 0 || Slo.alerts_total slo > 0) then exit 1
  in
  Cmd.v
    (Cmd.info "doctor"
       ~doc:
         "Run a workload, then audit the persisted state against the checkpoint invariants \
          (slsfsck) plus warning-severity wear-health checks (write amplification, wear \
          skew, unattributed NVM writes) and the SLO watchdog's health report; exits 2 on \
          any error-severity violation, and with $(b,--strict) exits 1 on warnings or SLO \
          alerts")
    Term.(
      const run $ workload_arg $ ops_arg $ interval_arg $ crashes_arg $ seed_arg $ strict
      $ json_arg)

let tseries_cmd =
  let module Tseries = Treesls_obs.Tseries in
  let last =
    Arg.(
      value & opt int 10
      & info [ "last" ] ~docv:"N" ~doc:"Print the newest N samples (0 = none)")
  in
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE"
          ~doc:"Write the full retained window as CSV (seq,version,ts_ns,columns...) to FILE")
  in
  let perfetto =
    Arg.(
      value
      & opt (some string) None
      & info [ "perfetto" ] ~docv:"FILE"
          ~doc:
            "Write a Perfetto counter-track export (one ph:\"C\" event per retained sample) \
             to FILE")
  in
  let run workload ops interval crashes seed last csv perfetto json =
    let sys = boot_configured interval in
    (* price the black box's NVM residency like the trace ring's *)
    System.ensure_tseries_backing sys;
    drive sys ~workload ~ops ~crashes ~seed;
    let ts = System.tseries sys in
    if json then print_json (Tseries.to_json ~last ts)
    else begin
      Printf.printf
        "black box: %d samples recorded, %d retained (capacity %d), %d columns (%d dropped)\n"
        (Tseries.total ts) (Tseries.length ts) (Tseries.capacity ts) (Tseries.column_count ts)
        (Tseries.cols_dropped ts);
      (match (Tseries.latest ts, Tseries.percentile_over ts "ckpt.stw_ns" ~n:64 ~p:99.0) with
      | Some s, Some stw_p99 ->
        Printf.printf "newest: seq %d v%d at %.3fms; stw p99 over last 64 commits: %.1fus\n"
          s.Tseries.sp_seq s.Tseries.sp_version
          (float_of_int s.Tseries.sp_ts_ns /. 1e6)
          (float_of_int stw_p99 /. 1e3)
      | _ -> ());
      if last > 0 then Format.printf "%a@." (Tseries.pp ~last) ts
    end;
    (match csv with
    | Some path ->
      let oc = open_out path in
      output_string oc (Tseries.to_csv ts);
      close_out oc;
      Printf.eprintf "wrote %s (one line per retained sample)\n" path
    | None -> ());
    match perfetto with
    | Some path ->
      let oc = open_out path in
      output_string oc (Tseries.to_perfetto_json ts);
      close_out oc;
      Printf.eprintf "wrote %s (open in https://ui.perfetto.dev; %d counter points)\n" path
        (Tseries.counter_points ts)
    | None -> ()
  in
  Cmd.v
    (Cmd.info "tseries"
       ~doc:
         "Run a workload and dump the crash-surviving metrics time-series (the \"black \
          box\"): one fixed-width sample per checkpoint commit, retained in a ring that \
          survives the power failures injected with --crash. Exports: $(b,--csv) the \
          retained window, $(b,--perfetto) a counter-track timeline, $(b,--json) the \
          structured dump.")
    Term.(
      const run $ workload_arg $ ops_arg $ interval_arg $ crashes_arg $ seed_arg $ last $ csv
      $ perfetto $ json_arg)

let slo_cmd =
  let module Slo = Treesls_obs.Slo in
  let rules_arg =
    Arg.(
      value & opt_all string []
      & info [ "rule" ] ~docv:"RULE"
          ~doc:
            "Watch this rule instead of the defaults (repeatable), e.g. \
             $(b,\"p99(enq2vis) < 2*interval\") or $(b,\"waf < 3\"). See the rule grammar in \
             DESIGN.md section 15.")
  in
  let run workload ops interval crashes seed rule_texts json =
    let sys = boot_configured interval in
    let slo = System.slo sys in
    (* replace the rule set before driving so the watchdog evaluates it at
       every commit of the run *)
    if rule_texts <> [] then begin
      let rules =
        List.map
          (fun s ->
            match Slo.rule_of_string s with
            | Ok r -> r
            | Error e ->
              Printf.eprintf "slo: cannot parse rule %S: %s\n" s e;
              exit 1)
          rule_texts
      in
      Slo.set_rules slo rules
    end;
    drive sys ~workload ~ops ~crashes ~seed;
    if json then print_json (Slo.to_json slo) else Format.printf "%a@." Slo.pp slo;
    if not (Slo.healthy slo) then exit 1
  in
  Cmd.v
    (Cmd.info "slo"
       ~doc:
         "Run a workload under the SLO watchdog and print its health report: per-rule \
          evaluations, fires and the retained alert log. Rules are evaluated against the \
          black-box sample of every checkpoint commit; exits 1 if any rule fired.")
    Term.(
      const run $ workload_arg $ ops_arg $ interval_arg $ crashes_arg $ seed_arg $ rules_arg
      $ json_arg)

let wear_cmd =
  let module Wearmap = Treesls_obs.Wearmap in
  let top_n =
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"N" ~doc:"Hottest pages to show")
  in
  let heatmap =
    Arg.(
      value
      & opt (some string) None
      & info [ "heatmap" ] ~docv:"FILE"
          ~doc:"Write the full per-page wear heatmap (CSV, one line per touched page) to FILE")
  in
  let run workload ops interval crashes seed top_n heatmap json =
    let sys = boot_configured interval in
    System.ensure_wear_backing sys;
    drive sys ~workload ~ops ~crashes ~seed;
    let wm = System.wearmap sys in
    let owners =
      let tbl = Nvm_census.page_owners (System.manager sys) in
      fun p -> Hashtbl.find_opt tbl p
    in
    if json then print_json (Wearmap.to_json ~owners ~top_n wm)
    else begin
      Printf.printf "nvm writes: %d (%d bytes) across %d pages touched\n"
        (Wearmap.total_writes wm) (Wearmap.total_bytes wm) (Wearmap.pages_tracked wm);
      Printf.printf "page copies: %d charged %d ns by the cost model\n" (Wearmap.copy_pages wm)
        (Wearmap.copy_ns wm);
      (match Manager.last_report (System.manager sys) with
      | Some r ->
        Printf.printf "last checkpoint: %d physical B / %d logical dirty B -> waf %.2f\n"
          r.Report.nvm_bytes_written r.Report.logical_dirty_bytes (Report.waf r)
      | None -> ());
      Printf.printf "wear skew: max=%d writes mean=%.1f max/mean=%.1f gini=%.3f\n"
        (Wearmap.max_writes wm) (Wearmap.mean_writes wm) (Wearmap.skew wm) (Wearmap.gini wm);
      Printf.printf "\n  %-18s %10s %14s\n" "subsystem" "writes" "bytes";
      List.iter
        (fun (name, writes, bytes) -> Printf.printf "  %-18s %10d %14d\n" name writes bytes)
        (Wearmap.subsystems wm);
      Printf.printf "\nhottest %d pages:\n" top_n;
      List.iter
        (fun (page, writes, bytes) ->
          Printf.printf "  page %6d %8d writes %12d B  %s\n" page writes bytes
            (Option.value ~default:"-" (owners page)))
        (Wearmap.top wm ~n:top_n)
    end;
    match heatmap with
    | Some path ->
      let oc = open_out path in
      output_string oc (Wearmap.to_csv ~owners wm);
      close_out oc;
      Printf.eprintf "wrote %s (page,writes,bytes,owner per touched page)\n" path
    | None -> ()
  in
  Cmd.v
    (Cmd.info "wear"
       ~doc:
         "Run a workload, then report NVM write/wear telemetry: total physical bytes by \
          writing subsystem, last-checkpoint write amplification, per-page wear skew and the \
          hottest pages with their owners; $(b,--heatmap) exports the full per-page \
          distribution as CSV, $(b,--json) the summary as JSON")
    Term.(
      const run $ workload_arg $ ops_arg $ interval_arg $ crashes_arg $ seed_arg $ top_n
      $ heatmap $ json_arg)

let diff_cmd =
  let from_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "from" ] ~docv:"V" ~doc:"Older version (default: second-newest archived)")
  in
  let to_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "to" ] ~docv:"V" ~doc:"Newer version (default: newest archived)")
  in
  let window =
    Arg.(
      value & opt int 64
      & info [ "window" ] ~docv:"N" ~doc:"Eidetic archive window (checkpoint versions kept)")
  in
  let run workload ops interval seed from_v to_v window json =
    let sys = boot_configured interval in
    let eid = Eidetic.attach ~max_versions:window (System.manager sys) in
    drive sys ~workload ~ops ~crashes:0 ~seed;
    match List.rev (Eidetic.versions eid) with
    | last :: prev :: _ ->
      let from_version = Option.value from_v ~default:prev in
      let to_version = Option.value to_v ~default:last in
      let d = Audit.diff (System.manager sys) eid ~from_version ~to_version in
      if json then print_json (Audit.diff_to_json d)
      else Format.printf "%a@." Audit.pp_diff d
    | _ ->
      prerr_endline "fewer than two checkpoints were archived; nothing to diff";
      exit 1
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Run a workload under an eidetic archive, then explain what changed between two \
          checkpoint versions: objects added/removed/mutated and pages by copy class")
    Term.(
      const run $ workload_arg $ ops_arg $ interval_arg $ seed_arg $ from_arg $ to_arg $ window
      $ json_arg)

let run_cmd =
  let run workload ops interval crashes seed =
    let sys = boot_configured interval in
    let t_host = Unix.gettimeofday () in
    drive sys ~workload ~ops ~crashes ~seed;
    let host = Unix.gettimeofday () -. t_host in
    let sim_ms = float_of_int (System.now_ns sys) /. 1e6 in
    let stats = System.stats sys in
    Printf.printf "%d ops in %.1f ms simulated (%.2f s host)\n" ops sim_ms host;
    Printf.printf "checkpoints: %d   page faults: %d (cow %d, alloc %d)   syscalls: %d\n"
      (System.version sys) stats.Kernel.page_faults stats.Kernel.cow_faults
      stats.Kernel.alloc_faults stats.Kernel.syscalls;
    (match Manager.last_report (System.manager sys) with
    | Some r -> Format.printf "last %a@." Report.pp r
    | None -> ());
    Printf.printf "checkpoint footprint: %.2f MiB\n"
      (float_of_int (Manager.checkpoint_bytes (System.manager sys)) /. 1048576.0)
  in
  Cmd.v (Cmd.info "run" ~doc:"Run a workload under periodic checkpointing")
    Term.(const run $ workload_arg $ ops_arg $ interval_arg $ crashes_arg $ seed_arg)

let trace_cmd =
  let last =
    Arg.(
      value & opt int 30
      & info [ "last" ] ~docv:"N" ~doc:"Print the last N retained events (0 = none)")
  in
  let export =
    Arg.(
      value
      & opt (some string) None
      & info [ "export" ] ~docv:"FILE" ~doc:"Write Chrome/Perfetto trace_event JSON to FILE")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose" ]
          ~doc:"Also record the per-operation tier (nvm.alloc, nvm.txn, ipc.call)")
  in
  let requests =
    Arg.(
      value & opt int 0
      & info [ "requests" ] ~docv:"N"
          ~doc:
            "Print the newest N completed request timelines \
             (arrive/handled/enqueue/visible + releasing commit) and the \
             enqueue-to-visible percentiles")
  in
  let run workload ops interval crashes seed last export verbose requests =
    let sys = boot_configured interval in
    System.enable_tracing ~verbose sys;
    drive sys ~workload ~ops ~crashes ~seed;
    let tr = System.trace sys in
    Printf.printf "trace: %d events retained of %d recorded (%d dropped, capacity %d)\n"
      (Trace.length tr) (Trace.total tr) (Trace.dropped tr) (Trace.capacity tr);
    if last > 0 then begin
      let events = Trace.events tr in
      let n = List.length events in
      Printf.printf "last %d events:\n" (min last n);
      List.iteri
        (fun i e -> if i >= n - last then Format.printf "%a@." Trace.pp_event e)
        events
    end;
    if requests > 0 then begin
      let module Rtrace = Treesls_obs.Rtrace in
      let rt = Treesls_obs.Probe.rtrace (System.obs sys) in
      let completed = Rtrace.completed rt in
      Printf.printf "\nrequests: %d completed (%d released, %d internal, %d shed, %d dropped)\n"
        (Rtrace.completed_total rt) (Rtrace.released_count rt) (Rtrace.internal_count rt)
        (Rtrace.shed_count rt) (Rtrace.dropped_count rt);
      let s = Rtrace.enq2vis_summary rt in
      if s.Rtrace.s_count > 0 then
        Printf.printf "enqueue->visible: p50=%.1fus p95=%.1fus p99=%.1fus (n=%d)\n"
          (float_of_int s.Rtrace.s_p50_ns /. 1e3)
          (float_of_int s.Rtrace.s_p95_ns /. 1e3)
          (float_of_int s.Rtrace.s_p99_ns /. 1e3)
          s.Rtrace.s_count;
      Printf.printf "newest %d:\n" (min requests (List.length completed));
      List.iteri
        (fun i r -> if i < requests then Format.printf "%a@." Rtrace.pp_req r)
        completed
    end;
    match export with
    | Some path ->
      System.export_trace_file sys ~path;
      Printf.eprintf "wrote %s (open in https://ui.perfetto.dev or chrome://tracing)\n" path
    | None -> ()
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a workload with tracing enabled; dump the event ring. The ring survives the \
          power failures injected with --crash: pre-crash spans (closed as aborted=true), \
          the crash marker and the restore span all remain inspectable afterwards.")
    Term.(
      const run $ workload_arg $ ops_arg $ interval_arg $ crashes_arg $ seed_arg $ last $ export
      $ verbose $ requests)

let metrics_cmd =
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Dump the registry as JSON") in
  let run workload ops interval crashes seed json =
    let sys = boot_configured interval in
    drive sys ~workload ~ops ~crashes ~seed;
    let snap = System.metrics_snapshot sys in
    if json then print_json (Treesls_obs.Metrics.snapshot_to_json snap)
    else Format.printf "%a@." Treesls_obs.Metrics.pp_snapshot snap
  in
  Cmd.v
    (Cmd.info "metrics" ~doc:"Run a workload and dump the metrics registry")
    Term.(const run $ workload_arg $ ops_arg $ interval_arg $ crashes_arg $ seed_arg $ json)

let rto_cmd =
  let module Rto = Treesls_obs.Rto in
  let action =
    Arg.(
      value
      & pos 0 (enum [ ("last", `Last) ]) `Last
      & info [] ~docv:"ACTION" ~doc:"What to show ($(b,last): the most recent recovery)")
  in
  let flight =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight" ] ~docv:"FILE"
          ~doc:
            "Write the flight-recorder Perfetto timeline — the pre-crash tail of the eternal \
             trace ring merged with the recovery phase spans, crash instant marked — to FILE")
  in
  let crashes =
    Arg.(
      value & opt int 1
      & info [ "crash" ] ~docv:"K"
          ~doc:"Inject K evenly spaced power failures (default 1; 0 records no recovery)")
  in
  let run workload ops interval seed crashes action flight json =
    let sys = boot_configured interval in
    (* tracing on so the flight recorder has a pre-crash tail to capture *)
    System.enable_tracing sys;
    drive sys ~workload ~ops ~crashes ~seed;
    match System.last_recovery sys with
    | None ->
      prerr_endline "rto: no recovery recorded (need at least one crash: --crash 1)";
      exit 1
    | Some r ->
      (match action with `Last -> ());
      if json then print_json (Rto.to_json r) else Format.printf "%a" Rto.pp r;
      (match flight with
      | Some path ->
        ignore (System.export_flight_file sys ~path);
        Printf.eprintf "wrote %s (open in https://ui.perfetto.dev or chrome://tracing)\n" path
      | None -> ())
  in
  Cmd.v
    (Cmd.info "rto"
       ~doc:
         "Run a workload with injected power failures and report the last recovery: per-phase \
          restore-time (RTO) breakdown, downtime, pages/objects restored vs dropped, \
          time-to-first-request; --flight exports the crash flight-recorder timeline")
    Term.(
      const run $ workload_arg $ ops_arg $ interval_arg $ seed_arg $ crashes $ action $ flight
      $ json_arg)

let crashtest_cmd =
  let module C = Treesls_crashtest.Crashtest in
  let module H = Treesls_util.Histogram in
  let module Rto = Treesls_obs.Rto in
  let ops =
    Arg.(
      value & opt int C.default_config.C.ops
      & info [ "n"; "ops" ] ~docv:"N" ~doc:"Length of the workload trace")
  in
  let max_commits =
    Arg.(
      value
      & opt int C.default_config.C.commit_cap
      & info [ "max-commits" ] ~docv:"N"
          ~doc:"Max journal commit points sampled (each explored in all four phases)")
  in
  let schedule =
    Arg.(
      value
      & opt (some string) None
      & info [ "schedule" ] ~docv:"REPRO"
          ~doc:
            "Replay one schedule instead of sweeping: a reproducer string like \
             $(b,seed=42;ops=280;mode=async;site:ckpt.drain.settled:3) (or just the point, \
             with --seed/--ops/--async). The string's mode wins over --async; strings without \
             one replay eager. A failing schedule is shrunk to its minimal trace prefix.")
  in
  let async =
    Arg.(
      value & flag
      & info [ "async" ]
          ~doc:
            "Run with the asynchronous drain on (batch 1), as the async sweeps do: \
             checkpoints stage a window that settles over the following ops")
  in
  let with_bug =
    Arg.(
      value & flag
      & info [ "with-recovery-bug" ]
          ~doc:
            "Deliberately re-introduce the Mid_apply journal-replay bug: the sweep must then \
             report failures (sanity check that the harness can catch real bugs)")
  in
  let run seed ops max_commits schedule with_bug async json =
    let cfg =
      {
        C.default_config with
        C.seed;
        ops;
        commit_cap = max_commits;
        recovery_bug = with_bug;
        async;
      }
    in
    match schedule with
    | Some s -> (
      let parsed =
        match C.parse_reproducer ~base:cfg s with
        | Some _ as p -> p
        | None -> Option.map (fun p -> (cfg, p)) (C.point_of_string s)
      in
      match parsed with
      | None ->
        prerr_endline ("cannot parse schedule: " ^ s);
        exit 1
      | Some (cfg, point) ->
        let result, _timers = C.run_one_profiled cfg point in
        let outcome = result.C.outcome in
        Printf.printf "%s: %s\n%!" (C.reproducer cfg point) (C.outcome_to_string outcome);
        (match result.C.recovery with
        | Some r when C.outcome_is_pass outcome -> Format.printf "%a%!" Rto.pp r
        | Some _ | None -> ());
        if not (C.outcome_is_pass outcome) then begin
          let small = C.shrink cfg point in
          Printf.printf "shrunk to: %s\n" (C.reproducer small point);
          exit 2
        end)
    | None ->
      let progress i n =
        if not json && (i mod 50 = 0 || i = n - 1) then
          Printf.eprintf "\rschedule %d/%d%!" (i + 1) n
      in
      let sweep = C.run ~progress cfg in
      if not json then prerr_newline ();
      let n_results = List.length sweep.C.results in
      if json then begin
        let schedule (r : C.result) =
          [
            ("repro", Json.Str (C.reproducer cfg r.C.point));
            ("outcome", Json.Str (C.outcome_to_string r.C.outcome));
          ]
        in
        let recovery (rc : Rto.record) =
          [
            ("recovery_ns", Json.int rc.Rto.r_total_ns);
            ("downtime_ns", Json.int rc.Rto.r_downtime_ns);
            ("untracked_ns", Json.int rc.Rto.r_untracked_ns);
            ("phases", Json.Obj (List.map (fun (name, ns) -> (name, Json.int ns)) rc.Rto.r_phases));
          ]
        in
        let timer (name, h) =
          ( name,
            Json.Obj
              [
                ("n", Json.int (H.count h));
                ("min_ns", Json.int (H.min_value h));
                ("mean_ns", Json.fixed 1 (H.mean h));
                ("p99_ns", Json.int (H.percentile h 99.0));
              ] )
        in
        print_json
          (Json.Obj
             [
               ("commit_points", Json.int sweep.C.commit_points);
               ("schedules", Json.int n_results);
               ("commit_schedules", Json.int sweep.C.commit_schedules);
               ("passed", Json.int sweep.C.passed);
               ("failed", Json.int (List.length sweep.C.failed));
               ("failures", Json.Arr (List.map (fun r -> Json.Obj (schedule r)) sweep.C.failed));
               ( "per_schedule",
                 Json.Arr
                   (List.map
                      (fun (r : C.result) ->
                        Json.Obj
                          (schedule r @ Option.fold ~none:[] ~some:recovery r.C.recovery))
                      sweep.C.results) );
               ("rto", Json.Obj (List.map timer sweep.C.rto_stats));
             ])
      end
      else begin
        Printf.printf "trace: seed=%d ops=%d -> %d journal commit points\n" cfg.C.seed cfg.C.ops
          sweep.C.commit_points;
        Printf.printf "crash sites:";
        List.iter (fun (s, n) -> Printf.printf " %s=%d" s n) sweep.C.site_hits;
        Printf.printf "\nrecovery cut by:";
        List.iter (fun (s, n, cut) -> Printf.printf " %s=%d/%d" s cut n) (C.restore_cuts sweep);
        Printf.printf "\nschedules: %d explored (%d commit-point x phase), %d passed, %d failed\n"
          n_results sweep.C.commit_schedules sweep.C.passed
          (List.length sweep.C.failed);
        List.iter
          (fun (r : C.result) ->
            Printf.printf "  FAIL %s: %s\n" (C.reproducer cfg r.C.point)
              (C.outcome_to_string r.C.outcome))
          sweep.C.failed;
        if sweep.C.rto_stats <> [] then begin
          Printf.printf "recovery time (RTO) across schedules, us:\n";
          Printf.printf "  %-32s %6s %10s %10s %10s\n" "timer" "n" "min" "mean" "p99";
          List.iter
            (fun (name, h) ->
              Printf.printf "  %-32s %6d %10.1f %10.1f %10.1f\n" name (H.count h)
                (float_of_int (H.min_value h) /. 1e3)
                (H.mean h /. 1e3)
                (float_of_int (H.percentile h 99.0) /. 1e3))
            sweep.C.rto_stats
        end
      end;
      if sweep.C.failed <> [] then exit 2
  in
  Cmd.v
    (Cmd.info "crashtest"
       ~doc:
         "Exhaustive crash-schedule exploration: enumerate every crash point of a \
          deterministic trace (journal commit points x phases, checkpoint/restore crash \
          sites, DRAM losses), inject each, and verify recovery with the slsfsck audit plus \
          fingerprint equivalence against one crash-free reference run of the trace; exits 2 \
          on any failing schedule")
    Term.(const run $ seed_arg $ ops $ max_commits $ schedule $ with_bug $ async $ json_arg)

let serve_cmd =
  let module Serve = Treesls_serve.Serve in
  let module Tenant = Treesls_serve.Tenant in
  let module Rtrace = Treesls_obs.Rtrace in
  let tenants_arg =
    Arg.(
      value & opt int 4
      & info [ "tenants" ] ~docv:"N"
          ~doc:"Tenants to serve (each gets its own cap subtree, KV shard and named reply ring)")
  in
  let ops =
    Arg.(
      value & opt int 400
      & info [ "n"; "ops" ] ~docv:"N" ~doc:"YCSB operations per tenant (open loop)")
  in
  let gap =
    Arg.(
      value & opt int 10_000
      & info [ "gap-ns" ] ~docv:"NS" ~doc:"Per-tenant arrival gap in nanoseconds")
  in
  let eager =
    Arg.(
      value & flag
      & info [ "eager" ]
          ~doc:
            "Ablation mode: eager full-walk checkpoints instead of the default \
             incremental walk + asynchronous drain")
  in
  let run tenants ops interval crashes seed gap eager json =
    if tenants <= 0 then begin
      prerr_endline "serve: need at least one tenant";
      exit 1
    end;
    let features =
      {
        (Treesls_ckpt.State.default_features ()) with
        Treesls_ckpt.State.incremental_walk = not eager;
        async_drain = not eager;
      }
    in
    let nvm_pages = if tenants >= 32 then 1 lsl 18 else 1 lsl 17 in
    let sys = System.boot ~interval_us:(max 1 interval) ~features ~nvm_pages () in
    if not eager then Manager.set_drain_batch (System.manager sys) 16;
    (* split the op budget into crash-separated segments: every tenant's
       ring and store must come back by name after each power failure *)
    let segments = crashes + 1 in
    let per_segment = max 1 (ops / segments) in
    let cfg =
      {
        Serve.default_cfg with
        Serve.tenants;
        ops_per_tenant = per_segment;
        gap_ns = gap;
        seed = Int64.of_int seed;
      }
    in
    let srv = Serve.create sys cfg in
    for seg = 1 to segments do
      Serve.run srv;
      if seg < segments then begin
        let r = System.crash_and_recover sys in
        Printf.eprintf "crash after segment %d: rolled back to v%d (%d objects restored)\n%!" seg
          r.Treesls_ckpt.Restore.version r.Treesls_ckpt.Restore.restored_objects
      end
    done;
    let rows = Serve.rows srv in
    let attribution = Serve.attribution srv in
    let total_attr_ns = List.fold_left (fun a (_, ns) -> a + ns) 0 attribution in
    let us v = float_of_int v /. 1e3 in
    if json then begin
      let row (r : Serve.row) =
        Json.Obj
          [
            ("tenant", Json.Str r.Serve.r_tenant);
            ("sent", Json.int r.Serve.r_sent);
            ("shed", Json.int r.Serve.r_shed);
            ("delivered", Json.int r.Serve.r_delivered);
            ("keys", Json.int r.Serve.r_keys);
            ("enq2vis_p50_ns", Json.int r.Serve.r_enq2vis.Rtrace.s_p50_ns);
            ("enq2vis_p99_ns", Json.int r.Serve.r_enq2vis.Rtrace.s_p99_ns);
            ("e2e_p99_ns", Json.int r.Serve.r_e2e.Rtrace.s_p99_ns);
            ("walk_ns", Json.int r.Serve.r_group_ns);
            ("walk_objects", Json.int r.Serve.r_group_objects);
          ]
      in
      print_json
        (Json.Obj
           [
             ("tenants", Json.Arr (List.map row rows));
             ("commits", Json.int (List.length (Serve.reports srv)));
             ("stw_mean_ns", Json.fixed 0 (Serve.stw_mean_ns srv));
             ("captree_ns", Json.int (Serve.captree_total srv));
             ("attribution_exact", Json.Bool (Serve.attribution_exact srv));
           ])
    end
    else begin
      Printf.printf "%d tenants x %d ops (%dns gap, %dus interval, %s): %d commits\n\n" tenants
        (per_segment * segments) gap (max 1 interval)
        (if eager then "eager full-walk" else "incremental+async")
        (List.length (Serve.reports srv));
      Printf.printf "  %-6s %8s %6s %10s %6s %12s %12s %12s %10s\n" "tenant" "sent" "shed"
        "delivered" "keys" "e2v p50 us" "e2v p99 us" "e2e p99 us" "walk share";
      List.iter
        (fun (r : Serve.row) ->
          Printf.printf "  %-6s %8d %6d %10d %6d %12.1f %12.1f %12.1f %9.1f%%\n" r.Serve.r_tenant
            r.Serve.r_sent r.Serve.r_shed r.Serve.r_delivered r.Serve.r_keys
            (us r.Serve.r_enq2vis.Rtrace.s_p50_ns)
            (us r.Serve.r_enq2vis.Rtrace.s_p99_ns)
            (us r.Serve.r_e2e.Rtrace.s_p99_ns)
            (if total_attr_ns = 0 then 0.0
             else 100.0 *. float_of_int r.Serve.r_group_ns /. float_of_int total_attr_ns))
        rows;
      Printf.printf "\ncheckpoint walk attribution (all commits):\n";
      List.iteri
        (fun i (g, ns) ->
          if i < tenants + 4 then
            Printf.printf "  %-16s %10.1fus %9.1f%%\n" g (us ns)
              (100.0 *. float_of_int ns /. float_of_int (max 1 total_attr_ns)))
        attribution;
      Printf.printf "\nmean STW %.1fus; per-group walk ns sum %s captree ns\n"
        (Serve.stw_mean_ns srv /. 1e3)
        (if Serve.attribution_exact srv then "== (exact)" else "!= (BROKEN)")
    end;
    if not (Serve.attribution_exact srv) then exit 2
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Multi-tenant YCSB serving: N tenants, each an isolated capability subtree with its \
          own KV shard and named persistent reply ring, driven open-loop; prints per-tenant \
          visible-latency percentiles and the per-subtree checkpoint walk attribution. \
          Power failures injected with --crash land between segments; every tenant's ring \
          is reclaimed strictly by name on recovery.")
    Term.(
      const run $ tenants_arg $ ops $ interval_arg $ crashes_arg $ seed_arg $ gap $ eager
      $ json_arg)

let () =
  let doc = "TreeSLS whole-system persistent microkernel simulator" in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "treesls_cli" ~doc)
          [
            census_cmd; ckpt_cmd; run_cmd; serve_cmd; trace_cmd; metrics_cmd; inspect_cmd;
            wear_cmd; doctor_cmd; diff_cmd; crashtest_cmd; rto_cmd; tseries_cmd; slo_cmd;
          ]))
