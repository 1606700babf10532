(* The benchmark's specification, in one place: workloads, metrics with
   their units, directions and regression bounds, and for every per-layer
   metric the end-to-end metric it should move and on which workloads.
   BENCHMARK.json is printed from this module ([run.exe --emit-spec]). *)

type better = Lower | Higher

(* Which clock a metric is read from.  Virtual and count metrics repeat
   exactly for a given seed and scale; host metrics carry run-to-run noise. *)
type clock = Host | Virtual | Count

(* [Headline] metrics are measured on every workload and never read 0: they
   are BENCHMARK.json's end-to-end metrics.  [Scoped] metrics are end-to-end
   too but exist only on some workloads, and [Layer] metrics describe one
   layer; BENCHMARK.json lists both under per_layer. *)
type kind = Headline | Scoped | Layer

type metric = {
  name : string;
  unit_ : string;
  better : better;
  clock : clock;
  kind : kind;
  bound : float;  (** share of the base median by which it may worsen *)
  on : string list;  (** workloads that emit it *)
  traced : bool;  (** measured only by the traced pass *)
  moves : string list;  (** end-to-end metrics a change in this layer should move *)
  moves_on : string list;  (** ... on these workloads *)
}

type workload = { w_name : string; w_why : string }

let serve_skewed = "serve_skewed"
let serve_write = "serve_write"
let recover_live = "recover_live"
let crash_sweep = "crash_sweep"

let workloads =
  [
    {
      w_name = serve_skewed;
      w_why =
        "64 Zipf-picked tenants, YCSB-B, incremental walk + async drain: the capture walk skips \
         ~98% of objects and ticks dominate host time, so walk and drain changes show";
    };
    {
      w_name = serve_write;
      w_why =
        "16 tenants, YCSB-A with 1 KiB values far over the DRAM cache, eager commit: page copies \
         and faults bound the pause; a drain-only change should not move it";
    };
    {
      w_name = recover_live;
      w_why =
        "16 serving tenants power-cut 1000 times, every 100 requests: restore at serving scale, \
         mid-drain cuts and exactly-once reply delivery across crashes";
    };
    {
      w_name = crash_sweep;
      w_why =
        "clean and async crash-schedule sweeps (ops 60): the host cost of crash exploration, with \
         no serving path";
    };
  ]

let all = List.map (fun w -> w.w_name) workloads
let serving = [ serve_skewed; serve_write ]
let serve_path = [ serve_skewed; serve_write; recover_live ]

(* Bounds.  Virtual-clock and count metrics repeat exactly for a seed.
   Host metrics are scaled to reference speed (see Reference); across two
   sets of ten seeds per workload their quartile distance stayed within
   3.4% of the median for throughput and 2.3% for memory, and the set
   medians within 3%: each bound is over three times that.  Set-up time
   gets the largest bound. *)
let bound_of name = function
  | Virtual | Count -> 0.01
  | Host -> ( match name with "setup_s" -> 0.25 | "host_mem_mb" -> 0.08 | _ -> 0.15)

let m ?(traced = false) ?(moves = []) ?(moves_on = []) ~kind ~clock ~better ~on name unit_ =
  { name; unit_; better; clock; kind; bound = bound_of name clock; on; traced; moves; moves_on }

let headline = m ~kind:Headline ~on:all
let scoped = m ~kind:Scoped

let layer ?traced ~clock ~on ~moves ~moves_on ?(better = Lower) name unit_ =
  m ?traced ~moves ~moves_on ~kind:Layer ~clock ~better ~on name unit_

(* Every writer context the wear map attributes NVM bytes to. *)
let wear_subsystems =
  [
    "app"; "extsync"; "nvm.journal"; "nvm.meta"; "nvm.swap"; "ckpt.captree"; "ckpt.snapshot";
    "ckpt.cow"; "ckpt.cow_fault"; "ckpt.hybrid"; "ckpt.drain"; "restore"; "restore.journal";
  ]

(* Restore phases of the recovery profile, in the order restore runs them. *)
let restore_phases =
  [
    "journal_replay"; "meta_validate"; "drain_settle"; "oroot_select"; "page_remap"; "materialize";
    "captree_rebuild"; "oroot_gc"; "buddy_reconcile"; "ring_reattach";
  ]

let metrics =
  [
    headline ~clock:Host ~better:Lower "setup_s" "s";
    headline ~clock:Host ~better:Higher "host_ops_per_s" "op/s";
    headline ~clock:Host ~better:Lower "host_mem_mb" "MiB";
    scoped ~clock:Virtual ~better:Lower ~on:serving "lat_p50_us" "us";
    scoped ~clock:Virtual ~better:Lower ~on:serving "lat_p99_us" "us";
    scoped ~clock:Virtual ~better:Higher ~on:serving "vtput_kreq_s" "kreq/s";
    scoped ~clock:Virtual ~better:Lower ~on:serving "stw_p50_us" "us";
    scoped ~clock:Virtual ~better:Lower ~on:serving "stw_p99_us" "us";
    scoped ~clock:Virtual ~better:Lower ~on:serving "waf" "ratio";
    scoped ~clock:Virtual ~better:Lower ~on:serving "ckpt_nvm_mb" "MiB";
    scoped ~clock:Virtual ~better:Lower ~on:[ recover_live ] "downtime_p50_us" "us";
    scoped ~clock:Virtual ~better:Lower ~on:[ recover_live ] "downtime_p99_us" "us";
    scoped ~clock:Count ~better:Lower ~on:all "fail_pct" "%";
  ]
  @ [
      layer ~traced:true ~clock:Host ~on:serve_path ~moves:[ "host_ops_per_s" ] ~moves_on:serving
        "serve.step_host_us.p50" "us";
      layer ~traced:true ~clock:Host ~on:serve_path ~moves:[ "host_ops_per_s" ] ~moves_on:serving
        "serve.step_host_us.p99" "us";
      layer ~traced:true ~clock:Virtual ~on:serve_path ~moves:[ "vtput_kreq_s"; "lat_p50_us" ]
        ~moves_on:serving "serve.step_vus.mean" "us";
    ]
  @ List.map
      (fun n ->
        layer ~clock:Count ~on:serve_path ~moves:[ "vtput_kreq_s"; "stw_p99_us" ]
          ~moves_on:[ serve_write ] n "1/req")
      [ "kernel.page_faults_per_req"; "kernel.cow_faults_per_req"; "kernel.ipc_calls_per_req" ]
  @ [
      layer ~traced:true ~clock:Host ~on:serve_path ~moves:[ "host_ops_per_s" ]
        ~moves_on:[ serve_skewed ] "ckpt.tick_host_us.p50" "us";
      layer ~traced:true ~clock:Host ~on:serve_path ~moves:[ "host_ops_per_s" ]
        ~moves_on:[ serve_skewed ] "ckpt.tick_host_us.p99" "us";
      layer ~traced:true ~clock:Host ~on:serve_path ~moves:[ "host_ops_per_s" ]
        ~moves_on:[ serve_skewed ] "ckpt.host_share_pct" "%";
      layer ~clock:Count ~on:serve_path ~moves:[ "host_ops_per_s" ] ~moves_on:[ serve_skewed ]
        "ckpt.objects_walked" "count";
      layer ~clock:Count ~on:serve_path ~moves:[ "host_ops_per_s" ] ~moves_on:[ serve_skewed ]
        "ckpt.objects_skipped" "count";
      layer ~clock:Count ~on:serve_path ~moves:[ "host_ops_per_s" ] ~moves_on:[ serve_skewed ]
        ~better:Higher "ckpt.visit_useful_pct" "%";
    ]
  @ List.map
      (fun n ->
        layer ~clock:Virtual ~on:serve_path ~moves:[ "stw_p50_us"; "stw_p99_us" ]
          ~moves_on:[ serve_skewed ] n "us")
      [ "ckpt.captree_us.mean"; "ckpt.ipi_us.mean"; "ckpt.others_us.mean" ]
  @ layer ~clock:Virtual ~on:serve_path ~moves:[ "stw_p99_us"; "waf" ] ~moves_on:[ serve_write ]
      "ckpt.hybrid_us.mean" "us"
    :: List.map
         (fun n ->
           layer ~clock:Count ~on:serve_path ~moves:[ "stw_p99_us"; "waf" ]
             ~moves_on:[ serve_write ] n "count")
         [
           "ckpt.pages_protected"; "ckpt.dram_dirty_copied"; "active_list.cached_pages";
           "active_list.migrated_in"; "active_list.migrated_out";
         ]
  @ (let drain ?traced ~clock n u =
       layer ?traced ~clock ~on:serve_path ~moves:[ "lat_p99_us"; "host_ops_per_s" ]
         ~moves_on:[ serve_skewed; recover_live ] n u
     in
     [
       drain ~clock:Count "drain.pages" "count";
       drain ~clock:Count "drain.cow_faults" "count";
       drain ~clock:Virtual "drain.us.mean" "us";
       drain ~clock:Count "drain.backlog_max" "count";
       drain ~traced:true ~clock:Host "drain.host_share_pct" "%";
     ])
  @ List.map
      (fun n ->
        layer ~clock:Count ~on:serve_path ~moves:[ "waf"; "ckpt_nvm_mb" ] ~moves_on:[ serve_write ]
          n "B/req")
      ("nvm.bytes_per_req" :: List.map (fun s -> "nvm." ^ s ^ "_bytes_per_req") wear_subsystems)
  @ [
      layer ~clock:Virtual ~on:serve_path ~moves:[ "lat_p99_us" ] ~moves_on:serving
        "extsync.enq2vis_us.p99" "us";
      layer ~clock:Count ~on:serve_path ~moves:[ "fail_pct" ] ~moves_on:serving "extsync.shed"
        "count";
      layer ~clock:Count ~on:serve_path ~moves:[ "fail_pct" ] ~moves_on:serving ~better:Higher
        "extsync.delivered" "count";
      layer ~clock:Count ~on:[ recover_live ] ~moves:[ "downtime_p99_us" ]
        ~moves_on:[ recover_live ] "extsync.resent" "count";
      layer ~clock:Count ~on:[ recover_live ] ~moves:[ "downtime_p50_us"; "downtime_p99_us" ]
        ~moves_on:[ recover_live ] "restore.mid_drain" "count";
      layer ~clock:Virtual ~on:serve_path ~moves:[ "lat_p99_us" ] ~moves_on:serving
        "loadgen.late_us.p99" "us";
      layer ~traced:true ~clock:Host ~on:[ recover_live ] ~moves:[ "host_ops_per_s" ]
        ~moves_on:[ recover_live ] "restore.host_ms.p50" "ms";
      layer ~traced:true ~clock:Host ~on:[ recover_live ] ~moves:[ "host_ops_per_s" ]
        ~moves_on:[ recover_live ] "restore.host_ms.p99" "ms";
    ]
  @ List.map
      (fun n ->
        layer ~clock:Virtual ~on:[ recover_live ] ~moves:[ "downtime_p50_us"; "downtime_p99_us" ]
          ~moves_on:[ recover_live ] n "us")
      (List.map (fun p -> "restore.phase." ^ p ^ "_us.p50") restore_phases @ [ "restore.ttfr_us.p50" ])
  @ List.map
      (fun n ->
        layer ~clock:Count ~on:[ recover_live ] ~moves:[ "downtime_p50_us"; "downtime_p99_us" ]
          ~moves_on:[ recover_live ] n "count")
      [ "restore.objects"; "restore.pages" ]
  @ [
      layer ~traced:true ~clock:Host ~on:[ crash_sweep ] ~moves:[ "host_ops_per_s" ]
        ~moves_on:[ crash_sweep ] "crashtest.sched_host_ms.p50" "ms";
      layer ~traced:true ~clock:Host ~on:[ crash_sweep ] ~moves:[ "host_ops_per_s" ]
        ~moves_on:[ crash_sweep ] "crashtest.sched_host_ms.p99" "ms";
      layer ~clock:Host ~on:[ crash_sweep ] ~moves:[ "setup_s" ] ~moves_on:[ crash_sweep ]
        "crashtest.enum_host_s" "s";
      layer ~clock:Count ~on:[ crash_sweep ] ~moves:[ "host_ops_per_s" ] ~moves_on:[ crash_sweep ]
        "crashtest.schedules" "count";
      layer ~clock:Count ~on:[ crash_sweep ] ~moves:[ "host_ops_per_s" ] ~moves_on:[ crash_sweep ]
        "crashtest.commit_points" "count";
      layer ~traced:true ~clock:Host ~on:all ~moves:[] ~moves_on:[] "bench.trace_overhead_pct" "%";
      layer ~clock:Host ~on:all ~moves:[] ~moves_on:[] "bench.setup_raw_s" "s";
      layer ~clock:Host ~on:all ~moves:[] ~moves_on:[] ~better:Higher "bench.host_ops_raw_per_s"
        "op/s";
      layer ~clock:Host ~on:all ~moves:[] ~moves_on:[] "bench.ref_loop_ms" "ms";
    ]

let find name = List.find_opt (fun x -> x.name = name) metrics
let declared_on w = List.filter (fun x -> List.mem w x.on) metrics
let is_end_to_end x = x.kind <> Layer

(* Seconds a run of one workload measures for (at least one whole pass). *)
let run_seconds = 20

let better_name = function Lower -> "lower" | Higher -> "higher"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* BENCHMARK.json: workloads, the headline metrics as end_to_end with their
   bounds, and every other metric as per_layer. *)
let to_benchmark_json () =
  let b = Buffer.create 8192 in
  let item first fmt =
    Buffer.add_string b (if first then "\n    " else ",\n    ");
    Printf.bprintf b fmt
  in
  Buffer.add_string b "{\n  \"command\": [";
  Buffer.add_string b
    (String.concat ", "
       (List.map json_string
          [ "dune"; "exec"; "--cache=disabled"; "--display"; "quiet"; "benchmark/run.exe"; "--" ]));
  Buffer.add_string b "],\n  \"paths\": [\"benchmark/\"],\n";
  Printf.bprintf b "  \"run_seconds\": %d,\n  \"workloads\": [" run_seconds;
  List.iteri
    (fun i w ->
      item (i = 0) "{\"name\": %s, \"why\": %s}" (json_string w.w_name) (json_string w.w_why))
    workloads;
  Buffer.add_string b "\n  ],\n  \"end_to_end\": [";
  List.iteri
    (fun i x ->
      item (i = 0) "{\"name\": %s, \"unit\": %s, \"better\": %s, \"bound\": %g}"
        (json_string x.name) (json_string x.unit_)
        (json_string (better_name x.better))
        x.bound)
    (List.filter (fun x -> x.kind = Headline) metrics);
  Buffer.add_string b "\n  ],\n  \"per_layer\": [";
  List.iteri
    (fun i x ->
      item (i = 0) "{\"name\": %s, \"unit\": %s, \"better\": %s}" (json_string x.name)
        (json_string x.unit_)
        (json_string (better_name x.better)))
    (List.filter (fun x -> x.kind <> Headline) metrics);
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b
