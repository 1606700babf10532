(* Shared machinery for the experiment harness: booting configured
   systems, launching the paper's workloads, and the open-/closed-loop
   drivers that measure simulated latency and throughput. *)

module System = Treesls.System
module Kernel = Treesls_kernel.Kernel
module Manager = Treesls_ckpt.Manager
module Report = Treesls_ckpt.Report
module State = Treesls_ckpt.State
module Census = Treesls_cap.Census
module Kobj = Treesls_cap.Kobj
module Rng = Treesls_util.Rng
module Stats = Treesls_util.Stats
module Histogram = Treesls_util.Histogram
module Table = Treesls_util.Table
module Clock = Treesls_sim.Clock
module Kv_app = Treesls_apps.Kv_app
module Lsm = Treesls_apps.Lsm
module Sqlite = Treesls_apps.Sqlite
module Phoenix = Treesls_apps.Phoenix
module Kvstore = Treesls_apps.Kvstore

let features ?(incr = true) ?(adaptive = false) ?(async = false) level =
  { State.level; incremental_walk = incr; adaptive_interval = adaptive; async_drain = async }

let full_features () = features State.Hybrid

(* Set by main.exe's [--trace FILE] flag: every system booted through this
   module records a trace, and the last one's ring is exported to FILE when
   the harness exits. *)
let trace_out : string option ref = ref None
let trace_verbose : bool ref = ref false
let traced_sys : System.t option ref = ref None

(* Set by [--smoke]: experiments that support it run a reduced-scale
   configuration suitable for `make ci`. *)
let smoke : bool ref = ref false

module Audit = Treesls_audit.Audit

(* Set by main.exe's [--audit] flag (paranoid mode): every system booted
   through this module re-runs the state auditor after every committed
   checkpoint and after every crash/restore, aborting the harness on any
   Error-severity violation. *)
let audit_mode : bool ref = ref false

let audit_or_die sys ~where =
  let r = System.audit sys in
  if Audit.errors r > 0 then begin
    Format.eprintf "audit failed (%s):@\n%a@." where Audit.pp r;
    exit 2
  end

let boot ?(interval_us = 1000) ?(features = full_features ()) ?(nvm_pages = 1 lsl 16)
    ?adaptive_cfg () =
  let sys = System.boot ~interval_us ~features ~nvm_pages ?adaptive_cfg () in
  if !trace_out <> None then begin
    System.enable_tracing ~verbose:!trace_verbose sys;
    traced_sys := Some sys
  end;
  (* Registered as a service so the volatile on_checkpoint callback is
     re-installed after every recover (setups re-run then) — and the
     setup itself audits, covering boot and each post-restore state. *)
  if !audit_mode then
    System.add_service sys ~name:"audit" ~setup:(fun sys ->
        audit_or_die sys ~where:"boot/post-restore";
        Manager.on_checkpoint (System.manager sys) (fun () ->
            audit_or_die sys ~where:"post-commit"));
  sys

(* ------------------------------------------------------------------ *)
(* The seven workloads of Table 2 / Figure 9, unified behind "one op". *)

type workload =
  | W_default
  | W_sqlite
  | W_leveldb
  | W_wordcount
  | W_kmeans
  | W_redis
  | W_memcached
  | W_pca

let workload_name = function
  | W_default -> "Default"
  | W_sqlite -> "SQLite"
  | W_leveldb -> "LevelDB"
  | W_wordcount -> "WordCount"
  | W_kmeans -> "KMeans"
  | W_redis -> "Redis"
  | W_memcached -> "Memcached"
  | W_pca -> "PCA"

let table2_workloads =
  [ W_default; W_sqlite; W_leveldb; W_wordcount; W_kmeans; W_redis; W_memcached ]

type launched = {
  step : unit -> unit;  (** one application operation *)
  refresh : unit -> unit;  (** post-recovery rebinding *)
  touched_mib : unit -> float;  (** runtime memory touched by the app *)
}

let mib_of_pages sys pages =
  float_of_int (pages * (Kernel.cost (System.kernel sys)).Treesls_sim.Cost.page_size)
  /. (1024.0 *. 1024.0)

let census sys = Census.collect ~root:(Kernel.root (System.kernel sys))

let launch sys rng workload =
  let base_pages = (census sys).Census.app_pages in
  let touched () = mib_of_pages sys ((census sys).Census.app_pages - base_pages) in
  match workload with
  | W_default ->
    {
      step = (fun () -> Clock.advance (System.clock sys) 20_000);
      refresh = (fun () -> ());
      touched_mib = touched;
    }
  | W_sqlite ->
    let app = Sqlite.launch sys in
    (* preload some rows *)
    for i = 0 to 4_999 do
      Sqlite.op_step app Sqlite.Insert i
    done;
    { step = (fun () -> Sqlite.step app rng); refresh = (fun () -> Sqlite.refresh app); touched_mib = touched }
  | W_leveldb ->
    let app = Lsm.launch sys Lsm.Leveldb in
    let n = ref 0 in
    {
      step =
        (fun () ->
          Lsm.fillbatch app ~base:!n ~count:16;
          n := !n + 16);
      refresh = (fun () -> Lsm.refresh app);
      touched_mib = touched;
    }
  | W_wordcount ->
    let app = Phoenix.launch sys Phoenix.Wordcount in
    { step = (fun () -> Phoenix.step app rng); refresh = (fun () -> Phoenix.refresh app); touched_mib = touched }
  | W_kmeans ->
    let app = Phoenix.launch sys Phoenix.Kmeans in
    { step = (fun () -> Phoenix.step app rng); refresh = (fun () -> Phoenix.refresh app); touched_mib = touched }
  | W_pca ->
    let app = Phoenix.launch sys Phoenix.Pca in
    { step = (fun () -> Phoenix.step app rng); refresh = (fun () -> Phoenix.refresh app); touched_mib = touched }
  | W_redis ->
    let app = Kv_app.launch ~keys_hint:40_000 ~value_size:1024 sys Kv_app.Redis in
    for i = 0 to 9_999 do
      Kv_app.set_i app i
    done;
    (* skewed keys: Redis's SET benchmark concentrates on a hot set, the
       best case for hybrid copy (Table 4: 89% of faults eliminated) *)
    let zipf = Treesls_util.Zipf.create ~theta:1.1 ~n:4_000 rng in
    {
      step = (fun () -> Kv_app.set_i app (Treesls_util.Zipf.next zipf));
      refresh = (fun () -> Kv_app.refresh app);
      touched_mib = touched;
    }
  | W_memcached ->
    let app = Kv_app.launch ~keys_hint:40_000 ~value_size:100 sys Kv_app.Memcached in
    for i = 0 to 9_999 do
      Kv_app.set_i app i
    done;
    {
      step = (fun () -> Kv_app.set_i app (Rng.int rng 40_000));
      refresh = (fun () -> Kv_app.refresh app);
      touched_mib = touched;
    }

(* ------------------------------------------------------------------ *)
(* Drivers *)

(* Closed loop: issue [n] ops back to back, taking periodic checkpoints. *)
let run_ops sys ~n step =
  for _ = 1 to n do
    step ();
    ignore (System.tick sys)
  done

(* Collect the reports of the checkpoints that fire while running. *)
let collect_reports sys ~n step =
  let reports = ref [] in
  for _ = 1 to n do
    step ();
    match System.tick sys with Some r -> reports := r :: !reports | None -> ()
  done;
  List.rev !reports

type lat_result = {
  p50_us : float;
  p95_us : float;
  p99_us : float;
  mean_us : float;
  tput_kops : float;
  sim_s : float;
}

let lat_of_histogram h ~ops ~sim_ns =
  let us v = float_of_int v /. 1e3 in
  {
    p50_us = us (Histogram.percentile h 50.0);
    p95_us = us (Histogram.percentile h 95.0);
    p99_us = us (Histogram.percentile h 99.0);
    mean_us = Histogram.mean h /. 1e3;
    tput_kops = (if sim_ns = 0 then 0.0 else float_of_int ops /. (float_of_int sim_ns /. 1e9) /. 1e3);
    sim_s = float_of_int sim_ns /. 1e9;
  }

(* Open loop: requests arrive every [gap_ns]; a request arriving during a
   checkpoint pause queues behind it, so pause time surfaces in the tail
   latency exactly as in the paper's client-server measurements. *)
let open_loop sys ~n ~gap_ns step =
  let h = Histogram.create () in
  let t0 = System.now_ns sys in
  for i = 0 to n - 1 do
    let arrival = t0 + (i * gap_ns) in
    ignore (System.advance_to sys arrival);
    step i;
    ignore (System.tick sys);
    Histogram.add h (System.now_ns sys - arrival)
  done;
  let sim_ns = System.now_ns sys - t0 in
  lat_of_histogram h ~ops:n ~sim_ns

(* Closed loop with latency = service time (ops do not queue). *)
let closed_loop_lat sys ~n step =
  let h = Histogram.create () in
  let t0 = System.now_ns sys in
  for i = 0 to n - 1 do
    let s = System.now_ns sys in
    step i;
    ignore (System.tick sys);
    Histogram.add h (System.now_ns sys - s)
  done;
  let sim_ns = System.now_ns sys - t0 in
  lat_of_histogram h ~ops:n ~sim_ns

let f1 v = Printf.sprintf "%.1f" v
let f2 v = Printf.sprintf "%.2f" v

(* ------------------------------------------------------------------ *)
(* Machine-readable results ([--json FILE] / [--json-dir DIR]).
   Experiments call [emit_row] for each measured configuration; the rows
   accumulate under the experiment [main.exe] is currently running and are
   written out once at harness exit.  This seeds the perf trajectory: a
   row is one (config, metrics) point, e.g. one checkpoint interval of a
   latency sweep. *)

let json_out : string option ref = ref None
let json_dir : string option ref = ref None
let current_exp : string ref = ref ""

(* (experiment, config, metrics), oldest first *)
let results : (string * (string * string) list * (string * float) list) list ref = ref []

let emit_row ~config ~metrics = results := !results @ [ (!current_exp, config, metrics) ]

module Json = Treesls_util.Json

let experiments_json rows =
  let names =
    List.fold_left (fun acc (e, _, _) -> if List.mem e acc then acc else acc @ [ e ]) [] rows
  in
  (* trim the common integral case; %.6g otherwise *)
  let num v =
    Json.Num
      (if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
       else Printf.sprintf "%.6g" v)
  in
  let row (_, config, metrics) =
    Json.Obj
      [
        ("config", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) config));
        ("metrics", Json.Obj (List.map (fun (k, v) -> (k, num v)) metrics));
      ]
  in
  let experiment name =
    let mine = List.filter (fun (e, _, _) -> e = name) rows in
    Json.Obj [ ("name", Json.Str name); ("rows", Json.Arr (List.map row mine)) ]
  in
  Json.to_string (Json.Obj [ ("experiments", Json.Arr (List.map experiment names)) ])

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  output_char oc '\n';
  close_out oc

let finish_json () =
  let rows = !results in
  (match !json_out with
  | Some path when rows <> [] ->
    write_file path (experiments_json rows);
    Printf.printf "\nresults: %d rows -> %s\n" (List.length rows) path
  | Some path -> Printf.printf "\nresults: no rows emitted; nothing to write to %s\n" path
  | None -> ());
  match !json_dir with
  | None -> ()
  | Some dir ->
    let names =
      List.fold_left (fun acc (e, _, _) -> if List.mem e acc then acc else acc @ [ e ]) [] rows
    in
    List.iter
      (fun name ->
        let mine = List.filter (fun (e, _, _) -> e = name) rows in
        let path = Filename.concat dir (Printf.sprintf "BENCH_%s.json" name) in
        write_file path (experiments_json mine);
        Printf.printf "results: %d rows -> %s\n" (List.length mine) path)
      names

let avg_reports reports f =
  match reports with
  | [] -> 0.0
  | l -> List.fold_left (fun acc r -> acc +. float_of_int (f r)) 0.0 l /. float_of_int (List.length l)

(* ------------------------------------------------------------------ *)
(* Trace export + reconciliation *)

module Trace = Treesls_obs.Trace

(* Cross-check the trace against the checkpoint code's own arithmetic: for
   every retained [ckpt.stw] span,

     stw = quiesce + captree + max(0, hybrid - captree) + others + resume

   because the hybrid copy runs on the other cores in parallel with the
   leader's cap-tree walk — only its excess extends the pause.  Returns
   (spans checked, worst absolute discrepancy in ns, Stats of stw
   durations). *)
let reconcile_stw_spans tr =
  let events = Trace.events tr in
  let stw_stats = Stats.create () in
  let checked = ref 0 and worst = ref 0 in
  List.iter
    (fun (stw : Trace.event) ->
      if stw.Trace.name = "ckpt.stw" && stw.Trace.ph = Trace.Complete
         && not (List.mem_assoc "aborted" stw.Trace.args)
      then begin
        let child name =
          List.fold_left
            (fun acc (e : Trace.event) ->
              if e.Trace.name = name && e.Trace.parent = stw.Trace.id then acc + e.Trace.dur_ns
              else acc)
            0 events
        in
        let quiesce = child "ckpt.quiesce" in
        let captree = child "ckpt.captree" in
        let hybrid = child "ckpt.hybrid_copy" in
        let others = child "ckpt.others" in
        let resume = child "ckpt.resume" in
        (* only spans whose children are all still in the ring reconcile *)
        if captree > 0 then begin
          let expected = quiesce + captree + Stdlib.max 0 (hybrid - captree) + others + resume in
          let err = Stdlib.abs (stw.Trace.dur_ns - expected) in
          incr checked;
          if err > !worst then worst := err;
          Stats.add stw_stats (float_of_int stw.Trace.dur_ns)
        end
      end)
    events;
  (!checked, !worst, stw_stats)

let finish_trace () =
  match (!trace_out, !traced_sys) with
  | Some path, Some sys ->
    System.export_trace_file sys ~path;
    let tr = System.trace sys in
    let checked, worst, stw = reconcile_stw_spans tr in
    let pct p =
      match Stats.percentile_opt stw p with
      | None -> "n/a"
      | Some v -> Printf.sprintf "%.2fus" (v /. 1e3)
    in
    Printf.printf
      "\ntrace: %d events retained (%d recorded, %d dropped) -> %s\n\
       trace: %d ckpt.stw spans reconcile with their children (worst error %dns); p50=%s p99=%s\n"
      (Trace.length tr) (Trace.total tr) (Trace.dropped tr) path checked worst (pct 50.0)
      (pct 99.0)
  | Some path, None ->
    Printf.printf "\ntrace: no system was booted; nothing to export to %s\n" path
  | None, _ -> ()
