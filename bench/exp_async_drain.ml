(* Split-capture checkpointing (async drain) vs eager stop-and-copy — the
   ISSUE 9 tentpole gate.

   Both runs drive the same Memcached-style workload (open-loop SETs every
   [gap_ns], replies parked in the persistent network ring) at the same
   checkpoint interval.  A warmup phase lets the active list promote the
   hot value pages into the DRAM cache, so every subsequent window finds a
   large dirty DRAM-cached set — the page-heavy regime where eager
   checkpointing's pause is O(dirty pages).  The lazy run flips protections
   at STW and drains the copies in the background (one batch per op), so
   its pause should collapse to the O(dirty objects) capture.

   Self-gates (exit 2 on failure):
   - workload validity: the eager run really is page-heavy (>= 50% of the
     DRAM-cached pages dirty per window on average);
   - lazy mean STW <= 0.3x eager mean STW;
   - lazy write amplification (physical NVM bytes / logical dirty bytes,
     settled totals) <= 1.1x eager — deferring the copies must not write
     more than copying eagerly;
   - lazy p99 enqueue->visible <= eager p99 at the same interval — the
     drain must not delay commits past what the eager pause already cost;
   - a deterministic replay (explicit checkpoints, drain steps interleaved
     with app writes) recovers to the same restore fingerprint in both
     modes, and both perf runs audit clean. *)

open Exp_common
module Net_server = Treesls_extsync.Net_server
module Rtrace = Treesls_obs.Rtrace
module Probe = Treesls_obs.Probe
module C = Treesls_crashtest.Crashtest

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("async_drain: " ^ m); exit 2) fmt
let interval_us = 1000
let gap_ns = 1_000
(* sized so the hot value pages fit the active list's DRAM-cache cap:
   the gate's regime is ">= 50% of cached pages dirty per window", which a
   working set larger than the cache dilutes (cached stays pinned at the
   cap while the dirty set spreads over the whole key space) *)
let keys () = if !smoke then 12_000 else 14_000
let warm_ops () = if !smoke then 6_000 else 10_000
let measure_ops () = if !smoke then 8_000 else 20_000
let fp_ops () = if !smoke then 2_000 else 6_000
let fp_ckpt_every = 400
let drain_batch = 8

type run = {
  r_label : string;
  r_commits : int;
  r_stw_mean_us : float;
  r_stw_max_us : float;
  r_dirty_pct : float;  (** dirty DRAM-cached pages / cached pages, avg *)
  r_cached_avg : float;
  r_waf : float;  (** settled physical NVM bytes / logical dirty bytes *)
  r_drained : int;
  r_cow_faults : int;
  r_drain_us : float;
  r_p50_ns : int;
  r_p99_ns : int;
  r_released : int;
}

(* Settled per-window reports.  The report a tick returns in async mode is
   the partial STW-time view (drain/WAF fields still zero); the full
   numbers land in [Manager.last_report] when the window settles and the
   version bumps — so both modes are read uniformly by polling the
   committed version and collecting the manager's last report. *)
let make_collector sys =
  let seen = ref (System.version sys) in
  let reports = ref [] in
  let poll () =
    if System.version sys > !seen then begin
      seen := System.version sys;
      match Manager.last_report (System.manager sys) with
      | Some r -> reports := r :: !reports
      | None -> ()
    end
  in
  (poll, fun () -> List.rev !reports)

let run_one ~label ~async =
  let feats = features ~async State.Hybrid in
  let sys = boot ~interval_us ~features:feats () in
  if async then Manager.set_drain_batch (System.manager sys) drain_batch;
  let rng = Rng.create 93L in
  let nkeys = keys () in
  let app = Kv_app.launch ~keys_hint:nkeys ~value_size:100 sys Kv_app.Memcached in
  for i = 0 to nkeys - 1 do
    Kv_app.set_i app i
  done;
  let netdrv =
    match Kernel.find_process (System.kernel sys) ~name:"netdrv" with
    | Some p -> p
    | None -> failwith "netdrv missing"
  in
  let deliver ~client:_ ~sent_ns:_ ~payload:_ = () in
  let net = Net_server.create (System.kernel sys) (System.manager sys) ~proc:netdrv ~deliver in
  (* warmup: repeated faults on the hot value pages promote them into the
     DRAM cache (active-list threshold), so the measured windows see the
     page-heavy dirty set the gate is about *)
  let t0 = System.now_ns sys in
  for i = 0 to warm_ops () - 1 do
    ignore (System.advance_to sys (t0 + (i * gap_ns)));
    Kv_app.set_i app (Rng.int rng nkeys);
    ignore (System.tick sys)
  done;
  ignore (System.checkpoint sys);
  System.drain_settle sys;
  (* measured window *)
  let poll, collected = make_collector sys in
  let req = ref 0 in
  let t0 = System.now_ns sys in
  for i = 0 to measure_ops () - 1 do
    ignore (System.advance_to sys (t0 + (i * gap_ns)));
    Kv_app.set_i app (Rng.int rng nkeys);
    ignore (Net_server.send net ~client:(!req land 31) (Bytes.of_string "+OK"));
    incr req;
    ignore (System.tick sys);
    poll ()
  done;
  (* one more commit so the final partial interval's replies release *)
  ignore (System.checkpoint sys);
  System.drain_settle sys;
  poll ();
  audit_or_die sys ~where:label;
  let reports = collected () in
  let n = List.length reports in
  if n = 0 then die "%s: no checkpoints committed in the measured window" label;
  let stw = avg_reports reports (fun r -> r.Report.stw_ns) /. 1e3 in
  let stw_max =
    List.fold_left (fun acc r -> max acc r.Report.stw_ns) 0 reports |> float_of_int |> fun v ->
    v /. 1e3
  in
  let dirty r = r.Report.dram_dirty_copied + r.Report.pages_drained + r.Report.cow_faults in
  let dirty_pct =
    avg_reports reports (fun r -> 100 * dirty r / max 1 r.Report.cached_pages)
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  let physical = sum (fun r -> r.Report.nvm_bytes_written) in
  let logical = sum (fun r -> r.Report.logical_dirty_bytes) in
  let waf = float_of_int physical /. float_of_int (max 1 logical) in
  let rt = Probe.rtrace (System.obs sys) in
  let s = Rtrace.enq2vis_summary rt in
  {
    r_label = label;
    r_commits = n;
    r_stw_mean_us = stw;
    r_stw_max_us = stw_max;
    r_dirty_pct = dirty_pct;
    r_cached_avg = avg_reports reports (fun r -> r.Report.cached_pages);
    r_waf = waf;
    r_drained = sum (fun r -> r.Report.pages_drained);
    r_cow_faults = sum (fun r -> r.Report.cow_faults);
    r_drain_us = float_of_int (sum (fun r -> r.Report.drain_ns)) /. 1e3;
    r_p50_ns = s.Rtrace.s_p50_ns;
    r_p99_ns = s.Rtrace.s_p99_ns;
    r_released = Rtrace.released_count rt;
  }

(* Deterministic replay with explicit checkpoints: same writes, same
   commit count in both modes; the async run interleaves drain steps (and
   thus CoW fault resolutions) with the writes.  After a final settle and
   a crash/recover on each, the restore fingerprints must be identical. *)
let fingerprint_of ~async =
  let feats = features ~async State.Hybrid in
  let sys = boot ~features:feats () in
  System.set_interval_us sys None;
  if async then Manager.set_drain_batch (System.manager sys) drain_batch;
  let rng = Rng.create 71L in
  let nkeys = keys () / 4 in
  let app = Kv_app.launch ~keys_hint:nkeys ~value_size:100 sys Kv_app.Memcached in
  for i = 0 to nkeys - 1 do
    Kv_app.set_i app i
  done;
  for i = 1 to fp_ops () do
    Kv_app.set_i app (Rng.int rng nkeys);
    System.drain_tick sys;
    if i mod fp_ckpt_every = 0 then ignore (System.checkpoint sys)
  done;
  ignore (System.checkpoint sys);
  System.drain_settle sys;
  ignore (System.crash_and_recover sys);
  audit_or_die sys ~where:(if async then "fp-lazy" else "fp-eager");
  (System.version sys, C.fingerprint sys)

let run () =
  let eager = run_one ~label:"eager" ~async:false in
  let lazy_ = run_one ~label:"lazy-drain" ~async:true in
  let us v = float_of_int v /. 1e3 in
  let emit r ~mode =
    emit_row
      ~config:
        [
          ("mode", mode);
          ("interval_us", string_of_int interval_us);
          ("gap_ns", string_of_int gap_ns);
          ("keys", string_of_int (keys ()));
          ("ops", string_of_int (measure_ops ()));
        ]
      ~metrics:
        [
          ("stw_mean_us", r.r_stw_mean_us);
          ("stw_max_us", r.r_stw_max_us);
          ("dirty_pct", r.r_dirty_pct);
          ("cached_pages", r.r_cached_avg);
          ("waf", r.r_waf);
          ("pages_drained", float_of_int r.r_drained);
          ("cow_faults", float_of_int r.r_cow_faults);
          ("drain_us", r.r_drain_us);
          ("enq2vis_p50_us", us r.r_p50_ns);
          ("enq2vis_p99_us", us r.r_p99_ns);
          ("released", float_of_int r.r_released);
          ("commits", float_of_int r.r_commits);
        ]
  in
  emit eager ~mode:"eager";
  emit lazy_ ~mode:"lazy";
  Table.print
    ~title:
      (Printf.sprintf "Async drain vs eager stop-and-copy (Memcached, %dus interval, %d ops)"
         interval_us (measure_ops ()))
    ~header:
      [ "Run"; "STW mean (us)"; "STW max"; "Dirty %"; "WAF"; "Drained"; "CoWF"; "E2V p99 (us)" ]
    (List.map
       (fun r ->
         [
           r.r_label;
           f1 r.r_stw_mean_us;
           f1 r.r_stw_max_us;
           f1 r.r_dirty_pct;
           f2 r.r_waf;
           string_of_int r.r_drained;
           string_of_int r.r_cow_faults;
           f1 (us r.r_p99_ns);
         ])
       [ eager; lazy_ ]);
  Printf.printf "\nSTW %.1fus -> %.1fus (%.2fx), WAF %.2f -> %.2f, p99 %.1fus -> %.1fus\n"
    eager.r_stw_mean_us lazy_.r_stw_mean_us
    (lazy_.r_stw_mean_us /. Float.max 1e-9 eager.r_stw_mean_us)
    eager.r_waf lazy_.r_waf (us eager.r_p99_ns) (us lazy_.r_p99_ns);
  (* restore-equivalence leg *)
  let ve, fe = fingerprint_of ~async:false in
  let vl, fl = fingerprint_of ~async:true in
  Printf.printf "fingerprints: eager v%d, lazy v%d -> %s\n" ve vl
    (if fe = fl then "identical" else "MISMATCH");
  (* gates *)
  if eager.r_dirty_pct < 50.0 then
    die "workload not page-heavy enough: only %.1f%% of cached pages dirty per window (need >= 50%%)"
      eager.r_dirty_pct;
  if lazy_.r_stw_mean_us > 0.3 *. eager.r_stw_mean_us then
    die "lazy STW %.1fus exceeds 0.3x eager STW %.1fus" lazy_.r_stw_mean_us eager.r_stw_mean_us;
  if lazy_.r_waf > 1.1 *. eager.r_waf then
    die "lazy WAF %.3f exceeds 1.1x eager WAF %.3f" lazy_.r_waf eager.r_waf;
  if lazy_.r_p99_ns > eager.r_p99_ns then
    die "lazy enq2vis p99 %.1fus worse than eager %.1fus" (us lazy_.r_p99_ns) (us eager.r_p99_ns);
  if lazy_.r_drained = 0 then die "lazy run never drained a page (async path not exercised)";
  if ve <> vl then die "fingerprint replay committed different versions (eager v%d, lazy v%d)" ve vl;
  if fe <> fl then die "restore fingerprint differs between eager and lazy modes"
