(* Adaptive checkpoint-interval controller vs a static-interval sweep on a
   bursty open-loop workload (ISSUE 8 tentpole gate).

   The workload alternates burst phases (Memcached SETs arriving every
   [gap_ns], replies parked in the persistent network ring) with idle gaps.
   A static interval must pick one point on the latency/overhead curve: a
   short interval bounds enqueue->visible latency but burns checkpoints all
   through the idle gaps; a long one wastes the bursts.  The adaptive
   controller (Interval_ctl, fed by the Tseries black box) should get both:
   the pressure feedforward clamps the first commit of a burst to the
   interval floor, the PID loop then holds the windowed enq2vis p99 near
   its SLO target, and idle commits that released nothing grow the interval
   back toward the ceiling.

   Self-gates (exit 2 on failure):
   - controller-on p99 enq2vis <= the best static interval's p99;
   - controller-on checkpoint count <= 1.2x that static's count;
   - for every run, Perfetto counter-track points exported from the black
     box == samples recorded (one ph:"C" event per commit, exactly). *)

open Exp_common
module Net_server = Treesls_extsync.Net_server
module Rtrace = Treesls_obs.Rtrace
module Probe = Treesls_obs.Probe
module Tseries = Treesls_obs.Tseries
module Interval_ctl = Treesls_ckpt.Interval_ctl

let statics_us = [ 200; 500; 1000; 2000 ]
let cycles () = if !smoke then 4 else 12
let burst () = if !smoke then 600 else 1_500
let idle_us = 4_000
let gap_ns = 1_000
let keys = 10_000

(* Target well under the tightest static's p99 (~interval + stw at 200us)
   so the PID loop settles the burst interval near 150us; ceiling matches
   the longest static so idle overhead back-off is comparable. *)
let adaptive_cfg =
  {
    Interval_ctl.slo_p99_ns = 150_000;
    min_interval_ns = 100_000;
    max_interval_ns = 2_000_000;
    kp = 0.5;
    ki = 0.1;
    grow = 1.5;
    pressure_threshold = 24;
  }

(* ns-precision pacing that still fires checkpoints at their deadline
   (same as exp_extsync_lat: the pause must start on time, not at the next
   driver tick). *)
let advance_to sys target =
  let rec loop () =
    if System.now_ns sys < target then begin
      (match Manager.next_deadline (System.manager sys) with
      | Some d when d <= target ->
        if System.now_ns sys < d then Clock.advance (System.clock sys) (d - System.now_ns sys);
        ignore (Manager.tick (System.manager sys))
      | Some _ | None -> Clock.advance (System.clock sys) (target - System.now_ns sys));
      loop ()
    end
  in
  loop ()

let count_substring s sub =
  let n = String.length sub in
  let rec go i acc =
    if i + n > String.length s then acc
    else if String.sub s i n = sub then go (i + n) (acc + 1)
    else go (i + 1) acc
  in
  if n = 0 then 0 else go 0 0

type run = {
  r_label : string;
  r_interval_us : int;
  r_p50_ns : int;
  r_p99_ns : int;
  r_released : int;
  r_shed : int;
  r_dropped : int;
  r_commits : int;
  r_retunes : int;
  r_clamps : int;
  r_samples : int;  (** Tseries.total at the end of the run *)
  r_points : int;  (** ph:"C" events in the black box's Perfetto export *)
}

let run_one ~label ~interval_us ~adaptive =
  let feats = features ~adaptive State.Hybrid in
  let sys = boot ~interval_us ~features:feats ~adaptive_cfg () in
  (* price the black box's NVM residency like the trace ring's *)
  System.ensure_tseries_backing sys;
  let rng = Rng.create 47L in
  let app = Kv_app.launch ~keys_hint:keys ~value_size:100 sys Kv_app.Memcached in
  for i = 0 to (keys / 4) - 1 do
    Kv_app.set_i app i
  done;
  let netdrv =
    match Kernel.find_process (System.kernel sys) ~name:"netdrv" with
    | Some p -> p
    | None -> failwith "netdrv missing"
  in
  let deliver ~client:_ ~sent_ns:_ ~payload:_ = () in
  let net = Net_server.create (System.kernel sys) (System.manager sys) ~proc:netdrv ~deliver in
  (* settle past the boot-time full checkpoint before measuring *)
  ignore (System.checkpoint sys);
  let v0 = System.version sys in
  let req = ref 0 in
  for _cycle = 1 to cycles () do
    (* burst: open-loop arrivals every gap_ns; System.tick (not the bare
       manager tick) so the pressure feedforward is polled per op *)
    let t0 = System.now_ns sys in
    for i = 0 to burst () - 1 do
      advance_to sys (t0 + (i * gap_ns));
      Kv_app.set_i app (Rng.int rng keys);
      ignore (Net_server.send net ~client:(!req land 31) (Bytes.of_string "+OK"));
      incr req;
      ignore (System.tick sys)
    done;
    (* idle gap: deadlines keep firing with nothing to release — the
       adaptive run should back its interval off toward the ceiling *)
    advance_to sys (System.now_ns sys + (idle_us * 1000))
  done;
  (* one more commit so the final partial interval's replies release too *)
  ignore (System.checkpoint sys);
  let commits = System.version sys - v0 in
  let rt = Probe.rtrace (System.obs sys) in
  let s = Rtrace.enq2vis_summary rt in
  let ts = System.tseries sys in
  let points = count_substring (Tseries.to_perfetto_json ts) "\"ph\":\"C\"" in
  let ctl = System.interval_ctl sys in
  {
    r_label = label;
    r_interval_us = interval_us;
    r_p50_ns = s.Rtrace.s_p50_ns;
    r_p99_ns = s.Rtrace.s_p99_ns;
    r_released = Rtrace.released_count rt;
    r_shed = Rtrace.shed_count rt;
    r_dropped = Net_server.dropped net;
    r_commits = commits;
    r_retunes = Interval_ctl.retunes ctl;
    r_clamps = Interval_ctl.pressure_clamps ctl;
    r_samples = Tseries.total ts;
    r_points = points;
  }

let emit r ~mode =
  emit_row
    ~config:
      [
        ("mode", mode);
        ("interval_us", string_of_int r.r_interval_us);
        ("cycles", string_of_int (cycles ()));
        ("burst", string_of_int (burst ()));
        ("idle_us", string_of_int idle_us);
        ("gap_ns", string_of_int gap_ns);
      ]
    ~metrics:
      [
        ("enq2vis_p50_us", float_of_int r.r_p50_ns /. 1e3);
        ("enq2vis_p99_us", float_of_int r.r_p99_ns /. 1e3);
        ("released", float_of_int r.r_released);
        ("shed", float_of_int r.r_shed);
        ("ring_dropped", float_of_int r.r_dropped);
        ("commits", float_of_int r.r_commits);
        ("retunes", float_of_int r.r_retunes);
        ("pressure_clamps", float_of_int r.r_clamps);
        ("tseries_samples", float_of_int r.r_samples);
        ("counter_points", float_of_int r.r_points);
      ]

let run () =
  let statics =
    List.map
      (fun us ->
        let r = run_one ~label:(Printf.sprintf "static-%d" us) ~interval_us:us ~adaptive:false in
        emit r ~mode:"static";
        r)
      statics_us
  in
  let adaptive =
    let r =
      run_one ~label:"adaptive"
        ~interval_us:(adaptive_cfg.Interval_ctl.max_interval_ns / 1000)
        ~adaptive:true
    in
    emit r ~mode:"adaptive";
    r
  in
  let all = statics @ [ adaptive ] in
  let us v = float_of_int v /. 1e3 in
  Table.print
    ~title:
      (Printf.sprintf "Adaptive interval vs statics (bursty: %d cycles x %d reqs @ %dns, %dus idle)"
         (cycles ()) (burst ()) gap_ns idle_us)
    ~header:
      [ "Run"; "Released"; "E2V p50 (us)"; "E2V p99"; "Commits"; "Retunes"; "Clamps"; "Samples" ]
    (List.map
       (fun r ->
         [
           r.r_label;
           string_of_int r.r_released;
           f1 (us r.r_p50_ns);
           f1 (us r.r_p99_ns);
           string_of_int r.r_commits;
           string_of_int r.r_retunes;
           string_of_int r.r_clamps;
           string_of_int r.r_samples;
         ])
       all);
  let best =
    List.fold_left (fun acc r -> if r.r_p99_ns < acc.r_p99_ns then r else acc) (List.hd statics)
      (List.tl statics)
  in
  Printf.printf
    "\nbest static: %s (p99 %.1fus, %d commits); adaptive: p99 %.1fus, %d commits (%.2fx)\n"
    best.r_label (us best.r_p99_ns) best.r_commits (us adaptive.r_p99_ns) adaptive.r_commits
    (float_of_int adaptive.r_commits /. float_of_int (max 1 best.r_commits));
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  if adaptive.r_p99_ns > best.r_p99_ns then
    fail "adaptive p99 %.1fus exceeds best static (%s) p99 %.1fus" (us adaptive.r_p99_ns)
      best.r_label (us best.r_p99_ns);
  if float_of_int adaptive.r_commits > 1.2 *. float_of_int best.r_commits then
    fail "adaptive took %d commits > 1.2x best static's %d" adaptive.r_commits best.r_commits;
  List.iter
    (fun r ->
      if r.r_points <> r.r_samples then
        fail "%s: %d exported counter points != %d samples recorded" r.r_label r.r_points
          r.r_samples)
    all;
  if !failures <> [] then begin
    List.iter (Printf.eprintf "adaptive: %s\n") (List.rev !failures);
    exit 2
  end
