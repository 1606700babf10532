(* Adaptive checkpoint-interval controller (ROADMAP item 5).

   A PID-style loop over the tseries black box: at every commit the
   post-sample hook reads the windowed enq2vis p99 and retunes the
   interval multiplicatively against a latency SLO — shrink while the
   p99 overshoots, grow toward the ceiling while there is headroom, and
   grow fast when a whole interval passed with no released request at
   all (idle).  Between commits a cheap pressure poll watches the count
   of replies parked on extsync rings: a burst arriving while the
   interval sits near its idle ceiling would otherwise wait a whole long
   interval for visibility, so pressure clamps the interval (and thereby
   the armed deadline) straight to the floor once per burst.

   The controller only ever *suggests* a new interval; the system layer
   owns the actuator (Manager.set_interval) and the feature gate
   (State.features.adaptive_interval). *)

module Tseries = Treesls_obs.Tseries

type config = {
  slo_p99_ns : int;  (* windowed enq2vis p99 target *)
  min_interval_ns : int;
  max_interval_ns : int;
  kp : float;  (* proportional gain on relative error *)
  ki : float;  (* integral gain *)
  grow : float;  (* idle growth factor per commit *)
  pressure_threshold : int;  (* parked replies that trigger the burst clamp *)
}

let default_config =
  {
    slo_p99_ns = 300_000;
    min_interval_ns = 100_000;
    max_interval_ns = 5_000_000;
    kp = 0.5;
    ki = 0.1;
    grow = 1.5;
    pressure_threshold = 32;
  }

type t = {
  cfg : config;
  mutable integral : float;
  mutable retunes : int;  (* on_sample suggestions that changed the interval *)
  mutable pressure_clamps : int;
  mutable last_clamp_ns : int;
}

let create cfg =
  if cfg.min_interval_ns <= 0 || cfg.max_interval_ns < cfg.min_interval_ns then
    invalid_arg "Interval_ctl.create: bad interval bounds";
  (* "long ago", but far enough from min_int that [now_ns - last_clamp_ns]
     cannot overflow in the cooldown test *)
  { cfg; integral = 0.0; retunes = 0; pressure_clamps = 0; last_clamp_ns = min_int / 2 }

let retunes t = t.retunes
let pressure_clamps t = t.pressure_clamps

let clamp_ns cfg ns =
  if ns < cfg.min_interval_ns then cfg.min_interval_ns
  else if ns > cfg.max_interval_ns then cfg.max_interval_ns
  else ns

(* Per-step factor bounds: the loop converges in a few commits without
   slamming between the rails on one noisy window. *)
let max_shrink = 0.5
let max_growth = 1.5

(* [drain_backlog]: pages still owed by a pending async-drain window.
   Shrinking the interval while copies are in flight would stack a new
   capture onto an unfinished drain (forcing a stop-the-world settle), so
   shrink proposals are held — growth and no-ops pass through. *)
let on_sample t ts ~interval_ns ~drain_backlog =
  match Tseries.latest ts with
  | None -> None
  | Some s ->
    let released_this_commit =
      match Tseries.value ts s "req.enq2vis.n" with Some n -> n | None -> 0
    in
    let proposed =
      if released_this_commit = 0 then begin
        (* idle: decay the integral and back off toward the ceiling *)
        t.integral <- t.integral *. 0.5;
        clamp_ns t.cfg (int_of_float (float_of_int interval_ns *. t.cfg.grow))
      end
      else begin
        match Tseries.value ts s "req.enq2vis.p99_ns" with
        | None | Some 0 -> interval_ns
        | Some p99 ->
          let slo = float_of_int t.cfg.slo_p99_ns in
          let err = (slo -. float_of_int p99) /. slo in
          t.integral <- Float.max (-2.0) (Float.min 2.0 (t.integral +. err));
          let factor = 1.0 +. (t.cfg.kp *. err) +. (t.cfg.ki *. t.integral) in
          let factor = Float.max max_shrink (Float.min max_growth factor) in
          clamp_ns t.cfg (int_of_float (float_of_int interval_ns *. factor))
      end
    in
    if proposed = interval_ns then None
    else if proposed < interval_ns && drain_backlog > 0 then None
    else begin
      t.retunes <- t.retunes + 1;
      Some proposed
    end

(* Re-arm guard: the clamp must fire once per burst, not once per poll —
   resetting the deadline on every poll would postpone the checkpoint
   forever.  The PID loop keeps a busy interval within ~2x the floor, so
   requiring 4x floor means only a burst that arrives during idle
   back-off can trigger it; the cooldown covers the clamp-to-commit
   window. *)
let pressure_rearm_factor = 4

let on_pressure t ~now_ns ~pending ~interval_ns ~drain_backlog =
  if
    pending >= t.cfg.pressure_threshold
    && drain_backlog = 0
    && interval_ns > pressure_rearm_factor * t.cfg.min_interval_ns
    && now_ns - t.last_clamp_ns >= t.cfg.min_interval_ns
  then begin
    t.last_clamp_ns <- now_ns;
    t.pressure_clamps <- t.pressure_clamps + 1;
    t.integral <- 0.0;
    Some t.cfg.min_interval_ns
  end
  else None
