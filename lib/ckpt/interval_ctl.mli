(** Adaptive checkpoint-interval controller (feature-flagged; ROADMAP
    item 5).

    A PID-style loop fed by the {!Treesls_obs.Tseries} black box: at
    every commit, {!on_sample} compares the windowed enq2vis p99 against
    [slo_p99_ns] and proposes a multiplicatively retuned interval
    (shrink on overshoot, grow on headroom, fast back-off toward
    [max_interval_ns] when a commit released nothing); between commits,
    {!on_pressure} clamps the interval to [min_interval_ns] when a burst
    parks [pressure_threshold]+ replies while the interval sits near its
    idle ceiling.

    The controller is pure policy: it returns suggestions and the system
    layer applies them through [System.set_interval_us], gated on
    [State.features.adaptive_interval] (default off). *)

type config = {
  slo_p99_ns : int;  (** windowed enq2vis p99 target *)
  min_interval_ns : int;
  max_interval_ns : int;
  kp : float;  (** proportional gain on relative SLO error *)
  ki : float;  (** integral gain (integral clamped to ±2) *)
  grow : float;  (** idle growth factor per commit *)
  pressure_threshold : int;  (** parked replies that trigger the burst clamp *)
}

val default_config : config
(** 300us p99 target, interval bounds [100us, 5ms], kp 0.5, ki 0.1,
    grow 1.5, pressure threshold 32. *)

type t

val create : config -> t
(** Raises [Invalid_argument] on a non-positive or inverted interval
    range. *)

val on_sample :
  t -> Treesls_obs.Tseries.t -> interval_ns:int -> drain_backlog:int -> int option
(** Feedback step against the newest sample; [Some ns] proposes a new
    interval (already clamped to the configured bounds), [None] keeps
    the current one.  While [drain_backlog] is nonzero, shrink proposals
    are held (returned as [None]) — stacking a shorter interval onto an
    unfinished drain would force a stop-the-world settle; growth still
    passes. *)

val on_pressure :
  t -> now_ns:int -> pending:int -> interval_ns:int -> drain_backlog:int -> int option
(** Burst feedforward, polled between operations: [Some min_interval_ns]
    once per burst when [pending] replies are parked and the interval is
    above 4x the floor; [None] otherwise (so the armed deadline is never
    re-postponed by repeated polls), and always [None] while a drain
    backlog is outstanding. *)

val retunes : t -> int
(** {!on_sample} proposals that changed the interval. *)

val pressure_clamps : t -> int
