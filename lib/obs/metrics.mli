(** Named registry of counters, gauges and histogram-backed timers.

    Like the trace ring, a registry registered with the checkpoint manager
    is modelled as eternal-PMO state: its values survive crash/restore
    rather than rolling back with the kernel tree. *)

type t

val create : unit -> t

val add : t -> string -> int -> unit
(** Increment the named counter (created at zero on first use). *)

val set_gauge : t -> string -> int -> unit

val observe : t -> string -> int -> unit
(** Record a duration (ns) into the named {!Treesls_util.Histogram}-backed
    timer. *)

(** {2 Handles}

    The by-name calls above hash the name on every sample; a hot emitter
    resolves a handle once and samples through it.  A handle registers
    nothing when it is made: its name enters the registry at its first
    sample, as with {!add} or {!observe}, and again at its first sample
    after a {!reset}. *)

type counter

val counter : t -> string -> counter
(** A handle on the named counter. *)

val count : counter -> int -> unit
(** {!add} through a handle. *)

type gauge

val gauge : t -> string -> gauge
(** A handle on the named gauge. *)

val set : gauge -> int -> unit
(** {!set_gauge} through a handle. *)

type timer

val timer : t -> string -> timer
(** A handle on the named timer. *)

val record : timer -> int -> unit
(** {!observe} through a handle. *)

val counter_value : t -> string -> int
val gauge_value : t -> string -> int
(** 0 when the name was never touched. *)

val histogram : t -> string -> Treesls_util.Histogram.t option
(** The live histogram behind the named timer — read-only by convention;
    lets a harness {!Treesls_util.Histogram.merge} per-run timers into an
    aggregate without re-observing raw samples. *)

val timer_names : t -> string list
(** Names of all timers observed so far, sorted. *)

type timer_summary = {
  tm_count : int;
  tm_total_ns : int;
  tm_mean_ns : float;
  tm_p50_ns : int;
  tm_p99_ns : int;
  tm_max_ns : int;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * int) list;
  timers : (string * timer_summary) list;
}
(** Point-in-time copy, each section sorted by name. *)

val snapshot : t -> snapshot

val columns : t -> (string * (unit -> int)) list
(** The registry as flat integer columns, each with a reader of its live
    value: every counter, every gauge, then each timer's sample count as
    [NAME.n] and its p99 as [NAME.p99_ns]; each section sorted by name.
    This is what a black-box sample records ({!Probe.tseries_sample}).
    The list stays complete, and its readers live, while {!shape} does
    not change.  A p99 reader recomputes the percentile only when its
    timer's count has moved since its last read. *)

val shape : t -> int
(** Changes whenever a name is first used or the registry is reset, so a
    cached {!columns} list is current exactly while [shape] is. *)

val reset : t -> unit
val pp_snapshot : Format.formatter -> snapshot -> unit
val snapshot_to_json : snapshot -> Treesls_util.Json.t
