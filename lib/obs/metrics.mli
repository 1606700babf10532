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
val reset : t -> unit
val pp_snapshot : Format.formatter -> snapshot -> unit
val snapshot_to_json : snapshot -> Treesls_util.Json.t
