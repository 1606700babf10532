(** Crash-surviving metrics time-series — the "black box".

    One fixed-width sample per committed checkpoint, in a bounded ring
    with eternal-PMO semantics: like the trace ring and the wearmap,
    nothing in crash/restore ever resets it, so trends survive power
    cuts and merge with the RTO flight recorder's timeline.  The probe
    records a sample at every checkpoint commit
    ({!Probe.tseries_sample}) from the full metrics registry plus the
    derived signals (dirty fraction, STW, windowed enq2vis p50/p99,
    ring-drop rate, WAF).

    Invariant checked by the crashtest sweep: sequence numbers are
    consecutive, timestamps nondecreasing, and versions strictly
    increasing across every crash/restore — samples exist only for
    committed versions, so a torn, duplicated or reordered sample
    cannot appear. *)

type sample = {
  sp_seq : int;  (** monotone across crashes; equals [total] at record time *)
  sp_version : int;  (** committed checkpoint version *)
  sp_ts_ns : int;
  sp_values : int array;  (** cell per column id at record time; internal *)
}

type t

val default_capacity : int
(** 1024 samples. *)

val create : ?capacity:int -> ?max_cols:int -> unit -> t
(** Ring of [capacity] samples (default 1024) with a fixed column budget
    of [max_cols] (default 125; columns interned past the budget are
    counted in {!cols_dropped} and silently skipped, keeping samples
    fixed-width). *)

val slot_bytes : max_cols:int -> int
(** Bytes per sample slot: seq + version + ts + one 8-byte cell per
    column budget slot. *)

val backing_bytes : t -> int
(** [capacity * slot_bytes] — what the eternal backing PMO reserves. *)

val record : t -> ts_ns:int -> version:int -> (string * int) list -> unit
(** Append one sample; unknown column names are interned on first use. *)

val capacity : t -> int
val total : t -> int
(** Samples ever recorded — the monotone spine; never reset. *)

val length : t -> int
val dropped : t -> int
val columns : t -> string list
(** In interning (column id) order. *)

val column_count : t -> int
val cols_dropped : t -> int
val samples : t -> sample list
(** Retained samples, oldest first. *)

val latest : t -> sample option
val window : t -> n:int -> sample list
(** Newest [n] retained samples, oldest first. *)

val value : t -> sample -> string -> int option
(** [None] if the column is unknown or absent in this sample. *)

(** {2 Query layer} — windowed over the newest [n] samples. *)

val series : t -> string -> n:int -> (sample * int) list
val delta : t -> string -> n:int -> int option
(** Newest minus oldest value over the window; [None] with <2 points. *)

val rate_per_s : t -> string -> n:int -> float option
(** [delta / elapsed] in units per second; [None] with <2 points or zero
    elapsed time. *)

val ewma : t -> string -> alpha:float -> float option
(** Exponentially weighted moving average over all retained samples,
    oldest first. *)

val percentile_over : t -> string -> n:int -> p:float -> int option
(** Percentile of the per-sample values over the window (each sample
    counts as one observation). *)

val mean_over : t -> string -> n:int -> float option
val max_over : t -> string -> n:int -> int option

(** {2 Export} *)

val to_csv : t -> string
(** Header [seq,version,ts_ns,<columns...>]; absent cells are empty. *)

val to_json : ?last:int -> t -> Treesls_util.Json.t

val to_perfetto_json : ?pid:int -> ?tid:int -> ?cols:string list -> t -> string
(** Standalone Perfetto counter-track export: exactly one [ph:"C"] event
    per retained sample on a dedicated "tseries" track (so exported
    counter points = {!counter_points}), carrying [cols] (default: all
    registered columns) as numeric args. *)

val counter_points : t -> int
(** Number of counter events {!to_perfetto_json} emits = {!length}. *)

val pp : ?last:int -> Format.formatter -> t -> unit
