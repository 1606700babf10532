(** Restore-time (RTO) profiler and crash flight recorder.

    Answers two questions the steady-state observability stack cannot:
    {e where did the recovery time go} (a named-phase breakdown of
    [Restore.run] and service re-setup, charged by the existing simulated
    clock, tiling the total restore time) and {e what was the system doing
    when it died} (the pre-crash tail of the eternal trace ring, merged
    with the recovery spans into one Perfetto timeline).

    The profiler lives in the probe and is modelled — like the metrics
    registry and the trace ring — as eternal-PMO state: the [last] record
    survives the crash/restore it describes.  It only ever {e reads} the
    simulated clock, so profiling cannot perturb the restore under
    measurement.

    Phase accounting is exclusive: a tally reported inside a phase is
    subtracted from it, so [r_phases] plus [r_untracked_ns] sums to
    [r_total_ns] exactly (the 1%-untracked gate in [exp_rto] keeps the
    instrumentation honest as restore grows new steps). *)

type phase_span = { ps_name : string; ps_t0 : int; ps_t1 : int }
(** Inclusive [begin, end) interval of one phase execution, for the
    flight timeline (a phase entered twice yields two spans; a tally
    yields none). *)

type record = {
  r_index : int;  (** 1-based count of successful recoveries *)
  r_version : int;  (** checkpoint version restored to *)
  r_crash_ns : int;
      (** the outage's first crash instant; -1 if no crash was marked *)
  r_begin_ns : int;  (** [Restore.run] entry *)
  r_end_ns : int;  (** recovery sealed (services re-set-up) *)
  r_total_ns : int;  (** [r_end_ns - r_begin_ns] *)
  r_downtime_ns : int;  (** [r_end_ns - r_crash_ns] (total if no crash) *)
  r_phases : (string * int) list;
      (** exclusive ns per phase, in the order each first ended or was
          first tallied *)
  r_untracked_ns : int;  (** [r_total_ns] minus the phase sum *)
  r_per_kind_ns : (string * int) list;  (** materialisation ns by object kind *)
  r_spans : phase_span list;  (** inclusive spans, oldest first *)
  r_restored_objects : int;
  r_dropped_objects : int;
  r_pages_restored : int;
  r_pages_dropped : int;
  mutable r_ttfr_ns : int;
      (** crash to first post-recovery request arrival; -1 until one
          arrives *)
  r_pre_crash : Trace.event list;
      (** tail of the eternal trace ring captured at restore entry *)
}

type t

val create : unit -> t

val last : t -> record option
val count : t -> int
(** Successful recoveries sealed so far. *)

(** {2 Lifecycle} — driven by [Probe]'s [rto_*] wrappers. *)

val note_crash : t -> now:int -> unit
(** A power cut (from [Probe.crash_mark]); also stops any pending
    time-to-first-request measurement.  The first cut since the last
    sealed recovery sets the crash instant; a cut during a recovery
    attempt keeps it, so the sealed record's downtime and TTFR cover the
    whole outage, failed attempts included. *)

val begin_restore : t -> now:int -> pre_crash:Trace.event list -> unit
(** Open a building profile, capturing the pre-crash ring tail.  Replaces
    any profile left open by a failed earlier attempt. *)

val phase_begin : t -> now:int -> string -> unit
val phase_end : t -> now:int -> unit
(** Bracket a named phase.  One phase is open at a time: [phase_begin]
    while another is open raises [Invalid_argument]; an unmatched
    [phase_end] is ignored. *)

val phase_tally : t -> string -> int -> unit
(** Charge [ns] of a step nested in the open phase, timed by the caller,
    to the named phase: its exclusive time grows by [ns] and the open
    phase's shrinks by as much.  No span is recorded: one call can stand
    for many short steps (restore's per-PMO page remap).  Raises
    [Invalid_argument] when no phase is open. *)

val note_kind : t -> string -> int -> unit
(** Charge [ns] of object materialisation to a kind name. *)

val restore_done :
  t ->
  version:int ->
  restored_objects:int ->
  dropped_objects:int ->
  pages_restored:int ->
  pages_dropped:int ->
  unit
(** [Restore.run] succeeded; stash its report.  The profile stays open so
    service re-setup ([ring_reattach]) is still charged. *)

val abort : t -> unit
(** [Restore.run] raised: discard the building profile (the next attempt
    opens a fresh one; the crash instant is kept). *)

val recovered : t -> now:int -> record option
(** Seal the profile into [last] and return it; [None] if no successful
    [restore_done] preceded (nothing trustworthy to record). *)

val note_first_request : t -> now:int -> int option
(** First external request after a recovery: stamp [r_ttfr_ns] and return
    it; [None] if no recovery is awaiting a first request. *)

(** {2 Export} *)

val pp : Format.formatter -> record -> unit
val to_json : record -> Treesls_util.Json.t

val flight_to_perfetto_json : ?pid:int -> record -> string
(** One Perfetto timeline: the captured pre-crash events on a track named
    ["pre-crash"], the crash instant marker plus the recovery-phase spans
    on a track named ["recovery"]. *)
