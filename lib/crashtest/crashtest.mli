(** Systematic crash-schedule exploration ("crashtest").

    TreeSLS's core claim is failure resilience: a power cut at {e any}
    instant must recover to the last committed checkpoint (PAPER §4).  This
    module turns that claim into an exhaustive test, the way JASS and
    In-Cache-Line Logging validate their recovery paths:

    + {b Enumerate}: run a deterministic workload trace once, counting
      every journal commit point ({!Treesls_nvm.Warea.commit_points}) and
      every named checkpoint/restore sub-phase crash site
      ({!Treesls_nvm.Crash_site}).
    + {b Inject}: re-run the same trace once per (crash point x phase)
      schedule, arm exactly that crash, and let it fire — a journal commit
      torn at one of the four {!Treesls_nvm.Warea.crash_phase}s, a
      checkpoint sub-phase (captree walk, hybrid-copy migration steps,
      publication, version bump), a crash {e during recovery itself}, or
      plain DRAM loss between operations.
    + {b Verify}: recover via [System.crash]/[recover], then require (a)
      zero [slsfsck] audit errors, (b) a state fingerprint equal to the
      {e reference} at the recovered version — one crash-free run of the
      trace per sweep, fingerprinted as each checkpoint pause ends — and
      (c) liveness: the recovered system still takes new work and
      checkpoints cleanly.

    Every schedule is replayable from its reproducer string
    (["seed=42;ops=150;mode=eager;commit:57:mid_apply"]) via {!point_of_string} and
    {!run_one}, and a failure shrinks to a minimal trace prefix with
    {!shrink}. *)

module Warea = Treesls_nvm.Warea

(** {2 Workload trace} *)

type op =
  | Notify of int
  | Wait of int
  | Touch of int
  | Write of int
  | Spawn
  | Exit of int
  | Grow
  | Ckpt

val gen_trace : seed:int -> ops:int -> op list
(** Deterministic trace: same [seed]/[ops] — same trace, same commit-point
    numbering, same site hit counts. *)

val replay :
  ?delivered:int ref * int ref ->
  Treesls.System.t ->
  op list ->
  on_op:(int -> unit) ->
  on_ckpt:(Treesls_ckpt.Report.t -> unit) ->
  unit
(** Replay a trace on a freshly booted system (after its baseline
    checkpoint).  [on_op i] runs after op [i] completes; [on_ckpt r] runs
    as each [Ckpt] op's pause ends, with its report.  An armed crash
    raising {!Treesls_nvm.Warea.Crashed} mid-op escapes to the caller.

    The trace also drives two same-geometry named extsync reply rings
    (["ct.a"] on [Notify] ops, ["ct.b"] on [Wait] ops); [delivered]
    receives a DRAM shadow of each ring's persistent delivered counter,
    exact at any crash instant. *)

(** {2 Schedules} *)

type point =
  | Commit of int * Warea.crash_phase
      (** tear journal commit point [n] at the given phase *)
  | Site of string * int  (** crash at the [n]th hit of a named crash site *)
  | Restore_site of string * int
      (** DRAM loss after op [k], then a second crash at the named site
          during the recovery that follows (re-entrancy check) *)
  | Op_crash of int  (** DRAM loss after op [k] *)

val point_to_string : point -> string
val point_of_string : string -> point option

type outcome =
  | Passed
  | Did_not_fire
      (** the armed crash never fired: commit-point numbering diverged
          between the enumeration and injection runs (a determinism bug) *)
  | Audit_failed of string
  | Fingerprint_mismatch of int  (** recovered version *)
  | Recovery_failed of string
  | Liveness_failed of string
  | Wear_failed of string
      (** a wearmap invariant broke across crash/restore: physical-write
          counters shrank, or bytes were attributed outside the known
          writer-context vocabulary (e.g. [unattributed]) *)
  | Tseries_failed of string
      (** a black-box invariant broke across crash/restore: a sample was
          torn, duplicated, reordered or lost (seqs must stay
          consecutive, timestamps nondecreasing, versions strictly
          increasing), or no sample was recorded for the post-recovery
          commit *)
  | Extsync_failed of string
      (** an extsync invariant broke across crash/restore: a named reply
          ring could not be reclaimed (reattached in reverse creation
          order, so only the persisted header name can disambiguate the
          equal-geometry rings), or its persistent delivered counter
          drifted from the crash-instant shadow — a reply lost or
          double-delivered *)

val outcome_is_pass : outcome -> bool
val outcome_to_string : outcome -> string

type config = {
  seed : int;
  ops : int;
  phases : Warea.crash_phase list;
  include_sites : bool;
  include_op_crashes : bool;
  commit_cap : int;  (** max commit points sampled (each x |phases|) *)
  per_site_cap : int;  (** max hits sampled per crash site *)
  op_cap : int;  (** max DRAM-loss / per-restore-site op indices *)
  recovery_bug : bool;
      (** re-introduce the Mid_apply journal-replay bug
          ({!Treesls_nvm.Warea.set_recovery_bug}); a correct sweep must
          then report failures *)
  async : bool;
      (** run every victim and the reference with [features.async_drain]
          on (drain batch 1): checkpoints stage a drain window that settles
          over the following ops, so the sweep covers mid-drain crashes
          ([ckpt.drain.copied] / [ckpt.drain.settled] /
          [ckpt.cow_fault.resolved] sites) and the restore-side
          [drain_settle] reconciliation *)
}

val default_config : config

val reproducer : config -> point -> string
(** ["seed=<n>;ops=<n>;mode=<eager|async>;<point>"] — paste into
    [treesls crashtest --schedule]. *)

val parse_reproducer : ?base:config -> string -> (config * point) option
(** Inverse of {!reproducer}: [base] (default {!default_config}) with the
    string's [seed], [ops] and mode ([async]) applied, plus the point.
    Three-field strings without a mode (the format before the mode field
    existed) replay eager. *)

(** {2 Running} *)

type fingerprint
(** Whole-state fingerprint: every reachable object's snapshot plus the
    byte contents of every normal-PMO page, keyed by object id. *)

val fingerprint : Treesls.System.t -> fingerprint

val boot : config -> Treesls.System.t
(** A system booted under the config's checkpoint mode, as every victim
    and the reference run are; no checkpoint taken yet. *)

val reference : config -> (int * fingerprint) list
(** One crash-free run of the trace: the fingerprint as each checkpoint
    pause ends (the baseline, every [Ckpt] op, the final checkpoint),
    keyed by the version that pause staged, oldest first.  A victim
    recovered to version [g] must equal the entry for [g]. *)

val run_one : config -> point -> outcome
(** Boot, arm [point], replay the trace, power-cut when it fires, recover,
    verify against the {!reference} (built by this call). *)

type result = {
  point : point;
  outcome : outcome;
  recovery : Treesls_obs.Rto.record option;
      (** the victim's sealed RTO record (phase breakdown, downtime,
          pages/objects restored); [None] only when no recovery completed
          ([Did_not_fire], [Recovery_failed]) *)
}

val run_one_profiled : config -> point -> result * (string * Treesls_util.Histogram.t) list
(** Like {!run_one} but also returns the victim's [restore.*] timer
    histograms, for {!Treesls_util.Histogram.merge}-style aggregation
    across schedules. *)

type sweep = {
  config : config;
  commit_points : int;  (** journal commit points in the trace window *)
  site_hits : (string * int) list;  (** enumeration-run site hit counts *)
  results : result list;
  commit_schedules : int;  (** how many (commit point x phase) schedules ran *)
  passed : int;
  failed : result list;
  rto_stats : (string * Treesls_util.Histogram.t) list;
      (** every victim's [restore.*] timers (total/downtime/untracked and
          per-phase), merged across all schedules without re-observing
          raw samples; query min/mean/p99 via {!Treesls_util.Histogram} *)
}

val run : ?progress:(int -> int -> unit) -> config -> sweep
(** The full sweep: enumerate, then inject every schedule, judging each
    against one {!reference} run built by the first schedule that
    recovers.  [progress i n] is called before schedule [i] of [n]. *)

val shrink : config -> point -> config
(** Smallest [ops] prefix under which [point] still fires and fails
    (binary search; every candidate is re-verified end to end, and one
    that replays as [Did_not_fire] does not count as a failure). *)
