(** Persistent word area with redo journaling.

    The checkpoint manager's own state (buddy tree, slab headers) is not
    checkpointed — it lives in this flat array of NVM words and is kept
    crash-consistent with a redo journal (§3 of the paper: "TreeSLS
    leverages redo/undo journaling to maintain the crash consistency of the
    checkpoint manager").

    An update is a {e transaction}: the full list of (index, new-value)
    writes is first logged to the journal area, then applied to the words,
    then the journal record is truncated.  Recovery replays any record that
    was fully logged (idempotent redo) and discards partial logs, so a crash
    at any instant leaves the words in either the pre- or post-transaction
    state.

    Crash injection for tests: {!set_crash_plan} arms a simulated power
    failure at a chosen phase of the next transaction, and
    {!set_crash_schedule} arms one at an absolute {e commit point} (the
    running count of transactions, including empty ones — see
    {!consume_point}), which is what the crash-schedule explorer in
    [lib/crashtest] uses to replay an enumerated crash deterministically.
    The transaction then raises {!Crashed} leaving the area exactly as a
    real power cut would. *)

exception Crashed of string
(** Raised by an armed crash plan. The word area is left in the torn state
    a power failure at that instant would produce. *)

type t

type crash_phase =
  | Before_log  (** power fails before the journal record is durable *)
  | After_log  (** record durable, no data words written yet *)
  | Mid_apply  (** record durable, roughly half the writes applied *)
  | After_apply  (** all writes applied, record not yet truncated *)

val phase_name : crash_phase -> string
(** Stable lower-snake name, e.g. ["mid_apply"] (reproducer strings). *)

val phase_of_string : string -> crash_phase option
(** Inverse of {!phase_name}. *)

val all_phases : crash_phase list
(** The four phases in log order. *)

val create : probe:Treesls_obs.Probe.t -> words:int -> t
(** A zeroed area whose commits and replays are counted and wear-recorded
    in [probe] ([nvm.txn.*] counters, [nvm.journal]/[restore.journal]
    bytes).  Words are stored in fixed-size chunks allocated on their
    first non-zero write, so creating an area allocates no per-word
    storage. *)

val size : t -> int

val read : t -> int -> int
(** Read word [i]; a word never written reads 0.  Raises
    [Invalid_argument] if [i] is outside [0 .. size - 1]. *)

val iter_nonzero : t -> lo:int -> hi:int -> (int -> int -> unit) -> unit
(** [iter_nonzero t ~lo ~hi f] calls [f i v] for every word [i] in
    [lo .. hi - 1] whose value [v] is non-zero, in ascending [i].  Chunks
    never written are skipped whole, so the cost is O(words in written
    chunks of the range), not O(range).  Raises [Invalid_argument] on a
    range outside the area. *)

val commit : t -> desc:string -> (int * int) list -> unit
(** [commit t ~desc writes] atomically applies [(index, value)] writes.
    Indices must be distinct and inside the area — validated before any
    journal side effect, so a rejected commit leaves no torn log and
    consumes no commit point.  Raises {!Crashed} if a crash plan or
    schedule fires. *)

val consume_point : t -> desc:string -> unit
(** Consume one commit point without writing anything: what an {e empty}
    transaction does.  Keeps commit-point numbering deterministic between a
    crash-enumeration run and an injection run.  An armed crash plan (or a
    schedule targeting this point) still fires — raising {!Crashed} with no
    journal side effects, since there is no record to tear.  Does not count
    toward {!commits}. *)

val set_crash_plan : t -> crash_phase option -> unit
(** Arm (or disarm) a crash during the next transaction. *)

val set_crash_schedule : t -> (int * crash_phase) option -> unit
(** [set_crash_schedule t (Some (point, phase))] arms a crash at [phase] of
    the [point]-th commit point (1-based, as reported by
    {!commit_points}).  Self-disarms on firing. *)

val crash_schedule : t -> (int * crash_phase) option
(** The currently armed schedule, if any (e.g. to detect one that never
    fired). *)

val recover : t -> unit
(** Journal replay after a crash: redo a fully-logged record, drop a torn
    one. Idempotent. *)

val replayed_words : t -> int
(** Cumulative words redo-replayed by {!recover} since creation — the
    delta across one [recover] call is what [Store.recover] charges
    simulated replay time for (and what the RTO [journal_replay] phase
    measures). *)

val set_recovery_bug : t -> bool -> unit
(** Testing knob: when on, {!recover} deliberately skips the redo replay —
    re-introducing the classic Mid_apply recovery bug (half-applied words
    survive).  Exists so the crash sweep can demonstrate it catches this
    bug class. *)

val in_flight : t -> bool
(** Whether an un-truncated journal record exists (only after a crash). *)

val commits : t -> int
(** Number of successful non-empty commits since creation (cost
    accounting). *)

val commit_points : t -> int
(** Number of commit points consumed since creation: every transaction,
    empty or not, successful or crashed.  The coordinate system for
    {!set_crash_schedule}. *)

val words_written : t -> int
(** Total data words written by successful commits. *)
