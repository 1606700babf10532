(** TreeSLS: the whole-system persistent microkernel, assembled.

    This is the library's main entry point.  A {!t} is a booted machine:
    simulated NVM + DRAM, the microkernel with its standard user-space
    services, and the checkpoint manager attached.  Applications are
    created through {!Treesls_kernel.Kernel} using {!kernel}, and drive
    checkpoints by calling {!tick} between operations (or {!checkpoint}
    explicitly); idle time passes through {!advance_to}.

    Power failures are injected with {!crash} and survived with {!recover}:
    after recovery the system is rolled back to the last committed
    checkpoint, and every service registered with {!add_service} has had
    its setup function re-run (re-registering volatile IPC handlers and
    external-synchrony callbacks, the way real driver code re-initialises
    itself at reboot). *)

module Kernel = Treesls_kernel.Kernel
module Manager = Treesls_ckpt.Manager
module Report = Treesls_ckpt.Report
module Restore = Treesls_ckpt.Restore

type t

val boot :
  ?nvm_pages:int ->
  ?interval_us:int ->
  ?features:Treesls_ckpt.State.features ->
  ?active_cfg:Treesls_ckpt.Active_list.config ->
  ?adaptive_cfg:Treesls_ckpt.Interval_ctl.config ->
  unit ->
  t
(** Boot. [interval_us] enables periodic checkpointing (e.g. 1000 for the
    paper's 1 ms / 1000 Hz configuration).  The system's observability
    probe (metrics on, tracing off — see {!enable_tracing}) comes with its
    store, so it has counted the boot itself.  [adaptive_cfg] configures
    the adaptive-interval controller, which acts only while
    [features.adaptive_interval] is set (default off). *)

val kernel : t -> Kernel.t
(** The current runtime kernel ({b re-fetch after every recover}). *)

val manager : t -> Manager.t
val clock : t -> Treesls_sim.Clock.t
val now_ns : t -> int
val store : t -> Treesls_nvm.Store.t

val checkpoint : t -> Report.t
val tick : t -> Report.t option
(** Checkpoint if the periodic deadline has passed.  Steps the async
    drain first (one backlog batch per op boundary), then — with
    [features.adaptive_interval] on — polls the controller's burst
    feedforward (see {!Treesls_ckpt.Interval_ctl.on_pressure}). *)

val drain_tick : t -> unit
(** One asynchronous drain step; no-op when no window is pending. *)

val drain_settle : t -> unit
(** Force the pending drain window (if any) durable now; no-op otherwise.
    Harness code that needs "everything up to here committed"
    (fingerprinting, final checkpoints) calls this unconditionally — it
    is the identity in eager mode. *)

val drain_backlog : t -> int

val set_interval_us : t -> int option -> unit
val version : t -> int

val advance_to : t -> int -> Report.t list
(** Let simulated time pass (idle work) up to the absolute virtual time
    [target] (a no-op if it is not ahead of {!now_ns}).  Every armed
    checkpoint deadline [d <= target] fires at [d] itself; returns their
    reports, oldest first.  Idle time takes no drain step and polls no
    pressure feedforward — those run at op boundaries ({!tick}). *)

val add_service : t -> name:string -> setup:(t -> unit) -> unit
(** Register a service setup function: runs immediately and again after
    every {!recover} (services' code survives crashes; their volatile
    registrations do not). *)

val crash : t -> unit
(** Power failure at the current instant. *)

val recover : t -> Restore.report
(** Journal replay, whole-system restore, service re-setup. *)

val crash_and_recover : t -> Restore.report

val stats : t -> Kernel.stats
(** Kernel counters (faults, syscalls) of the current kernel. *)

(** {2 Observability}

    Structured tracing and metrics for the whole system
    ({!Treesls_obs}).  The trace ring and metrics registry are treated as
    eternal-PMO state: they survive {!crash}/{!recover}, so a trace
    recorded before a power failure is still exportable afterwards —
    including the ["crash"] marker and the ["restore"] span themselves. *)

val obs : t -> Treesls_obs.Probe.t
val trace : t -> Treesls_obs.Trace.t

(** {2 State audit (slsfsck)}

    Deep invariant checking and NVM accounting over the persisted state
    ({!Treesls_audit}).  Both are pure reads of a quiesced system. *)

val audit : ?wear:Treesls_audit.Audit.wear_thresholds -> t -> Treesls_audit.Audit.report
(** Check the checkpoint invariants (committed-version consistency,
    CP/CPP well-formedness, allocator reconciliation, eternal-PMO
    exclusion...); a healthy system reports zero violations.  [wear]
    additionally enables warning-severity wear-health checks (write
    amplification, wear skew, unattributed NVM writes). *)

val nvm_census : t -> Treesls_audit.Nvm_census.t
(** Price NVM consumption by subsystem. *)

val enable_tracing : ?verbose:bool -> ?eternal_backing:bool -> t -> unit
(** Start recording trace events.  [verbose] additionally records the
    per-operation tier ([nvm.alloc], [nvm.txn], [ipc.call]).
    [eternal_backing] (default true) reserves an eternal PMO sized for the
    ring (64 B/slot) so the buffer's NVM residency — the mechanism that
    makes it crash-surviving — is visible in the capability tree and paid
    for in the cost model at enable time. *)

val wearmap : t -> Treesls_obs.Wearmap.t
(** NVM write/wear telemetry collected by this system's probe — always on,
    from the allocator format at boot; counters are monotone across
    crash/restore. *)

val ensure_wear_backing : t -> unit
(** Reserve an eternal PMO sized for the wearmap's per-page counters
    (16 B per NVM page) so the telemetry's NVM residency — what makes the
    counters crash-surviving — is visible in the capability tree, like the
    trace ring's backing.  Idempotent; lazy so that systems which never
    ask for wear residency keep their eternal-PMO layout unchanged. *)

val tseries : t -> Treesls_obs.Tseries.t
(** Crash-surviving metrics time-series (the "black box") sampled by this
    system's probe at every checkpoint commit — always on, monotone
    across crash/restore like the wearmap. *)

val slo : t -> Treesls_obs.Slo.t
(** The SLO watchdog evaluated on every black-box sample. *)

val ensure_tseries_backing : t -> unit
(** Reserve an eternal PMO sized for the tseries ring (one fixed-width
    slot per sample; see {!Treesls_obs.Tseries.slot_bytes}), making the
    black box's NVM residency visible in the capability tree like the
    trace ring's and wearmap's backings.  Idempotent and lazy. *)

val interval_ctl : t -> Treesls_ckpt.Interval_ctl.t
(** The adaptive-interval controller (inspect retune/clamp counters);
    inert unless [features.adaptive_interval] is on. *)

val metrics_snapshot : t -> Treesls_obs.Metrics.snapshot

val export_trace : ?pid:int -> ?tid:int -> t -> string
(** Chrome/Perfetto [trace_event] JSON of the retained events. *)

val export_trace_file : ?pid:int -> ?tid:int -> t -> path:string -> unit

(** {2 Recovery observability (RTO profiler / flight recorder)}

    Per-phase restore-time breakdown and the pre-crash flight capture
    ({!Treesls_obs.Rto}).  {!recover} charges service re-setup to the
    profile's [ring_reattach] phase, then seals the crash-surviving
    [last_recovery] record and emits the [restore.*] metrics family. *)

val rto : t -> Treesls_obs.Rto.t

val last_recovery : t -> Treesls_obs.Rto.record option
(** The sealed record of the most recent successful recovery, if any. *)

val export_flight : t -> string option
(** Perfetto timeline merging the pre-crash trace tail with the recovery
    phase spans (crash instant marked, both tracks named); [None] before
    the first recovery. *)

val export_flight_file : t -> path:string -> bool
(** Write {!export_flight} to [path]; false (no file) before the first
    recovery. *)
