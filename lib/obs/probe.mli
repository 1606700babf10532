(** Per-system observability context.

    A probe bundles a {!Trace} ring, a {!Metrics} registry, the request
    tracker, the wearmap, the recovery profiler and the black-box
    time-series, all timestamped by one {!Treesls_sim.Clock}.
    [Treesls_nvm.Store.create] builds one per store, before it formats
    the allocator, so every word a system writes — its own boot included
    — is charged to that system.  The kernel, checkpoint manager, NVM
    allocator/journal and external-synchrony ring reach it through the
    store they already hold and pass it to the emitters below, which
    never advance the simulated clock, so observability cannot perturb a
    measurement.  Metrics are always collected; trace events additionally
    require {!set_tracing}, and the per-operation firehose ([nvm.alloc],
    [nvm.txn], [ipc.call]) also requires {!set_verbose}. *)

type t

val create : clock:Treesls_sim.Clock.t -> t
(** A probe with a 4096-event trace ring and a
    {!Tseries.default_capacity}-sample black box; tracing off. *)

val clock : t -> Treesls_sim.Clock.t
val trace : t -> Trace.t
val metrics : t -> Metrics.t

val rtrace : t -> Rtrace.t
(** Request-causality tracker (see {!Rtrace}); always collecting, like
    metrics. *)

val wearmap : t -> Wearmap.t
(** NVM write/wear telemetry (see {!Wearmap}); always collecting, like
    metrics.  The store's devices, journal and metadata record into it
    directly. *)

val rto : t -> Rto.t
(** Recovery profiler / crash flight recorder (see {!Rto}); always
    collecting, like metrics. *)

val tseries : t -> Tseries.t
(** Crash-surviving metrics time-series (see {!Tseries}); sampled at
    every checkpoint commit via {!tseries_sample}. *)

val slo : t -> Slo.t
(** SLO watchdog evaluated on every tseries sample (see {!Slo}). *)

val set_sample_hook : t -> (unit -> unit) -> unit
(** Invoked after every tseries sample and SLO check — the adaptive
    checkpoint-interval controller's feedback edge ([System.boot] sets
    it when [State.features.adaptive_interval] is on). *)

val set_tracing : t -> bool -> unit
val tracing : t -> bool
val set_verbose : t -> bool -> unit
val verbose : t -> bool

val add_backing : t -> string -> int -> unit
val backings : t -> (string * int) list
(** The eternal PMOs reserved as NVM backings of this probe's structures,
    as [(name, pmo id)] in reservation order: ["trace"] (added by
    [System.enable_tracing]), ["wear"] ([System.ensure_wear_backing]) and
    ["tseries"] ([System.ensure_tseries_backing]).  The audit requires
    each to be a reachable eternal PMO. *)

(** {2 Trace emitters} — no-ops (returning 0 where applicable) unless
    tracing is on.  [args] is a thunk that an emitter calls only when it
    records the event, so with tracing off no call site builds its args
    (no [string_of_int] per IPC, journal commit or ring publish). *)

type args = unit -> (string * string) list

val enter : t -> ?args:args -> string -> int
val exit : t -> ?args:args -> int -> unit
(** Open/close a nested span.  [exit 0] is a no-op, so call sites need no
    disabled-check of their own. *)

val instant : t -> ?args:args -> string -> unit

val span_at : t -> ?args:args -> string -> ts_ns:int -> dur_ns:int -> unit
(** Record a span with explicit timestamps (overlapping/parallel work). *)

val enter_v : t -> ?args:args -> string -> int
val instant_v : t -> ?args:args -> string -> unit
(** Verbose-tier variants: additionally gated on {!set_verbose}. *)

val crash_mark : t -> unit
(** Close all open spans as [aborted=true] and record a ["crash"] instant —
    called by the checkpoint manager when a power failure is injected.
    Also finalizes every pending request as dropped (see {!Rtrace.on_crash}),
    independent of whether the trace ring is recording. *)

(** {2 RTO / flight-recorder emitters} — always active (like metrics);
    they read the simulated clock but never advance it.  Call sites:
    [Restore.run] opens/aborts/completes the profile, [Restore.run_inner]
    brackets its phases and tallies the page remap and the per-kind
    split, and [System.recover] brackets service re-setup
    then seals the record (emitting the [restore.*] metrics family). *)

val rto_begin_restore : t -> unit
(** Open a recovery profile, capturing the pre-crash tail of the trace
    ring for the flight recorder. *)

val rto_phase_begin : t -> string -> unit
val rto_phase_end : t -> unit
(** Bracket a named restore phase (one open at a time). *)

val rto_phase_tally : t -> string -> int -> unit
(** Charge nanoseconds of a step nested in the open phase to a named
    phase of its own, without a span (exclusive accounting). *)

val rto_note_kind : t -> string -> int -> unit
(** Charge materialisation nanoseconds to an object-kind name. *)

val rto_restore_done :
  t ->
  version:int ->
  restored_objects:int ->
  dropped_objects:int ->
  pages_restored:int ->
  pages_dropped:int ->
  unit
(** [Restore.run] succeeded with this report; the profile stays open for
    service re-setup. *)

val rto_abort : t -> unit
(** [Restore.run] raised: discard the building profile. *)

val rto_recovered : t -> unit
(** Seal the profile into the crash-surviving [last] record and emit the
    [restore.*] metrics (total/downtime/untracked, per-phase timers,
    object/page counts). *)

(** {2 Request-causality emitters} — always active (like metrics);
    host-time cost only.  Call sites: [Kv_app.call] marks arrival,
    [Ipc.call] marks handling, [Net_server.send]/[Ring.append] mark
    enqueue/shed, and [Ring.on_checkpoint] marks release with the
    committing version. *)

val req_origin : t -> string -> Rtrace.origin
(** {!Rtrace.origin} of this probe's tracker: a request source resolved
    once by name (e.g. per op and tenant, when an app launches). *)

val req_arrive : t -> origin:Rtrace.origin -> int
(** New externally-driven request becomes the system's current one;
    returns its id. *)

val req_current : t -> int
val req_handled : t -> unit
val req_ipc : t -> unit

val req_enqueued : t -> int
(** Stamp the current request's enqueue-on-ring time; returns its id so
    the ring can remember which request each slot's reply belongs to. *)

val req_shed : t -> id:int -> unit
(** The ring was full; the reply for request [id] was dropped at enqueue. *)

val req_dropped : t -> id:int -> unit
(** Request [id]'s enqueued reply was discarded (restore found it past
    [visible_writer]). *)

val req_released : t -> id:int -> version:int -> unit
(** Checkpoint [version]'s commit made request [id]'s reply visible.
    Feeds [req.released] and the [req.enq2vis_ns]/[req.e2e_ns] metrics
    through handles made with the probe; with tracing on, also
    emits a retroactive ["req"] span and a ["req.flow"] flow arrow ending
    inside the releasing [ckpt.stw] slice. *)

val ckpt_committed : t -> version:int -> stw_t0:int -> stw_t1:int -> unit
(** Record the just-committed checkpoint's STW window so release flow
    arrows can bind to its trace slice.  Called by [Checkpoint.run]
    before the post-commit callbacks that publish ring entries. *)

(** {2 Wear} *)

val wear_counter_sample : t -> unit
(** With tracing on, record a [nvm.bytes_written] Perfetto counter sample
    carrying the cumulative per-subsystem byte totals. *)

(** {2 Tseries / SLO emitters} — always active (like metrics). *)

val tseries_key_cols : string list
(** The headline signals mirrored onto the live trace as a ["tseries"]
    counter track when tracing is on. *)

val req_pending_enqueued : t -> int
(** {!Rtrace.pending_enqueued} of this probe — the controller's
    burst-pressure poll. *)

val tseries_sample : t -> version:int -> stw_ns:int -> interval_ns:int option -> unit
(** Record one black-box sample for the just-committed checkpoint
    [version]: the full metrics registry (counters, gauges, per-timer
    count/p99) plus the derived signals ([ckpt.stw_ns] of this commit
    and the windowed enq2vis p50/p99), then run the SLO watchdog
    ([interval_ns] is the current checkpoint interval, for rules using
    [interval]) and finally the sample hook.  Called by
    [Checkpoint.run] after commit, once the post-commit gauges are
    set.

    Host cost: O(columns + window), whatever the retained history.  The
    registry is read through {!Metrics.columns}, resolved to tseries
    columns once per {!Metrics.shape} (the first sample builds that
    plan, not {!create}); the windowed percentiles read
    their slices in place; the SLO rules read only their windows.  A
    sample allocates its own cells and what the rules read from their
    windows, the same however long the retained history. *)

(** {2 Metrics emitters} — always active.  These look the name up on
    every call; an emitter on a per-request or per-fault path samples
    through a {!Metrics.counter} or {!Metrics.timer} handle instead. *)

val count : t -> string -> int -> unit
val gauge : t -> string -> int -> unit
val observe : t -> string -> int -> unit
