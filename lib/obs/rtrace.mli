(** Request-causality tracking for externally-driven operations.

    Every external request (e.g. a KV op arriving at a server app) gets a
    request id at {!arrive}; the id is carried implicitly while the
    single-threaded simulation handles it (the "ambient current" request),
    stamped when its reply is enqueued on an extsync ring, and resolved
    when a checkpoint commit advances [visible_writer] past the reply —
    recording {e which} commit version released it.  The timeline
    arrive → handled → enqueued → visible is what external synchrony
    trades for persistence; this module measures the trade.

    Pure data layer: all timestamps are caller-supplied (simulated
    nanoseconds), no dependency on kernel/extsync/ckpt — those layers
    call in through [Probe.req_*] wrappers. *)

type outcome =
  | Pending  (** in flight *)
  | Internal  (** never reached an extsync ring; no externally visible output *)
  | Released  (** reply made visible by a checkpoint commit *)
  | Shed  (** ring full; reply dropped at enqueue (client must retry) *)
  | Dropped  (** lost to a crash before its releasing commit *)

type req = {
  rq_id : int;
  rq_origin : string;  (** e.g. ["kv.set"] *)
  rq_arrive_ns : int;
  mutable rq_handled_ns : int;  (** -1 until the IPC handler returned *)
  mutable rq_enqueued_ns : int;  (** -1 until the reply hit the ring *)
  mutable rq_visible_ns : int;  (** -1 until released *)
  mutable rq_commit_ver : int;  (** checkpoint version that released it; 0 = none *)
  mutable rq_ipc_calls : int;
  mutable rq_outcome : outcome;
}

type t

val create : unit -> t
(** The ring of completed-request records kept for [completed]/CLI
    inspection holds the newest 1024.  Histograms and counters aggregate
    over {e all} requests regardless. *)

val arrive : t -> now:int -> origin:string -> int
(** Start a new request and make it current.  A previous current request
    that never enqueued output is finalized as [Internal]. *)

val current_id : t -> int
(** Id of the ambient current request; 0 when none. *)

val find_live : t -> int -> req option
val handled : t -> now:int -> unit
(** Stamp the current request's handled time (first call wins). *)

val note_ipc : t -> unit

val enqueued : t -> now:int -> int
(** Stamp the current request's ring-enqueue time and return its id
    (0 when no current request — e.g. an internally generated send). *)

val released : t -> now:int -> id:int -> version:int -> req option
(** Checkpoint [version]'s commit advanced [visible_writer] past this
    request's reply at time [now].  Records enqueue→visible and
    arrive→visible latencies; returns the finished record. *)

val shed : t -> id:int -> bool
val drop : t -> id:int -> bool

val on_crash : t -> unit
(** Finalize every pending request as [Dropped] (post-crash state rolls
    back to the last commit; unreleased output never existed). *)

val on_commit : t -> version:int -> stw_t0:int -> stw_t1:int -> unit
(** Note the most recent checkpoint commit and its STW window, so release
    events can bind Perfetto flow arrows to the [ckpt.stw] span. *)

val last_commit : t -> (int * int * int) option
(** [(version, stw_t0, stw_t1)] of the most recent commit. *)

val live_count : t -> int

val pending_enqueued : t -> int
(** Live requests whose reply is parked on an extsync ring awaiting the
    next commit — the burst-pressure signal the adaptive
    checkpoint-interval controller polls between operations. *)

val released_count : t -> int
val internal_count : t -> int
val shed_count : t -> int
val dropped_count : t -> int
val completed_total : t -> int

val completed : t -> req list
(** Most recent completed requests, newest first (at most 1024). *)

val per_version : t -> (int * int) list
(** Released-request count per releasing commit version, newest first
    (bounded window). *)

type summary = {
  s_count : int;
  s_p50_ns : int;
  s_p95_ns : int;
  s_p99_ns : int;
  s_mean_ns : float;
  s_max_ns : int;
}

val enq2vis_summary : t -> summary
(** Enqueue→visible latency: the pure external-synchrony delay. *)

val e2e_summary : t -> summary
(** Arrive→visible latency: what the client observes. *)

val origins : t -> string list
(** Every origin that has released at least one request, sorted. *)

val summaries_prefix : t -> prefix:string -> summary * summary
(** [(enq2vis, e2e)] summaries over every origin starting with [prefix]
    (e.g. ["t3/"] for tenant 3's ops, [""] for everything).  Built by
    merging the per-origin histograms, so percentiles are exact to bucket
    resolution. *)

val pp_req : Format.formatter -> req -> unit
