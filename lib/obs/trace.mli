(** Fixed-capacity ring buffer of structured trace events.

    The buffer is the simulator's analogue of a trace ring living in an
    eternal PMO: once created it never grows, wraps around overwriting the
    oldest events, and — because it is reachable from the checkpoint
    manager rather than the (volatile) runtime kernel tree — its contents
    survive a simulated crash and restore.  Timestamps are simulated
    nanoseconds from {!Treesls_sim.Clock}.

    Span events nest: {!begin_span} pushes onto an open-span stack, and the
    event is recorded at {!end_span} time carrying the begin timestamp, the
    duration, and the enclosing span's id.  Instants record immediately
    under the currently open span. *)

type phase = Complete | Instant | Flow_start | Flow_end | Counter

type event = {
  seq : int;  (** global record index, monotonically increasing *)
  name : string;  (** e.g. ["ckpt.captree"] *)
  cat : string;  (** name prefix before the first ['.'] *)
  ph : phase;
  ts_ns : int;  (** span begin (or instant) time *)
  dur_ns : int;  (** 0 for instants *)
  id : int;  (** span id; 0 for instants; flow correlation id for flows *)
  parent : int;  (** enclosing span id; 0 at top level *)
  args : (string * string) list;
}

type t

val create : ?capacity:int -> unit -> t
(** Ring of at most [capacity] (default 4096) events. *)

val begin_span : t -> now:int -> ?args:(string * string) list -> string -> int
(** Open a span; returns its id (pass to {!end_span}). *)

val end_span : t -> now:int -> ?args:(string * string) list -> int -> unit
(** Close an open span and record it; [args] are appended to the begin-time
    args.  Unknown ids are ignored. *)

val instant : t -> now:int -> ?args:(string * string) list -> string -> unit

val complete : t -> ?args:(string * string) list -> string -> ts_ns:int -> dur_ns:int -> unit
(** Record a span with explicit timestamps — used for work that is modelled
    as overlapping the leader (e.g. the parallel hybrid copy), where
    enter/exit around the host-order code would measure nothing. *)

val flow_start : t -> ?args:(string * string) list -> flow_id:int -> string -> ts_ns:int -> unit
(** Start of a flow arrow ([ph:"s"]).  Both ends of a flow share [name]
    and [flow_id]; the viewer attaches each end to the slice enclosing
    its timestamp, drawing an arrow between the two slices — used to link
    a request span to the [ckpt.stw] span that released its reply. *)

val flow_end : t -> ?args:(string * string) list -> flow_id:int -> string -> ts_ns:int -> unit
(** End of a flow arrow ([ph:"f"], with [bp:"e"] so it binds to the
    enclosing slice). *)

val counter : t -> now:int -> string -> values:(string * int) list -> unit
(** Record a counter sample ([ph:"C"]): one named track per [values] key,
    rendered as stacked counter tracks in the Perfetto UI — used for the
    per-subsystem NVM bytes-written series sampled at each checkpoint. *)

val abort_open : t -> now:int -> unit
(** Close every open span with an [aborted=true] arg — called when a crash
    ends them mid-flight. *)

val events : t -> event list
(** Retained events, oldest first. *)

val length : t -> int
val total : t -> int
(** Events currently retained / ever recorded. *)

val dropped : t -> int
(** Events lost to wraparound ([total - length]). *)

val capacity : t -> int
val open_spans : t -> int
val clear : t -> unit

val to_perfetto_json : ?pid:int -> ?tid:int -> t -> string
(** Chrome/Perfetto [trace_event] JSON (the {!perfetto_file} frame):
    spans as ["ph":"X"] complete events, instants as ["ph":"i"], flows as
    ["ph":"s"]/["ph":"f"], counters as ["ph":"C"]; [ts]/[dur] in
    microseconds with nanosecond precision.  Events go on track [tid]
    (default 1) named ["kernel"]; request-causality events (category
    ["req"]) get their own track [tid+1] named ["requests"] when present.
    Load in Perfetto UI or [chrome://tracing]. *)

val event_json : pid:int -> tid:int -> event -> Treesls_util.Json.t
(** One event's trace_event object — exported so the RTO flight recorder
    and the black box can put events on their own tracks. *)

val perfetto_file : pid:int -> tracks:(int * string) list -> Treesls_util.Json.t list -> string
(** The one Perfetto file frame every trace export writes: a trace_event
    object displayed in ns whose event array opens with ["ph":"M"]
    metadata events naming process [pid] ["treesls"] and each
    [(tid, name)] track, followed by the given events. *)

val pp_event : Format.formatter -> event -> unit

