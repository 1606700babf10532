(** Machine-local network service with transparent external synchrony.

    Mirrors the paper's modified network server (§5-§6): applications hand
    it responses to send; the server parks them in a persistent ring and
    only releases them to clients when the next checkpoint commits, so no
    client ever observes state that could be rolled back.  After a crash,
    unpublished responses are discarded — the rolled-back application will
    regenerate them — while published ones are never re-sent twice thanks
    to the non-rolled-back reader cursor. *)

module Kernel = Treesls_kernel.Kernel
module Manager = Treesls_ckpt.Manager

type t

type deliver = client:int -> sent_ns:int -> payload:Bytes.t -> unit
(** Invoked at checkpoint commit for each newly visible response;
    [sent_ns] is when the application produced it (for latency
    accounting). *)

val create :
  ?slots:int ->
  ?slot_size:int ->
  ?name:string ->
  Kernel.t ->
  Manager.t ->
  proc:Kernel.process ->
  deliver:deliver ->
  t
(** Create the ring (eternal PMO owned by [proc], normally the network
    driver process) and register the checkpoint callback.  [name]
    (default ["netsrv"]) is persisted in the ring header and must be
    unique per server: multi-tenant setups pass e.g. ["netsrv.t3"] so
    {!reattach} can never claim another tenant's ring. *)

val reattach :
  ?slots:int ->
  ?slot_size:int ->
  ?name:string ->
  Kernel.t ->
  Manager.t ->
  proc:Kernel.process ->
  deliver:deliver ->
  t
(** Recovery path: re-find the ring strictly by its persisted [name], run
    the restore callback (discard unpublished responses), re-register the
    checkpoint callback and deliver any published-but-undrained backlog. *)

val send : t -> client:int -> Bytes.t -> bool
(** Queue a response; it becomes visible at the next checkpoint. [false]
    when the ring is full (client should back off).  Stamps the system's
    current request's enqueue time and tags the ring slot with its id, so
    the releasing checkpoint version is recorded per request. *)

val pending : t -> int
(** Responses waiting for the next checkpoint. *)

val delivered : t -> int
(** Total responses released to clients since the ring was created.  The
    count is persisted in the ring's eternal header next to the reader
    cursor, so — like the cursor — it survives crash/restore instead of
    silently resetting to 0 (SLO rules over delivery counts stay
    monotone). *)

val dropped : t -> int
(** Responses shed because the ring was full (see {!Ring.dropped_count}). *)

val flush_visible : t -> unit
(** Deliver any already-visible messages (used after reattach). *)
