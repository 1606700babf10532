(** Persistent ring buffer with delayed external visibility (Figure 8).

    The buffer and its three cursors — [reader], [writer], and
    [visible_writer] — live in an {e eternal} PMO, so they survive power
    failures and are {e not} rolled back by recovery.  A message appended
    by the driver is not externally visible until the next checkpoint
    commits and the checkpoint callback advances [visible_writer] over it;
    the restore callback discards messages beyond [visible_writer] (their
    senders were rolled back and will re-send).

    Layout: page 0 holds the cursors; subsequent pages hold fixed-size
    slots. All accesses go through kernel memory paths of the owning
    process, so they fault, charge simulated time and persist like any
    other application data. *)

module Kernel = Treesls_kernel.Kernel

type t

val create : Kernel.t -> Kernel.process -> name:string -> slots:int -> slot_size:int -> t
(** Allocate an eternal PMO sized for [slots] messages of at most
    [slot_size-4] bytes each and map it into the process.  [name]
    (1..64 bytes, unique per ring) is persisted in the header page and is
    what {!reattach} claims by; multiple equal-sized rings must use
    distinct names. *)

val reattach : Kernel.t -> Kernel.process -> name:string -> slots:int -> slot_size:int -> t
(** After recovery: locate the eternal PMO whose persisted header name
    equals [name] among those installed in the new kernel's root cap
    group (where {!Kernel.make_eternal_pmo} puts every eternal PMO) and
    re-derive cursors from its (preserved) content.  [name], [slots] and
    [slot_size] must match {!create}.  Claiming is strictly by name —
    reattach order does not matter, and equal-sized rings can never
    cross-claim.  Raises [Invalid_argument] when no such ring exists. *)

val meta : t -> int
(** One caller-owned word persisted in the ring's header page (eternal:
    survives crashes, never rolled back).  {!create} zeroes it;
    {!reattach} reads it back.  [Net_server] stores its delivered count
    here. *)

val set_meta : t -> int -> unit

val append : ?req:int -> t -> Bytes.t -> bool
(** Enqueue a message (not yet visible); [false] when the ring is full.
    A full ring counts the shed message in {!dropped_count} and the
    [extsync.ring.dropped] metric (and marks request [req], if nonzero,
    as shed) so latency percentiles cannot silently exclude shed load.
    [req] tags the slot with the request id whose reply this is, for
    release attribution at the next checkpoint. *)

val on_checkpoint : t -> unit
(** Checkpoint callback: publish everything appended so far, attributing
    each tagged message's release to the just-committed version (via
    [Probe.req_released]). *)

val on_restore : t -> unit
(** Restore callback: drop unpublished messages ([writer] back to
    [visible_writer]); their tagged requests are marked dropped. *)

val pop_visible : t -> Bytes.t option
(** Consume the next published message. *)

val visible_count : t -> int
(** Published, not yet consumed. *)

val unpublished_count : t -> int
(** Appended after the last checkpoint (invisible; lost on restore). *)

val capacity : t -> int

val dropped_count : t -> int
(** Messages shed because the ring was full (volatile counter: resets on
    reattach, like the rest of the observability state). *)
