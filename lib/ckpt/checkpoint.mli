(** The stop-the-world checkpoint procedure (Figure 5).

    Steps: (1) IPI all cores into quiescence; (2) the leader walks the
    runtime capability tree and copies every object's state into its ORoot
    backups — user pages are {e not} copied, dirty ones are re-marked
    read-only; (3) in parallel, the other cores traverse the active page
    list performing hybrid copy (stop-and-copy of dirty DRAM pages,
    NVM/DRAM migrations); (4) the global version number is bumped — the
    atomic commit point — and the ORoots of objects that left the tree are
    garbage-collected, still inside the pause; (5) cores resume; then the
    commit is published: registered checkpoint callbacks fire (external
    synchrony, §5), and the write amplification and commit probes are
    recorded.

    Leader work is charged to the simulated clock as it happens; parallel
    hybrid-copy work is charged to per-core meters and the clock is
    advanced by any excess of the slowest core over the leader. *)

val run : State.t -> Report.t
(** Take one whole-system checkpoint and return its measurements.

    With [features.async_drain] on (at level [Hybrid]), dirty DRAM-cached
    pages are protected and enqueued instead of copied: the STW stays
    O(dirty objects), [run] returns a partial report for the {e staged}
    version, and the commit of step (4), with the publish after it, waits
    in the settle step until the backlog drains.  Any window still pending when [run] is entered is
    force-settled first (one staged version in flight, ever). *)

val attribute :
  State.t ->
  Live_tree.t ->
  (Treesls_cap.Kobj.t * int * bool) list ->
  (Treesls_cap.Kobj.kind * int) list * Report.groups
(** [attribute st live dirty] is how {!run} fills a report's [per_kind_ns]
    and [groups] from the objects its walk checkpointed, in walk order,
    each with its simulated ns and whether it was a full checkpoint; each
    object's ns also goes into its kind's Table 3 collector
    ({!State.obj_cost}).  An object's group is its owner in [live]
    ({!Live_tree.owners}).  Only kinds and groups some object landed in
    are listed. *)

val drain_step : State.t -> int
(** One asynchronous drain step (called between operations): copy a batch
    of [drain_batch] backlog pages on the follower cores, settling the
    window when the backlog empties. Returns pages copied; 0 when no
    window is pending. *)

val settle : State.t -> unit
(** Force the pending window (if any) durable now: drain the remaining
    backlog and commit. No-op when nothing is pending. *)

val resolve_cow_fault : State.t -> Treesls_cap.Kobj.pmo -> int -> bool
(** Write-fault arbitration while a drain window is pending: resolves the
    owed copy (backlogged DRAM page) or banks a version-correct backup
    (protected NVM page) and returns [true]; [false] when no window is
    pending and the caller should run the eager CoW protocol. *)
