(** The stop-the-world checkpoint procedure (Figure 5).

    Steps: (1) IPI all cores into quiescence; (2) the leader walks the
    runtime capability tree and copies every object's state into its ORoot
    backups — user pages are {e not} copied, dirty ones are re-marked
    read-only; (3) in parallel, the other cores traverse the active page
    list performing hybrid copy (stop-and-copy of dirty DRAM pages,
    NVM/DRAM migrations); (4) the global version number is bumped — the
    atomic commit point; (5) cores resume; then registered checkpoint
    callbacks fire (external synchrony, §5) and ORoots of objects that left
    the tree are garbage-collected.

    Leader work is charged to the simulated clock as it happens; parallel
    hybrid-copy work is charged to per-core meters and the clock is
    advanced by any excess of the slowest core over the leader. *)

val run : State.t -> Report.t
(** Take one whole-system checkpoint and return its measurements.

    With [features.async_drain] on (and a non-Eager policy), dirty
    DRAM-cached pages are protected and enqueued instead of copied: the
    STW stays O(dirty objects), [run] returns a partial report for the
    {e staged} version, and the version bump — with the GC, extsync
    callbacks, wear accounting and black-box sample — waits in the settle
    step until the backlog drains.  Any window still pending when [run] is
    entered is force-settled first (one staged version in flight, ever). *)

val drain_step : State.t -> int
(** One asynchronous drain step (called between operations): copy a
    policy-sized batch of backlog pages on the follower cores, settling
    the window when the backlog empties. Returns pages copied; 0 when no
    window is pending. *)

val settle : State.t -> unit
(** Force the pending window (if any) durable now: drain the remaining
    backlog and commit. No-op when nothing is pending. *)

val resolve_cow_fault : State.t -> Treesls_cap.Kobj.pmo -> int -> bool
(** Write-fault arbitration while a drain window is pending: resolves the
    owed copy (backlogged DRAM page) or banks a version-correct backup
    (protected NVM page) and returns [true]; [false] when no window is
    pending and the caller should run the eager CoW protocol. *)

val resolve_region : Treesls_cap.Kobj.vmspace -> int -> (Treesls_cap.Kobj.pmo * int) option
(** [resolve_region vms vpn] is the (pmo, page index) backing [vpn], via a
    freshly built {!Region_index} over the VM space's regions (the walk
    keeps its indexes in the live-tree cache); when regions overlap, the
    first one in region-list order wins (exposed for unit tests). *)
