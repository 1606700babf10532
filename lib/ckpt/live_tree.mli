(** The live capability tree, cached across checkpoints.

    {!Treesls_cap.Kobj.iter_tree} rediscovers the tree from the root with a
    hash set per call.  The incremental walk needs only the objects whose
    generation moved, but it used to re-traverse the whole tree at every
    checkpoint to find them; at serving scale that is milliseconds of host
    time per checkpoint for a tree whose shape rarely changes between two
    of them.  This cache keeps a traversal's result: the reachable objects
    in visit order, each with its ORoot, and their id set.

    The cache stays valid while no edge of the tree changes.  Edges live in
    cap-group slots, VM-space region lists and IPC connections' server and
    shared-PMO references; the cache records every reachable holder's edges
    as it saw them and compares them before each use, so an object can
    become reachable (or unreachable) only through a change the comparison
    sees.  Host-time bookkeeping only: building or reusing the cache
    charges no simulated time.  DRAM state: dropped at a crash.  Restore
    rebuilds it once from the restored tree, and that one walk serves the
    whole recovery: the scheduler, the dead-ORoot GC, the allocator
    reconciliation and the first checkpoint after the restore all read
    it. *)

type entry = {
  obj : Treesls_cap.Kobj.t;
  mutable oroot : Oroot.t option;
      (** the object's ORoot once it has one; the walk sets it when it
          checkpoints the object *)
}

type t

val refresh :
  t option -> root:Treesls_cap.Kobj.cap_group -> oroots:(int, Oroot.t) Hashtbl.t -> t
(** [refresh cached ~root ~oroots] is [cached] when it was built from
    [root] and none of the edges it recorded has changed since; otherwise
    a fresh traversal from [root], each entry linked to its ORoot in
    [oroots]. *)

val entries : t -> entry array
(** The reachable objects in {!Treesls_cap.Kobj.iter_tree} order. *)

val live : t -> (int, unit) Hashtbl.t
(** The ids of {!entries}: the liveness set ORoot GC tests against. Never
    mutated after the cache is built. *)

val owner : t -> Treesls_kernel.Kernel.t -> int -> string
(** Name of the first process (in [Kernel.processes] order) whose subtree
    holds the object, or ["kernel"]; for per-group STW attribution. *)

val region_index : t -> Treesls_cap.Kobj.vmspace -> Region_index.t
(** The VM space's region index, built on first use for this tree. *)

val check : t -> root:Treesls_cap.Kobj.cap_group -> string option
(** Coherence check for the state auditor: while the cache is still valid
    for [root], its entries must be exactly the objects a fresh traversal
    reaches, in the same order.  [Some message] describes the first
    difference; a stale cache (rebuilt before its next use) has nothing to
    check. *)
