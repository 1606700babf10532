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
    charges no simulated time.

    The walk compares every entry's generation with its ORoot's once per
    cache ({!scanned}); after that it needs to visit only the entries its
    kernel's dirty log names ({!iter_logged}), since every generation bump
    but a slot change is logged and a slot change retires the cache.  DRAM state: dropped at a crash.  Restore
    rebuilds it once from the restored tree, and that one walk serves the
    whole recovery: the scheduler, the dead-ORoot GC, the allocator
    reconciliation and the first checkpoint after the restore all read
    it. *)

type entry = {
  obj : Treesls_cap.Kobj.t;
  mutable oroot : Oroot.t option;
      (** the object's ORoot once it has one; the walk sets it when it
          checkpoints the object, and checkpoints through it without a
          table lookup.  It stays the table's ORoot for the object: only
          [State.oroot_for] adds ORoots, and only [State.drop_dead_oroots]
          removes them, always against the live set of the tree cached at
          the time ({!check} audits the links) *)
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

val live : t -> int Treesls_util.Int_tbl.t
(** The ids of {!entries}, each mapped to its index there: the liveness
    set ORoot GC tests against. Never mutated after the cache is built. *)

val scanned : t -> bool
(** Whether a walk has compared every entry since the cache was built
    (by {!refresh} or by restore). *)

val mark_scanned : t -> unit
(** Record that a walk compared every entry and cleared the dirty log. *)

val iter_logged : t -> Treesls_cap.Dirty_log.t -> (entry -> unit) -> unit
(** [iter_logged t log f] applies [f] to each entry whose id [log] holds,
    once, in {!entries} order; ids of objects outside the cache are
    skipped.  Allocates nothing per id: a mark per entry dedupes and the
    indices are sorted in place. *)

type owners
(** Per-object attribution groups for this tree shape. *)

type tallies = {
  kind_ns : int array;  (** by [Kobj.kind_index] *)
  kind_n : int array;
  group_ns : int array;  (** by group *)
  group_n : int array;
  gk_ns : int array;  (** group [g], kind [k] at [(g * kinds) + k] *)
  gk_n : int array;
}
(** Counters for attributing one walk's objects, allocated with the
    owners; whoever fills them zeroes the cells it used before the next
    walk. *)

val owners : t -> Treesls_kernel.Kernel.t -> owners
(** Built on first use for this tree shape, with one walk per process
    sharing one visited set.  An object belongs to the first process in
    [Kernel.processes] order whose subtree holds it; processes with the
    same name share one group (reports key groups by name), and objects
    reachable only from the root belong to ["kernel"]. *)

val tallies : owners -> tallies
(** All zero between two attributions. *)

val group_count : owners -> int
(** Groups are numbered [0 .. group_count - 1]: the process names in order
    of first appearance in [Kernel.processes], then ["kernel"] unless a
    process already bears that name. *)

val group_name : owners -> int -> string
val owner_group : owners -> int -> int
(** The group of an object id; ["kernel"]'s for any object no process
    holds. *)

val region_index : t -> Treesls_cap.Kobj.vmspace -> Region_index.t
(** The VM space's region index, built on first use for this tree. *)

val check :
  t ->
  root:Treesls_cap.Kobj.cap_group ->
  log:Treesls_cap.Dirty_log.t ->
  oroots:(int, Oroot.t) Hashtbl.t ->
  string option
(** Coherence check for the state auditor: while the cache is still valid
    for [root], its entries must be exactly the objects a fresh traversal
    reaches, in the same order, and every entry's cached ORoot must be,
    physically, the one [oroots] holds for its id.  Once the cache is
    {!scanned}, and while [log] (the kernel's dirty log) has not
    overflowed, every entry whose generation moved since its checkpoint
    must be in [log].  [Some message] describes the first kind of
    difference found; a stale cache (rebuilt before its next use) has
    nothing to check. *)
