(** The live capability tree, cached across checkpoints.

    {!Treesls_cap.Kobj.iter_tree} rediscovers the tree from the root with a
    hash set per call.  The incremental walk needs only the objects that
    changed, but it used to re-traverse the whole tree at every
    checkpoint to find them; at serving scale that is milliseconds of host
    time per checkpoint for a tree whose shape rarely changes between two
    of them.  This cache keeps a traversal's result: the reachable objects
    in visit order, and an array indexed by object id that gives each
    one's position (ids are dense: the kernel hands them out in order, so
    the array is as long as the ids handed out).  It holds nothing else:
    an object's ORoot is looked up in the ORoot table
    ([State.find_oroot]), and the region behind a dirty page is resolved
    from the VM space ([Kernel.region_of]) only when an eidetic archive
    needs it.

    The cache stays valid while no edge of the tree changes.  Edges live
    in cap-group slots, VM-space region lists and IPC connections' server
    and shared-PMO references.  Every slot change and every region-list
    replacement notes a shape change in the kernel's dirty log, and a
    connection's references are set before it is installed and never
    change after, so an object can become reachable (or unreachable) only
    through a change the log notes.  Host-time bookkeeping only: building
    or reusing the cache charges no simulated time.

    A walk over a cache it has just built visits every entry: an object
    new to the tree has no ORoot, and no touch logged it.  After that it
    visits only the entries its kernel's dirty log names
    ({!iter_logged}).

    DRAM state: dropped at a crash.  Restore rebuilds it once from the
    restored tree ({!build}), and that one walk serves the whole
    recovery: the scheduler, the dead-ORoot GC, the allocator
    reconciliation and the first checkpoint after the restore all read
    it. *)

type t

val build : objects:int -> ids:int -> root:Treesls_cap.Kobj.cap_group -> t
(** A fresh traversal from [root], its arrays sized up front for
    [objects] objects with ids below [ids] (both grow if the tree is
    larger).  Restore passes the objects it selected and the id above the
    highest; a rebuild, the tree it replaces.  Allocates the two arrays,
    and a copy of the entries only when [objects] was not the count. *)

val refresh : t option -> root:Treesls_cap.Kobj.cap_group -> log:Treesls_cap.Dirty_log.t -> t
(** [refresh cached ~root ~log] is [cached] when it was built from [root]
    and [log] (the kernel's dirty log) notes no shape change; otherwise
    {!build}, sized like [cached].  Every walk refreshes before it clears
    the log. *)

val entries : t -> Treesls_cap.Kobj.t array
(** The reachable objects in {!Treesls_cap.Kobj.iter_tree} order. *)

val index : t -> int -> int
(** [index t oid] is the position of object [oid] in {!entries}, or [-1]
    when the tree does not hold it (any id, negative or past the array,
    may be asked). *)

val mem : t -> int -> bool
(** Whether the tree holds the object: the liveness set ORoot GC tests
    against.  Never changes after the cache is built. *)

val iter_logged : t -> Treesls_cap.Dirty_log.t -> (Treesls_cap.Kobj.t -> unit) -> unit
(** [iter_logged t log f] applies [f] to each entry whose id [log] holds,
    once, in {!entries} order; ids of objects outside the cache are
    skipped.  Allocates nothing per id: the indices are sorted in
    place. *)

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
    sharing one visited set: an array of groups indexed by object id.  An
    object belongs to the first process in [Kernel.processes] order whose
    subtree holds it; processes with the same name share one group
    (reports key groups by name), and objects reachable only from the root
    belong to ["kernel"]. *)

val tallies : owners -> tallies
(** All zero between two attributions. *)

val group_count : owners -> int
(** Groups are numbered [0 .. group_count - 1]: the process names in order
    of first appearance in [Kernel.processes], then ["kernel"] unless a
    process already bears that name. *)

val group_names : owners -> string array
(** Every group's name, by group: the owners' own array, not a copy, and
    never changed after the owners are built. *)

val owner_group : owners -> int -> int
(** The group of an object id; ["kernel"]'s for any object no process
    holds. *)

val check :
  t ->
  fresh:t ->
  log:Treesls_cap.Dirty_log.t ->
  oroot:(int -> Oroot.t option) ->
  string option
(** Coherence check for the state auditor: while the cache is still valid
    for [fresh]'s root and [log] (the kernel's dirty log), its entries
    must be exactly [fresh]'s (a traversal just built, {!build}), by id
    and in the same order, and every entry [log] does not name must have
    an ORoot ([oroot] looks one up by object id) whose newest snapshot
    equals a snapshot taken now.  [Some message] describes the first kind
    of difference found; a stale cache (rebuilt before its next use) has
    nothing to check. *)
