(** Radix tree keyed by non-negative integers.

    PMOs "record a set of physical memory pages organized by a radix tree"
    (§4.1).  The same structure is reused by the checkpoint layer for
    checkpointed page metadata.  The node count is exposed because copying
    the radix interior is the dominant cost of a *full* PMO checkpoint
    (Table 3). *)

type 'a t

val create : unit -> 'a t
(** 6-bit fanout (64 slots per node); height grows on demand.  A radix
    whose keys are all below 64 is one root node, as wide as the power of
    two above its largest key (empty at creation); only a full-width root
    moves down when a larger key adds a level.  The width never shows in
    {!node_count}, which counts that root as one node. *)

val get : 'a t -> int -> 'a option
val set : 'a t -> int -> 'a -> unit
val remove : 'a t -> int -> unit
val mem : 'a t -> int -> bool
val iter : (int -> 'a -> unit) -> 'a t -> unit
val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
val cardinal : 'a t -> int
val node_count : 'a t -> int
(** Interior + leaf node count (copy-cost model). *)

val copy : 'a t -> 'a t
(** Structural copy (values are shared). *)

val clear : 'a t -> unit
