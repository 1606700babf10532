(** What changed since the last checkpoint walk: the ids of the objects
    whose checkpointable state was written, and whether the capability
    tree's shape changed.

    Every {!Kobj.touch} records an id here, and every cap-slot change
    ({!Kobj.install}, {!Kobj.install_at}, {!Kobj.revoke}) records its
    group and notes a shape change, so the log is the walk's only record
    of change: an object with an ORoot that the log does not name is
    clean, and the live-tree cache stays valid while no shape change is
    noted.  One log per kernel: DRAM state, so a restored kernel starts
    with an empty one.

    The log holds each id once, in the order first recorded, and marks
    it with a byte indexed by the id (grown to the largest id recorded),
    so {!mem} is one read and recording allocates nothing once the
    storage has grown.  It cannot overflow: it holds at most one entry
    per id.  {!clear} unmarks only the ids it holds, so the walk empties
    it in O(logged), never O(tree). *)

type t

val create : unit -> t
(** An empty log. *)

val record : t -> int -> unit
(** Note an object id (non-negative); an id already held is not added
    again. *)

val mem : t -> int -> bool
(** Whether the log holds the id. *)

val note_shape_change : t -> unit
(** Note that an edge of the tree changed: a cap slot, or a VM space's
    region list. *)

val shape_changed : t -> bool
(** Whether a shape change was noted since the last {!clear}. *)

val length : t -> int
(** Distinct ids held. *)

val get : t -> int -> int
(** [get t i] is the [i]-th id recorded, [0 <= i < length t]. *)

val clear : t -> unit
(** Empty the log and forget the shape change; keeps its storage. *)
