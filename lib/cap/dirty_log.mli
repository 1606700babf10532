(** The ids of the objects whose generation moved since the last
    checkpoint walk.

    Every {!Kobj.touch} records here, so the incremental walk can visit
    the objects this log names instead of comparing the generation of
    every object in the tree.  One log per kernel: DRAM state, so a
    restored kernel starts with an empty one.

    Recording allocates nothing: the ids go into one int array, reused
    from walk to walk, and an id equal to the last one recorded is
    skipped.  The log holds at most as many entries as its id generator
    has issued ids; a record past that bound drops the log instead
    ({!overflowed}), and the next walk compares every object, which costs
    no more than visiting that many entries. *)

type t

val create : Id_gen.t -> t
(** An empty log bounded by the ids [Id_gen] has issued. *)

val record : t -> int -> unit
(** Note an object id. *)

val overflowed : t -> bool
(** Whether a record found the log full since the last {!clear}: the ids
    are lost and only a full comparison finds the changed objects. *)

val length : t -> int
(** Entries held (0 once overflowed).  Ids may repeat, just never twice
    in a row. *)

val get : t -> int -> int
(** [get t i] is the [i]-th id recorded, [0 <= i < length t]. *)

val clear : t -> unit
(** Empty the log and lift the overflow; keeps its storage. *)
