(** Hash tables keyed by [int], hashed by the key itself.

    The checkpoint's and restore's bookkeeping tables (the live-tree
    cache, restore's stub map, the audit's visited sets) are keyed by
    object ids, dense small integers.  The identity hash spreads those
    evenly and costs nothing, where the polymorphic [Hashtbl] hashes
    through a C call on every lookup. *)

include Hashtbl.S with type key = int
