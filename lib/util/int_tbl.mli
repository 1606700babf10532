(** Hash tables keyed by [int], hashed by the key itself.

    The tables on the simulated memory-access path (page-table entries,
    the kernel's page-table registry, per-page wear) are keyed by dense
    small integers: vpns, object ids, frame indices.  The identity hash
    spreads those evenly and costs nothing, where the polymorphic
    [Hashtbl] hashes through a C call on every lookup. *)

include Hashtbl.S with type key = int
