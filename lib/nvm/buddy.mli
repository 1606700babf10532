(** Buddy allocator for NVM pages.

    The checkpoint manager "uses a buddy system to manage all NVM resources"
    (§3).  State is a complete binary tree stored in the journaled word area
    ({!Warea}): node [i] tracks the size of the largest free run of pages
    below it, so allocation descends in O(log n) and freeing merges buddies
    by recomputing ancestors.  A parallel array records the order of each
    live allocation so that a mismatched [free] is detected.

    Every word is stored relative to the all-free state, so an all-zero
    word range is a formatted allocator with every page free:
    - tree words [base + 1 .. base + 2n) hold each node's {e deficit},
      [node_size - longest] (0 = wholly free);
    - order words [base + 2n .. base + 3n) hold [order + 1] at the first
      page of each live allocation (0 = none);
    - the counter word [base + 3n] holds the pages in use.

    Every mutation goes through a {!Txn}; a crash at any phase leaves the
    tree either before or after the whole operation. *)

type t

val words_needed : total_pages:int -> int
(** Words of {!Warea} this allocator occupies for [total_pages] (a power of
    two). *)

val format : Warea.t -> base:int -> total_pages:int -> t
(** Initialise a fresh allocator (boot time; all pages free).  The word
    range must be all zeros, which is what a new {!Warea} holds
    ([Store.create] formats into one): the format then only journals one
    counter word, so booting costs O(1) journal work and still consumes
    one commit point. *)

val attach : Warea.t -> base:int -> total_pages:int -> t
(** Re-attach to existing state after a crash (no reformat). *)

val total_pages : t -> int
val free_pages : t -> int

val alloc_txn : Txn.t -> t -> order:int -> int option
(** Reserve a block of [2^order] pages inside an open transaction; returns
    the page offset. The reservation only becomes durable when the
    transaction commits. *)

val free_txn : Txn.t -> t -> offset:int -> unit
(** Release the block starting at [offset]. Raises [Invalid_argument] if
    [offset] is not the start of a live allocation. *)

val alloc : t -> order:int -> int option
(** [alloc_txn] + commit as a single-op transaction. *)

val free : t -> offset:int -> unit

val order_of : t -> offset:int -> int option
(** Order of the live allocation at [offset], if any. *)

val iter_live : t -> (offset:int -> order:int -> unit) -> unit
(** Visit every live allocation in ascending [offset] (a read-only walk of
    the written order words, {!Warea.iter_nonzero}; used by the state
    auditor and by restore to reconcile allocator accounting with
    reachable objects).  A record whose block would not fit in the managed
    pages is corruption, which {!check_invariants} reports; it is not
    visited. *)

val check_invariants : t -> unit
(** Verify that every order record's tag lies in [0 .. log2 total + 1],
    that records neither overlap nor misalign, and that the in-use counter
    matches; then recompute the tree from the records in one post-order
    pass and compare every node outside an allocated block with its stored
    state (words under an allocated block are stale by design and
    ignored).  The pass visits only written tree words, the allocated
    blocks' nodes and their ancestors: any other node reads wholly free
    and lies outside every block, so its subtree is free and agrees with
    its words.  O(words ever written), not O(pages managed).  Raises
    [Failure] on divergence. *)
