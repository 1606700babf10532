(** Per-VM-space page tables.

    Page tables live in DRAM and are {e not} checkpointed: "TreeSLS
    duplicates the list of virtual memory regions to the backup tree, and
    ignores the page table structure as the page tables can be rebuilt
    after recovery" (§4.1).  After a restore each process starts with an
    empty page table and faults mappings back in from its VM regions.

    The writable bit doubles as the dirty-tracking mechanism for
    checkpointing: a PTE made writable since the last checkpoint is exactly
    a page modified since the last checkpoint.  The dirty list makes the
    checkpoint-time "mark newly-changed pages read-only" pass proportional
    to the number of dirty pages, not mapped pages.

    A table is an array of PTEs indexed by vpn, grown to the highest vpn
    mapped: a process carves its regions upward from vpn 16, so vpns are
    dense.  A mapping is never removed; a crash drops whole tables. *)

type pte = {
  mutable paddr : Treesls_nvm.Paddr.t;
  mutable writable : bool;
  mutable dirty : bool;  (** hardware-style dirty bit: set on write access *)
}

type t

val create : unit -> t

val map : t -> vpn:int -> paddr:Treesls_nvm.Paddr.t -> writable:bool -> unit
(** Installs a mapping. A writable mapping is recorded as dirty. *)

val absent : pte
(** What {!find} returns for an unmapped vpn, the same PTE for every
    table (compare with [==]).  It is never writable, and nothing may
    write to it. *)

val find : t -> vpn:int -> pte
(** The PTE mapping [vpn], or {!absent}: one array load, no allocation. *)

val lookup : t -> vpn:int -> pte option

val protect : t -> vpn:int -> unit
(** Force a mapping read-only immediately (page demoted from the DRAM
    cache must resume copy-on-write tracking). No-op if unmapped. *)

val make_writable : t -> vpn:int -> unit
(** Fault path: upgrade to writable and record the page dirty.
    Raises [Invalid_argument] if unmapped. *)

val unprotect : t -> vpn:int -> unit
(** Drop CoW protection {e without} recording the page dirty: used by the
    asynchronous drain to reopen pages whose copy is already banked —
    {!make_writable} would wrongly nominate them for the next checkpoint's
    protect pass. No-op if unmapped. *)

val remap : t -> vpn:int -> paddr:Treesls_nvm.Paddr.t -> unit
(** Replace the physical page of an existing mapping (page migration),
    preserving the writable and dirty bits. *)

val dirty_count : t -> int

val protect_dirty : t -> (int -> pte -> bool) -> int
(** Checkpoint pass over pages dirtied since the last call: the callback
    decides per page whether to mark it read-only ([true]) or leave it
    writable ([false], used for DRAM-cached hot pages that are covered by
    stop-and-copy instead). Either way the page leaves the dirty list.
    Returns how many were protected. *)

val mapped_count : t -> int
