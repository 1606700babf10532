(** In-memory hash table stored entirely in process memory.

    This is the data structure behind the Memcached/Redis-style
    applications: buckets, entries and the bump allocator cursor all live
    in one PMO-backed region, so the store is exactly as persistent as the
    checkpointing of that memory makes it — there is no persistence code in
    the store itself, which is the SLS programming model the paper argues
    for.  After a crash+restore, {!attach} re-derives the handle from the
    region's (rolled-back) header.

    Layout: page 0 is the header (bucket count, entry count, allocation
    cursor); the bucket array follows; entries are bump-allocated after it.
    Updates that fit the original value capacity are done in place;
    oversized updates allocate a fresh entry (the old one becomes garbage —
    the region is sized for the run, as in a cache server). *)

module Kernel = Treesls_kernel.Kernel

type t

val create : Kernel.t -> Kernel.process -> buckets:int -> pages:int -> t
(** Allocate a region of [pages] and format an empty store. *)

val create_at : Kernel.t -> Kernel.process -> vpn:int -> pages:int -> buckets:int -> t
(** Re-format an existing region in place (zeroing the bucket array):
    used by LSM memtable resets after a flush. *)

val attach : Kernel.t -> Kernel.process -> vpn:int -> t
(** Re-open a store previously created at [vpn] (post-restore). *)

val base_vpn : t -> int

val put : t -> key:string -> value:string -> unit
(** Store [value] under [key], writing the string's own bytes: the
    simulated write is the value's only copy.  Raises {!Full}, leaving
    the store as it was, when a new or grown entry finds no room. *)

val put_sub : t -> key:string -> Bytes.t -> off:int -> len:int -> unit
(** {!put} of the [len] bytes of the buffer from [off] (e.g. the value
    inside a request payload), written in place; the buffer is only
    read. *)

val get : t -> key:string -> string option
(** The value, as the simulated read returned it (no second copy). *)

val delete : t -> key:string -> bool
val mem : t -> key:string -> bool
val count : t -> int
val bytes_used : t -> int

exception Full
(** Raised by {!put} when the region's entry space is exhausted; the key
    keeps its previous value, if it had one. *)
