(** Slab allocators for small fixed-size NVM objects.

    "Slab systems are also used to facilitate the allocation of small
    fixed-sized objects" (§3).  Each size class owns slabs; a slab is one
    buddy page carved into objects tracked by a free bitmap.  Slab headers
    live in the journaled word area; growing a class (taking a page from the
    buddy) and the bitmap update commit as one transaction, so a crash never
    leaks the page.

    A slab page whose objects are all free is returned to the buddy. *)

type t

type handle = { cls : int; slot : int; obj : int }
(** Identifies a live object: size class, slab slot, object index. *)

val class_sizes : int array
(** Object sizes served, ascending. Requests are rounded up. *)

val words_needed : max_slabs_per_class:int -> int

val format :
  Warea.t -> base:int -> buddy:Buddy.t -> page_size:int -> max_slabs_per_class:int -> t

val attach :
  Warea.t -> base:int -> buddy:Buddy.t -> page_size:int -> max_slabs_per_class:int -> t

val class_of_size : int -> int option
(** Index into {!class_sizes} for a request, or [None] if too large (goes
    to the buddy directly). *)

val alloc : t -> size:int -> handle option
(** [None] when the class is out of slots and the buddy is exhausted. *)

val free : t -> handle -> unit
(** Raises [Invalid_argument] if the handle is not live. *)

val page_of : t -> handle -> int
(** NVM page offset holding the object. *)

val live : t -> int
(** Number of live objects across all classes. *)

val slab_pages : t -> int list
(** Buddy page offsets currently held as slabs, in slot order (a read-only
    walk of the written slab words; the state auditor counts them against
    the buddy's live allocations). *)

val live_in_class : t -> int -> int

val check_invariants : t -> unit
(** Verify bitmap/capacity consistency and the live counter, reading only
    written slab words (a slot never written is empty and consistent). *)
