(** Simulated page devices.

    A device is an array of fixed-size pages.  Page storage is allocated
    lazily, in 256-page chunks each allocated on the first touch of one of
    its pages, so a fresh device costs one pointer per chunk and a large
    simulated NVM consumes host memory only for what is touched.  Every
    page index outside [\[0, pages)] raises [Invalid_argument], also one
    that falls inside the last chunk.  The NVM device survives {!crash};
    the DRAM device loses all content. *)

type kind = Paddr.device

type t

val create : wearmap:Treesls_obs.Wearmap.t -> kind:kind -> pages:int -> page_size:int -> t
(** Every byte written to an NVM device's pages is recorded in [wearmap]
    under its current writer; DRAM and SSD devices record nothing. *)

val kind : t -> kind
val pages : t -> int
val page_size : t -> int

val page : t -> int -> Bytes.t
(** Backing bytes of page [idx]; allocated (zeroed) on first access. *)

val read : t -> int -> off:int -> len:int -> Bytes.t
val write : t -> int -> off:int -> Bytes.t -> unit

val read_into : t -> int -> off:int -> len:int -> Bytes.t -> dst_off:int -> unit
(** [read] straight into [dst] at [dst_off]: one blit, no intermediate
    buffer. *)

val write_from : t -> int -> off:int -> Bytes.t -> src_off:int -> len:int -> unit
(** [write] of the [len] bytes of [src] at [src_off]: one blit. *)

val read_word : t -> int -> off:int -> len:int -> int
(** The little-endian word of [len] bytes (4 or 8) at [off], read in
    place; a 4-byte word is sign-extended, as
    [Int32.to_int (Bytes.get_int32_le _ _)] does.  An untouched page
    materialises as it does for {!read_into}. *)

val write_word : t -> int -> off:int -> len:int -> int -> unit
(** Store the low [len] bytes (4 or 8) of the int at [off], little-endian,
    in place: the bytes, materialisation and wear of {!write_from} of the
    same bytes. *)

val copy_page : src:t -> src_idx:int -> dst:t -> dst_idx:int -> unit
(** Whole-page copy between (possibly different) devices. *)

val zero_page : t -> int -> unit
(** Clear a page; an untouched page is already zero, so this writes,
    materialises and wears nothing. *)

val crash : t -> unit
(** Power failure. DRAM content is discarded (its chunks are dropped, in
    time proportional to the chunk count); NVM content is retained. *)

val touched : t -> int
(** Number of pages whose storage has been materialised (for tests). *)
