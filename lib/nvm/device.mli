(** Simulated page devices.

    A device is a flat array of fixed-size pages.  Page storage is allocated
    lazily so that a large simulated NVM does not consume host memory until
    pages are touched.  The NVM device survives {!crash}; the DRAM device
    loses all content. *)

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

val copy_page : src:t -> src_idx:int -> dst:t -> dst_idx:int -> unit
(** Whole-page copy between (possibly different) devices. *)

val zero_page : t -> int -> unit

val crash : t -> unit
(** Power failure. DRAM content is discarded; NVM content is retained. *)

val touched : t -> int
(** Number of pages whose storage has been materialised (for tests). *)
