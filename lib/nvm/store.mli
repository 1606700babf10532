(** The checkpoint manager's storage layer.

    Bundles the NVM and DRAM page devices, the journaled word area, the
    buddy and slab allocators, and the global checkpoint metadata.  This is
    the "standalone in-kernel module whose state is not checkpointed" of §3:
    it survives power failure through its own journaling ({!recover}), not
    through the capability-tree checkpoint.

    All operations charge simulated time to a pluggable sink, by default
    the global clock; the checkpoint code redirects charges to per-core
    meters while modelling work done in parallel with the leader.

    A store also owns its system's observability probe and crash-site
    table.  Both outlive crashes and kernel rebuilds, like the store
    itself, and every layer above reaches them through the store it
    holds. *)

type t

type sink = Clock_sink | Meter of int ref | Off

val create :
  ?cost:Treesls_sim.Cost.t ->
  ?ssd_pages:int ->
  clock:Treesls_sim.Clock.t ->
  nvm_pages:int ->
  dram_pages:int ->
  unit ->
  t
(** [nvm_pages] must be a power of two. [ssd_pages] sizes the swap device
    used by memory over-commitment (default 4096).  The store's probe is
    built from [clock] before the allocators are formatted, so the format
    journal is charged to it. *)

val cost : t -> Treesls_sim.Cost.t
val clock : t -> Treesls_sim.Clock.t
val meta : t -> Global_meta.t
val buddy : t -> Buddy.t
val slab : t -> Slab.t
val warea : t -> Warea.t

val probe : t -> Treesls_obs.Probe.t
(** This system's observability context. *)

val crash_sites : t -> Crash_site.t
(** This system's named-crash-site table. *)

val charge : t -> int -> unit
(** Charge [ns] to the current sink. *)

val with_sink : t -> sink -> (unit -> 'a) -> 'a
(** Temporarily redirect charges (restores the previous sink on exit, also
    on exception). *)

(** {2 Pages} *)

val alloc_page : t -> Paddr.t
(** Allocate one NVM page. Raises [Out_of_memory] when NVM is exhausted. *)

val free_page : t -> Paddr.t -> unit
(** Free an NVM page (must have been allocated with {!alloc_page}). *)

val alloc_dram_page : t -> Paddr.t option
(** Allocate one DRAM page; [None] when the DRAM cache is full. *)

val free_dram_page : t -> Paddr.t -> unit

val page_bytes : t -> Paddr.t -> Bytes.t
(** Raw backing store of a page (no cost charged; callers charge access
    costs at the right granularity). *)

val zero_page : t -> Paddr.t -> unit
(** Clear a page, charging no time (like {!alloc_dram_page}'s clearing);
    a never-written frame is already zero and records no write. *)

val copy_page : t -> src:Paddr.t -> dst:Paddr.t -> unit
(** Copy page content, charging the device-appropriate memcpy cost. *)

val read_page : t -> Paddr.t -> off:int -> len:int -> Bytes.t
(** Read bytes, charging per-cacheline access cost. *)

val write_page : t -> Paddr.t -> off:int -> Bytes.t -> unit
(** Write bytes, charging per-cacheline access cost. *)

(** {2 SSD swap (memory over-commitment, paper section 8)} *)

val swap_out : t -> src:Paddr.t -> Paddr.t option
(** Move an NVM page's content into an SSD slot and free the NVM frame;
    [None] if the swap device is full. Charges one SSD page transfer. *)

val swap_in : t -> slot:Paddr.t -> Paddr.t
(** Bring a swapped page back: allocates an NVM frame, copies, frees the
    slot. Raises [Out_of_memory] if NVM is exhausted. *)

val free_ssd_page : t -> Paddr.t -> unit
(** Release a swap slot (rollback of pages that left the checkpoint). *)

val ssd_slots_free : t -> int

(** {2 Small objects} *)

val alloc_obj : t -> size:int -> Slab.handle
(** Slab-allocate. Raises [Out_of_memory] when exhausted. *)

val free_obj : t -> Slab.handle -> unit

(** {2 Failure} *)

val crash : t -> unit
(** Power failure: DRAM content and the DRAM allocator are lost; NVM,
    the word area (possibly with a torn journal record) and global metadata
    survive. *)

val recover : t -> unit
(** Replay the journal and reset the DRAM allocator. Must run before any
    other operation after {!crash}. *)

(** {2 Backup integrity (data reliability, paper section 8)} *)

val set_checksums : t -> bool -> unit
(** Enable/disable reliability mode (default off, matching the paper's
    base system). When on, backup pages are checksummed as they are
    written and verified before restore uses them. *)

val seal_page : t -> Paddr.t -> unit
(** Record a checksum of the page's current content (no-op when
    reliability mode is off). Checkpoint code seals every backup page
    right after copying into it; the digest lives in NVM metadata and
    survives crashes. *)

val verify_page : t -> Paddr.t -> bool
(** [true] if the page is unsealed, or sealed and its content still
    matches the recorded checksum. *)

val unseal_page : t -> Paddr.t -> unit
(** Drop the checksum (the page leaves the backup role, e.g. it becomes a
    runtime page again and will be legitimately modified). *)

val is_sealed : t -> Paddr.t -> bool

val corrupt_page : t -> Paddr.t -> unit
(** Fault injection for tests: flip bits in the page so a sealed page
    fails verification (models NVM media corruption). *)

(** {2 Introspection} *)

val nvm_pages_free : t -> int
val nvm_pages_total : t -> int

val nvm_pages_touched : t -> int
val dram_pages_touched : t -> int
(** Pages whose backing storage has been materialised on each device
    (surfaces [Device.touched]); the DRAM count resets to 0 on crash,
    the NVM count survives. *)

val dram_pages_free : t -> int
val live_objects : t -> int

val journal_in_flight : t -> bool
(** Whether an un-truncated word-area journal record exists. Outside a
    crash window this must be [false] (the auditor's "journal idle"
    invariant). *)

val allocator_meta_words : t -> int
(** Size of the journaled word area holding buddy + slab metadata. *)

val sealed_pages : t -> int
(** Number of pages currently carrying a backup checksum. *)
