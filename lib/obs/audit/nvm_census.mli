(** Per-subsystem census of NVM consumption.

    One read-only walk over the runtime tree, the ORoot/backup tree and
    the allocators, bucketing every NVM page (and the metadata byte
    streams) by the subsystem that owns it — the paper's Table 2 ("NVM
    usage by kind") turned into a queryable structure.  The same buckets
    are what the auditor ({!Audit}) reconciles against the buddy
    allocator's live-block walk, so a page that shows up in no bucket is
    a leak and a page in two buckets is a double-claim.

    [diff] subtracts two censuses field-wise; the CLI's
    [census --baseline] uses it to show what a workload added on top of
    the freshly booted system. *)

type t = {
  version : int;  (** committed checkpoint version at collection time *)
  page_size : int;
  total_pages : int;  (** NVM device size, pages *)
  free_pages : int;
  runtime_pages : int;
      (** NVM frames serving runtime pages of normal PMOs (live in the
          tree, or not yet reclaimed by ORoot GC) *)
  eternal_pages : int;  (** frames of eternal PMOs (never rolled back) *)
  backup_cp_frames : int;
      (** single-backup (CP) frames: pages whose runtime copy lives on
          NVM/SSD and doubles as the consistent copy *)
  backup_cpp_frames : int;
      (** backup-pair (CPP) frames: both NVM halves kept for
          DRAM-cached runtime pages *)
  slab_pages : int;  (** buddy pages carved into small-object slabs *)
  slab_objects : int;  (** live small objects across all slab classes *)
  cp_records : int;  (** checkpointed-page records across all ORoots *)
  snapshot_slots : int;  (** occupied ORoot snapshot slots (a + b) *)
  snapshot_bytes : int;
  sealed_pages : int;  (** pages carrying a backup checksum *)
  allocator_meta_bytes : int;  (** journaled word area (buddy + slab) *)
}

val collect : Treesls_ckpt.Manager.t -> t
(** Walk a quiesced system. Pure read; charges no simulated time. *)

val page_owners : Treesls_ckpt.Manager.t -> (int, string) Hashtbl.t
(** NVM page index -> owner label
    ([role/process/object], e.g. ["runtime/memcached/pmo12"],
    ["backup/redis/obj7"], ["eternal/kernel/pmo3"], ["slab"]) for
    wear-heatmap attribution.  Pure read; charges no simulated time. *)

val accounted_pages : t -> int
(** Pages claimed by some subsystem:
    runtime + eternal + CP + CPP + slab. *)

val unaccounted_pages : t -> int
(** [total - free - accounted]; nonzero means a leak (or double-count),
    which {!Audit.run} pinpoints per frame. *)

val diff : t -> t -> t
(** [diff cur base]: field-wise [cur - base] ([version]/[page_size] are
    taken from [cur]). *)

val rows : t -> (string * int * int) list
(** [(label, count, bytes)] table rows, fixed order; feeds {!pp}. *)

val pp : Format.formatter -> t -> unit

val to_json : t -> Treesls_util.Json.t
