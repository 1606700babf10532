(** Per-checkpoint measurement report (feeds Figures 9-10 and Tables 2-4). *)

type group_cost = {
  g_ns : int;  (** captree time spent on this subtree's objects *)
  g_objects : int;
  g_kinds : (Treesls_cap.Kobj.kind * int) list;  (** breakdown within the subtree *)
}
(** STW cost of one capability subtree — the objects owned by one process
    group ("kernel" for objects reachable only from the root). *)

type groups
(** A report's cap-tree time by owning subtree, read with {!per_group}.  A
    checkpoint packs it as the nonzero cells of its walk's (group × kind)
    tally, 16 bytes a cell, so the reports a run keeps stay small. *)

type t = {
  version : int;  (** version this checkpoint committed *)
  stw_ns : int;  (** total stop-the-world pause *)
  ipi_ns : int;  (** quiescing + resuming cores *)
  captree_ns : int;  (** leader: walking/copying the capability tree *)
  others_ns : int;  (** leader: commit, GC, callbacks, bookkeeping *)
  hybrid_ns : int;  (** max per-core parallel hybrid-copy time *)
  per_kind_ns : (Treesls_cap.Kobj.kind * int) list;  (** cap-tree time by type *)
  groups : groups;  (** cap-tree time by owning subtree *)
  objects_walked : int;
  full_objects : int;  (** objects checkpointed for the first time *)
  objects_skipped : int;  (** clean objects the incremental walk skipped *)
  pages_protected : int;  (** dirty pages marked read-only *)
  dram_dirty_copied : int;  (** dirty DRAM pages stop-and-copied *)
  migrated_in : int;  (** pages migrated NVM -> DRAM *)
  migrated_out : int;  (** pages demoted DRAM -> NVM *)
  cached_pages : int;  (** DRAM-cached pages after this checkpoint *)
  snapshot_bytes : int;  (** object snapshot bytes written *)
  nvm_bytes_written : int;
      (** physical NVM bytes landed since the previous checkpoint (wearmap
          delta): app data, CoW backups, hybrid copies, snapshots, journal
          and meta words *)
  logical_dirty_bytes : int;
      (** page size × (pages_protected + dram_dirty_copied + pages_drained)
          — the application-level dirty delta this interval, independent of
          checkpoint strategy *)
  pages_drained : int;
      (** async drain: backlog copies completed off the STW path (background
          steps + fault-resolved); 0 in eager mode *)
  cow_faults : int;
      (** async drain: write faults on still-protected pages resolved during
          the drain window *)
  drain_ns : int;  (** async drain: metered follower-core copy time *)
}

val zero : t
val pp : Format.formatter -> t -> unit

val waf : t -> float
(** Write-amplification factor: [nvm_bytes_written / max 1
    logical_dirty_bytes].  The checkpoint strategy's overhead shows up
    here — an eager walk re-writes every object snapshot each interval
    and amplifies accordingly; the incremental walk should not. *)

val groups_of_list : (string * group_cost) list -> groups
(** Groups exactly as listed, in that order. *)

val groups_of_tally :
  names:string array -> group_n:int array -> gk_n:int array -> gk_ns:int array -> groups
(** The groups of one walk's tally ({!Live_tree.tallies}): group [g] is
    [names.(g)], its object count [group_n.(g)], and its kind [k]'s objects
    and ns are [gk_n] and [gk_ns] at [(g * kinds) + k], [kinds] the length
    of [Kobj.all_kinds].  Only cells with objects are kept; [names] is
    shared, not copied.  The arrays are only read. *)

val group_list : groups -> (string * group_cost) list
(** Packed groups expand to the subtrees some object landed in, in group
    order, each with the kinds it holds in [Kobj.all_kinds] order and its
    [g_ns] and [g_objects] the sums over them; {!groups_of_list} gives back
    its list. *)

val per_group : t -> (string * group_cost) list
(** [group_list t.groups]. *)

val sorted_groups : t -> (string * group_cost) list
(** {!per_group} sorted costliest first (name breaks ties). *)

val folded_lines : t -> string list
(** Collapsed-stack lines ([frame;frame;leaf value]) for flamegraph
    tooling — per-group, per-kind captree cost plus the other STW phases;
    spaces in frames are replaced with ['_']. *)

(** {2 The metrics a commit publishes}

    Handles on every registry name [Checkpoint] updates at a commit,
    resolved once per state ([State.commit_metrics]): a by-name update
    hashes its name, and a commit makes some twenty-five of them.  Like
    any {!Treesls_obs.Metrics} handle, each registers its name at its
    first sample. *)

type metrics = {
  runs : Treesls_obs.Metrics.counter;  (** [ckpt.runs] *)
  walked : Treesls_obs.Metrics.counter;  (** [ckpt.objects_walked] *)
  skipped : Treesls_obs.Metrics.counter;  (** [ckpt.objects_skipped] *)
  fulls : Treesls_obs.Metrics.counter;  (** [ckpt.full_objects] *)
  dirty_fraction : Treesls_obs.Metrics.gauge;  (** [ckpt.dirty_fraction_pct] *)
  protected : Treesls_obs.Metrics.counter;  (** [ckpt.pages.protected] *)
  dirty_copied : Treesls_obs.Metrics.counter;  (** [ckpt.pages.dirty_copied] *)
  migrated_in : Treesls_obs.Metrics.counter;  (** [ckpt.pages.migrated_in] *)
  migrated_out : Treesls_obs.Metrics.counter;  (** [ckpt.pages.migrated_out] *)
  cached : Treesls_obs.Metrics.gauge;  (** [ckpt.cached_pages] *)
  version_g : Treesls_obs.Metrics.gauge;  (** [ckpt.version] *)
  stw : Treesls_obs.Metrics.timer;  (** [ckpt.stw_ns] *)
  captree : Treesls_obs.Metrics.timer;  (** [ckpt.captree_ns] *)
  hybrid : Treesls_obs.Metrics.timer;  (** [ckpt.hybrid_ns] *)
  others : Treesls_obs.Metrics.timer;  (** [ckpt.others_ns] *)
  backlog : Treesls_obs.Metrics.gauge;  (** [ckpt.drain.backlog] *)
  protected_last : Treesls_obs.Metrics.gauge;  (** [ckpt.pages.protected.last] *)
  drained : Treesls_obs.Metrics.counter;  (** [ckpt.drain.pages] *)
  drain_cow_faults : Treesls_obs.Metrics.counter;  (** [ckpt.drain.cow_faults] *)
  drain : Treesls_obs.Metrics.timer;  (** [ckpt.drain_ns] *)
  waf_g : Treesls_obs.Metrics.gauge;  (** [ckpt.nvm.waf] *)
  nvm_bytes : Treesls_obs.Metrics.counter;  (** [ckpt.nvm.bytes] *)
  nvm_touched : Treesls_obs.Metrics.gauge;  (** [nvm.pages_touched] *)
  dram_touched : Treesls_obs.Metrics.gauge;  (** [dram.pages_touched] *)
  mutable wear : (string * Treesls_obs.Metrics.gauge) list;
      (** [nvm.bytes_written.SUBSYSTEM], by subsystem, made on first use *)
}

val metrics : Treesls_obs.Metrics.t -> metrics
(** Handles on the registry's names; registers nothing. *)

val wear_gauge : metrics -> Treesls_obs.Metrics.t -> string -> Treesls_obs.Metrics.gauge
(** The [nvm.bytes_written.SUBSYSTEM] gauge of a wearmap subsystem, made
    (in [m]) the first time the subsystem is asked for. *)
