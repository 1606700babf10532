(** Shared state of the checkpoint manager.

    Split between NVM-resident state that survives a crash (ORoots with
    their backup snapshots and page tables, the committed id high-water
    mark, the root cap group id) and volatile state that is rebuilt after
    recovery (the active page list, pending fresh-page notes, registered
    callbacks). *)

module Kobj = Treesls_cap.Kobj
module Kernel = Treesls_kernel.Kernel

(** How much of the checkpoint machinery runs: the cumulative bars of
    Figure 10, each level adding one mechanism to the level before it
    (so levels compare in declaration order).
    Only [Cow] and [Hybrid] persist page contents: [Tree] and [Fault] are
    overhead-only ablation levels whose commits capture object state but
    leave no pre-image of a page written after the checkpoint, so a
    restore does not bring back the committed page contents. *)
type level =
  | Off  (** no periodic checkpoints ([Manager.tick] never fires) *)
  | Tree  (** stop-the-world capability-tree checkpoints; pages untracked *)
  | Fault
      (** + dirty pages re-marked read-only at each checkpoint, so the
          next write faults; the fault copies nothing *)
  | Cow  (** + the fault saves the page's pre-image (copy-on-write) *)
  | Hybrid
      (** + hot pages cached in DRAM and stop-and-copied in parallel
          (Figure 5 step 3); the default *)

type features = {
  mutable level : level;
  mutable incremental_walk : bool;
      (** skip clean objects (an ORoot, and not in the kernel's dirty
          log) during the STW walk *)
  mutable adaptive_interval : bool;
      (** let the PID-style controller retune the checkpoint interval
          against a latency SLO at every commit (default off; see
          {!Interval_ctl}) *)
  mutable async_drain : bool;
      (** split the STW capture from the page copies: dirty DRAM-cached
          pages are protected and enqueued at the STW, copied later by
          {!Drain} steps, and the version commits at settle (default off;
          takes effect only at level [Hybrid]) *)
}

(** Count and extremes of one kind's per-object cost, in simulated ns.
    Table 3 reports only the min and max, so no sample is kept: a
    collector's size does not grow with the objects it measures. *)
type cost_range = {
  mutable n : int;  (** objects measured *)
  mutable min_ns : int;  (** [max_int] while [n = 0] *)
  mutable max_ns : int;  (** [min_int] while [n = 0] *)
}

type obj_cost = {
  full : cost_range;  (** per-object full checkpoint *)
  incr : cost_range;  (** per-object incremental checkpoint *)
  restore : cost_range;  (** per-object restore *)
}

type t = {
  mutable kernel : Kernel.t;
  mutable oroots : Oroot.t option array;
      (** NVM: the ORoots, indexed by object id (a slot per id handed out,
          grown by doubling); read through {!find_oroot}, {!iter_oroots} *)
  mutable oroot_count : int;  (** the [Some] slots of [oroots] *)
  active : Active_list.t;  (** volatile *)
  mutable root_id : int;  (** NVM: object id of the root cap group *)
  mutable ids_hwm : int;  (** NVM: id counter at the last committed checkpoint *)
  features : features;
  pending_fresh : (int, (Kobj.pmo * int list) ref) Hashtbl.t;
      (** volatile: pmo id -> pages added since the last checkpoint walk *)
  obj_costs : obj_cost array;
      (** measurement collectors, indexed by {!Treesls_cap.Kobj.kind_index} *)
  mutable ckpt_callbacks : (unit -> unit) list;  (** volatile; §5 *)
  mutable page_archive_hook : (Kobj.pmo -> int -> Treesls_nvm.Paddr.t -> unit) option;
      (** eidetic extension (§8): invoked during the STW pause for every
          page whose content belongs to the committing version — dirty
          pages being re-protected, stop-and-copied DRAM pages, and every
          page of a first-time (full) PMO checkpoint *)
  mutable interval_ns : int option;
  mutable next_ckpt_at : int;
  mutable last_report : Report.t option;
  mutable live_tree : Live_tree.t option;
      (** volatile: the capability tree as the last walk found it, reused
          while its shape is unchanged (see {!Live_tree}) *)
  mutable wear_mark : int;
      (** cumulative wearmap bytes at the last committed checkpoint (at
          attach before the first): the per-interval physical-NVM-bytes
          delta (WAF numerator) is measured against this watermark at each
          commit *)
  drain : Drain.t;
      (** asynchronous-drain window state: backlog of owed page copies,
          CoW restamp/saved tables, and the staged (pending) version *)
  mutable drain_batch : int;  (** backlog pages copied per drain step *)
  mutable claimed : Bytes.t;
      (** volatile: restore's allocator reconciliation marks the NVM pages
          something names here, one byte per page; made at the first
          recovery and cleared at every one after *)
  commit_metrics : Report.metrics;
      (** handles on the metrics a commit publishes, in the store's probe *)
}

val default_features : unit -> features
val create : Kernel.t -> Active_list.config -> features -> t

val probe : t -> Treesls_obs.Probe.t
val crash_sites : t -> Treesls_nvm.Crash_site.t
(** The store's per-system probe and crash-site table. *)

val find_oroot : t -> int -> Oroot.t option
(** The ORoot of an object id, if it has one. *)

val iter_oroots : t -> (int -> Oroot.t -> unit) -> unit
(** Every ORoot with its object id, by ascending id. *)

val oroot_for : t -> Kobj.t -> version:int -> Oroot.t * bool
(** The object's ORoot, creating it if absent; the flag is [true] when this
    is the object's first checkpoint (full checkpoint). *)

val note_fresh_page : t -> Kobj.pmo -> int -> unit
val drain_fresh : t -> Kobj.pmo -> int list

(** What names a frame: the subsystem that keeps it allocated. *)
type frame_role =
  | Slab_page  (** a buddy page carved into small-object slabs *)
  | Drain_saved  (** saved by a CoW fault in a pending drain window *)
  | Runtime  (** a page of a normal PMO in the tree *)
  | Eternal  (** a frame of an eternal PMO in the tree *)
  | Fresh
      (** a page noted fresh ({!note_fresh_page}) for a PMO outside the
          tree without an ORoot, until the commit's GC frees it *)
  | Detached  (** a page of an ORoot's runtime PMO outside the tree *)
  | Cp_backup  (** a backup of a page whose runtime is not DRAM-cached *)
  | Cpp_backup  (** either half of a DRAM-cached page's backup pair *)

val iter_named_frames :
  t -> live:Live_tree.t -> (frame_role -> int -> int -> Treesls_nvm.Paddr.t -> unit) -> unit
(** [f role oid pno frame] for every frame something names, on every
    device, with [live] as the tree: the one rule restore's allocator
    reconciliation, the auditor, the NVM census and the wear heatmap
    read.  [oid] and [pno] name the object and page ([-1] for a slab
    page).  Claim order: slab pages, drain-saved frames, [live]'s PMOs in
    entry order, dead PMOs' fresh pages, then by ascending ORoot id its
    detached pages and its backups.  A frame named twice comes twice.
    Allocates nothing per frame but a slab page's address. *)

val fresh_tree : t -> Live_tree.t
(** A fresh traversal of the kernel's tree ({!Live_tree.build}), sized
    like the ORoot table; never the cache.  The auditor, the NVM census
    and the wear heatmap read it as the live set. *)

val obj_cost : t -> Kobj.kind -> obj_cost
(** The kind's collectors. *)

val note_cost : cost_range -> int -> unit
(** Count one object's cost (ns) into the range. *)

val note_crash : t -> unit
(** Drop volatile state.  The crash-time frames stay reachable through
    each ORoot's runtime pointer ({!Oroot.runtime_page}), which is all
    restore reads of the crashed tree. *)

val checkpoint_bytes : t -> int
(** Current checkpoint footprint: snapshot bytes + backup page frames. *)

val drop_dead_oroots : t -> live:Live_tree.t -> Oroot.t list
(** Remove every ORoot whose object [live] does not hold from the table and
    return them; frees nothing.  Restore's [oroot_gc] phase (against the
    restored tree) stops here: the frames they held are named by nothing
    and its allocator reconciliation frees them. *)

val gc_dead_oroots : t -> live:Live_tree.t -> int
(** The commit's GC, against the walk's live set: {!drop_dead_oroots},
    then free the dropped ORoots' backup frames and the runtime frames
    their runtime pointer still reaches, and the runtime frames of the
    pages noted fresh ({!note_fresh_page}) for PMOs that existed at the
    walk ([ids_hwm]) but are not live, which have no page record.
    Returns the number of ORoots dropped. *)
