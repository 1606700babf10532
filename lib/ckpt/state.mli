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
      (** skip clean objects (generation unchanged) during the STW walk *)
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

type obj_cost = {
  full : Treesls_util.Stats.t;  (** per-object full checkpoint ns *)
  incr : Treesls_util.Stats.t;  (** per-object incremental checkpoint ns *)
  restore : Treesls_util.Stats.t;  (** per-object restore ns *)
}

type t = {
  mutable kernel : Kernel.t;
  oroots : (int, Oroot.t) Hashtbl.t;  (** NVM: object id -> ORoot *)
  active : Active_list.t;  (** volatile *)
  mutable root_id : int;  (** NVM: object id of the root cap group *)
  mutable ids_hwm : int;  (** NVM: id counter at the last committed checkpoint *)
  features : features;
  pending_fresh : (int, (Kobj.pmo * int list) ref) Hashtbl.t;
      (** volatile: pmo id -> pages added since the last checkpoint walk *)
  obj_costs : (Kobj.kind, obj_cost) Hashtbl.t;  (** measurement collectors *)
  mutable ckpt_callbacks : (unit -> unit) list;  (** volatile; §5 *)
  mutable page_archive_hook : (Kobj.pmo -> int -> Treesls_nvm.Paddr.t -> unit) option;
      (** eidetic extension (§8): invoked during the STW pause for every
          page whose content belongs to the committing version — dirty
          pages being re-protected, stop-and-copied DRAM pages, and every
          page of a first-time (full) PMO checkpoint *)
  mutable crashed_root : Kobj.cap_group option;
      (** set by {!note_crash}: the crash-time runtime tree, whose NVM page
          pointers the restore consults *)
  mutable interval_ns : int option;
  mutable next_ckpt_at : int;
  mutable last_report : Report.t option;
  mutable force_full : bool;
      (** eager-walk override for the next checkpoint: set at creation and
          by {!note_crash}, cleared by [Checkpoint.run] — the first walk
          after boot or restore must visit every object to (re)seed the
          per-object saved generations *)
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
}

val default_features : unit -> features
val create : Kernel.t -> Active_list.config -> features -> t

val probe : t -> Treesls_obs.Probe.t
val crash_sites : t -> Treesls_nvm.Crash_site.t
(** The store's per-system probe and crash-site table. *)

val oroot_for : t -> Kobj.t -> version:int -> Oroot.t * bool
(** The object's ORoot, creating it if absent; the flag is [true] when this
    is the object's first checkpoint (full checkpoint). *)

val note_fresh_page : t -> Kobj.pmo -> int -> unit
val drain_fresh : t -> Kobj.pmo -> int list
val obj_cost : t -> Kobj.kind -> obj_cost

val note_crash : t -> unit
(** Capture the crash-time runtime tree and drop volatile state. *)

val checkpoint_bytes : t -> int
(** Current checkpoint footprint: snapshot bytes + backup page frames. *)

val gc_dead_oroots : t -> live:(int, unit) Hashtbl.t -> int
(** Free and drop every ORoot whose object is not in [live] — its backup
    frames and the runtime frames its runtime pointer still reaches.
    Returns the number dropped.  Run by the commit (against the walk's
    live set) and by restore (against the restored tree). *)
