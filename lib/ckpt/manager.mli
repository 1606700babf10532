(** The checkpoint manager: policy and lifecycle.

    Owns the {!State}, installs the kernel hooks (copy-on-write backup and
    fresh-page tracking), drives periodic checkpoints on the simulated
    clock, and orchestrates crash/recovery.

    Typical use:
    {[
      let kernel = Kernel.boot () in
      let mgr = Manager.attach kernel in
      Manager.set_interval mgr (Some 1_000_000) (* 1 ms *);
      (* ... run application work, calling [tick] between operations ... *)
      Manager.crash mgr;
      let _report = Manager.recover mgr in
      let kernel = Manager.kernel mgr in
      ...
    ]} *)

module Kernel = Treesls_kernel.Kernel

type t

val attach :
  ?active_cfg:Active_list.config -> ?features:State.features -> Kernel.t -> t
(** Install hooks into a freshly booted kernel. *)

val state : t -> State.t
val kernel : t -> Kernel.t
val features : t -> State.features
val version : t -> int
(** Last committed checkpoint version. *)

val checkpoint : t -> Report.t
(** Take a checkpoint now. *)

val set_interval : t -> int option -> unit
(** Periodic checkpointing every [ns] of simulated time ([None] disables).
    The next checkpoint is scheduled relative to the current clock. *)

val interval : t -> int option

val tick : t -> Report.t option
(** Take a checkpoint if the deadline passed (call between operations). *)

val next_deadline : t -> int option

(** {2 Asynchronous drain}

    Entry points for the split-capture checkpoint
    ([State.features.async_drain]); all are cheap no-ops when no drain
    window is pending. *)

val drain_step : t -> int
(** Copy a batch of [set_drain_batch] backlog pages; settles when the
    backlog empties. Returns pages copied. *)

val drain_settle : t -> unit
(** Force the pending window durable now. *)

val drain_backlog : t -> int
val drain_pending_version : t -> int option
val drain_saved_frames : t -> Treesls_nvm.Paddr.t list
val set_drain_policy : t -> Drain.policy -> unit
(** No-op: [Lazy] is the only policy. *)

val set_drain_batch : t -> int -> unit
(** Backlog pages per drain step (clamped to >= 1, default 8); a batch at
    least as large as the backlog empties it in one step. *)

val on_checkpoint : t -> (unit -> unit) -> unit
(** Register a checkpoint callback (external synchrony, §5); volatile —
    re-register after recovery. *)

val crash : t -> unit
(** Power failure: captures the crash-time tree, crashes the kernel. *)

val recover : t -> Restore.report
(** Journal replay + whole-system restore; re-installs hooks on the new
    kernel. Raises {!Restore.No_checkpoint} if nothing was committed. *)

(** {2 Read-only walkers}

    Used by the state auditor ([Treesls_audit]) to inspect the backup tree
    without reaching through {!state}. None of these mutate or charge
    simulated time. *)

val iter_oroots : t -> (int -> Oroot.t -> unit) -> unit
(** Visit every ORoot (live and not-yet-GC'd), keyed by object id. *)

val find_oroot : t -> int -> Oroot.t option

val checkpoint_bytes : t -> int
val last_report : t -> Report.t option
val obj_costs : t -> (Treesls_cap.Kobj.kind * State.obj_cost) list
