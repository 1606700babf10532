(** Capability-referred kernel objects (paper Table 1).

    Every system resource is one of these objects; all of them are grouped
    into the capability tree rooted at the root cap group (Figure 4), and
    checkpointing that tree checkpoints the whole system.

    Types are transparent so the kernel and the checkpoint manager can
    pattern-match; invariant-preserving helpers are provided for the common
    mutations. *)

type kind = Cap_group_k | Thread_k | Vmspace_k | Pmo_k | Ipc_conn_k | Notification_k | Irq_k

type t =
  | Cap_group of cap_group
  | Thread of thread
  | Vmspace of vmspace
  | Pmo of pmo
  | Ipc_conn of ipc_conn
  | Notification of notification
  | Irq_notification of irq_notification

and cap = { target : t; rights : Rights.t }

and cap_group = {
  cg_id : int;
  cg_name : string;
  mutable cg_slots : cap option array;
  mutable cg_used : int;
  mutable cg_gen : int;  (** generation epoch, see {!touch} *)
}

and thread_state =
  | Ready
  | Blocked_notif of int  (** notification object id *)
  | Exited

and thread = {
  th_id : int;
  mutable th_regs : int array;  (** general registers + pc + sp *)
  mutable th_state : thread_state;
  mutable th_prio : int;
  mutable th_cursor : int;  (** scheduling context: remaining budget *)
  mutable th_gen : int;
}

and vm_region = {
  vr_vpn : int;  (** first virtual page number *)
  vr_pages : int;
  vr_pmo : pmo;
  vr_writable : bool;
}

and vmspace = { vs_id : int; mutable vs_regions : vm_region list; mutable vs_gen : int }

and pmo_kind =
  | Pmo_normal
  | Pmo_eternal  (** not rolled back on restore (§5: external synchrony) *)

and pmo = {
  pmo_id : int;
  pmo_pages : int;  (** size in pages *)
  pmo_kind : pmo_kind;
  pmo_radix : Treesls_nvm.Paddr.t Radix.t;  (** page number -> physical page *)
  mutable pmo_gen : int;
}

and ipc_conn = {
  ic_id : int;
  mutable ic_server : thread option;
  mutable ic_shared : pmo option;
  mutable ic_calls : int;  (** served call count (part of connection state) *)
  mutable ic_gen : int;
}

and notification = {
  nt_id : int;
  mutable nt_count : int;
  mutable nt_waiters : int list;  (** blocked thread ids, FIFO *)
  mutable nt_gen : int;
}

and irq_notification = {
  irq_id : int;
  irq_line : int;
  mutable irq_pending : int;
  mutable irq_gen : int;
}

val id : t -> int
val kind : t -> kind

(** {2 Generation epochs (incremental checkpoint walk)} *)

val touch : t -> unit
(** Bump the object's generation.  Must be called after every mutation of
    checkpointable state; the provided helpers ({!install}, {!revoke}, the
    kernel and IPC mutators) do so themselves — call it directly only when
    assigning record fields by hand. *)

val gen : t -> int
(** Current generation.  Constructors start at 1; the checkpoint walk
    records the generation it snapshotted and skips the object while the
    two still match. *)

val kind_name : kind -> string
val all_kinds : kind list

val regs_count : int
(** Register-file words saved per thread. *)

val copy_bytes : t -> int
(** Estimated byte volume copied when checkpointing this object's own state
    (PMO page contents and radix interior are costed separately). *)

(** {2 Constructors} (ids must come from a per-kernel {!Id_gen}) *)

val make_cap_group : id:int -> name:string -> cap_group
val make_thread : id:int -> prio:int -> thread
val make_vmspace : id:int -> vmspace
val make_pmo : id:int -> pages:int -> kind:pmo_kind -> pmo
val make_ipc_conn : id:int -> ipc_conn
val make_notification : id:int -> notification
val make_irq_notification : id:int -> line:int -> irq_notification

(** {2 Cap-group operations} *)

val install : cap_group -> cap -> int
(** Install a capability in the first free slot; returns the slot.  Like
    {!install_at} and {!revoke} it bumps the group's generation, which is
    also how the checkpoint's live-tree cache notices that the tree's shape
    changed: slots must not be written any other way. *)

val install_at : cap_group -> int -> cap -> unit
(** Install at a specific slot (restore path; slot must be free). *)

val lookup : cap_group -> int -> cap option
val revoke : cap_group -> int -> unit
val iter_caps : (int -> cap -> unit) -> cap_group -> unit
val caps_count : cap_group -> int
val slots_len : cap_group -> int

(** {2 Traversal} *)

val iter_tree : root:cap_group -> (t -> unit) -> unit
(** Visit every object reachable from [root] exactly once (the tree can
    share objects across cap groups; visits are deduplicated by id). *)
