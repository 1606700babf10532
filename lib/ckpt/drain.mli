(** Asynchronous checkpoint drain: the backlog, CoW tables and staged
    (pending) version of a capture whose page copies were deferred off the
    stop-the-world path.

    Pure window state — the orchestration (when to copy, when to settle,
    how faults resolve) lives in [Checkpoint]; the tick/settle entry
    points are exposed through [Manager] and [System].

    Crash discipline: the backlog models DRAM-resident bookkeeping and
    dies with a power failure ({!note_crash}); the restamp and saved
    records are NVM-resident and survive until restore redoes the settle
    ({!roll_forward}) or abandons the window ({!abandon}). *)

module Kobj = Treesls_cap.Kobj
module Paddr = Treesls_nvm.Paddr
module Store = Treesls_nvm.Store

type policy = Lazy
(** The one drain policy: copy [drain_batch] backlog pages per drain step
    (a batch at least as large as the backlog empties it in one step;
    eager stop-and-copy is [async_drain] off).  Only
    [Manager.set_drain_policy] still names it. *)

type entry = { d_pmo : Kobj.pmo; d_cps : Ckpt_page.t; d_pno : int }
(** One owed copy: a dirty DRAM-cached page protected at the STW whose
    stop-and-copy into its stale CPP slot is still outstanding. *)

type pending = {
  p_ver : int;  (** the staged (uncommitted) version *)
  p_visited : (int, unit) Hashtbl.t;
      (** the walk's liveness epoch, for the GC deferred to settle *)
  p_stw_t0 : int;  (** the STW's start; it ended [p_report.stw_ns] later *)
  p_enqueued : int;  (** backlog size at publish = pages deferred *)
  p_report : Report.t;  (** STW-side partial report, finalised at settle *)
  mutable p_drained : int;
  mutable p_cow_faults : int;
  mutable p_drain_ns : int;
}

type t

val create : unit -> t
val backlog : t -> int
val pending : t -> pending option
val pending_version : t -> int option

val enqueue : t -> entry -> unit
val take : t -> int * int -> entry option
(** Claim (and remove) the owed copy for [(pmo_id, pno)], if any — the
    fault path resolving a page out of drain order. *)

val pop : t -> entry option
(** Next owed copy in drain order (entries claimed by {!take} are skipped
    lazily); [None] when the backlog is empty. *)

val publish : t -> pending -> unit
(** Stage a window. At most one may be in flight. *)

val note_restamp : t -> int * int -> Ckpt_page.cp -> unit
(** The page was clean at the staged version and its CoW fault banked a
    pre-image valid for both versions: settle lifts [b1_ver] for free. *)

val note_saved : t -> int * int -> Ckpt_page.cp -> Paddr.t -> unit
(** The page was dirty at the staged version and its fault saved the
    staged content into [frame]: settle installs it as the new backup. *)

val saved_frames : t -> Paddr.t list
(** In-flight drain-saved frames (for the audit's allocator census). *)

val apply_settle : Store.t -> t -> ver:int -> unit
(** Apply restamps and install saved frames (freeing superseded slots).
    Called once version [ver] is committed; a saved frame already
    installed is skipped, so a pass cut short can simply run again. *)

val clear_pending : t -> unit
val note_crash : t -> unit
(** Power failure: drop the volatile backlog, keep the NVM-resident
    restamp/saved records and the pending stamp for restore. *)

val roll_forward : Store.t -> t -> committed:int -> unit
(** Restore, after the journal replay: a window whose staged version is at
    most [committed] had its version bump land before the cut, so its
    settle is redone ({!apply_settle}) and the window cleared.  A no-op
    for any other window; idempotent. *)

val abandon : Store.t -> t -> int
(** Restore's [drain_settle] phase: free the drain-saved frames of the
    abandoned staged version and clear the window. Returns the number of
    frames freed; idempotent. *)
