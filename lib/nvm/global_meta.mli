(** Global checkpoint metadata area on NVM.

    Holds the global version number — whose single-word increment is the
    atomic commit point of a checkpoint (step 4 in Figure 5) — and the
    checkpoint status used by recovery to decide whether a checkpoint was in
    flight when power failed.  Single-word updates are naturally atomic on
    NVM with eADR, so this area needs no journaling. *)

type t

type status =
  | Idle  (** no checkpoint in flight *)
  | In_progress  (** STW checkpoint running; not yet committed *)

val create : wearmap:Treesls_obs.Wearmap.t -> t
(** Each word write is recorded in [wearmap] as [nvm.meta] bytes. *)

val version : t -> int
(** Version of the last committed checkpoint; 0 = none yet. *)

val status : t -> status

val begin_checkpoint : t -> unit
(** Mark a checkpoint in flight (single-word write). *)

val commit_checkpoint : t -> unit
(** Atomic commit point: bump the version and clear the in-flight mark.
    Ordering: version first, so a crash between the two writes is read as
    "committed" (the backup tree for version v is complete by then). *)

val abort_in_flight : t -> unit
(** Used by recovery: clear a stale in-flight mark after a crash. *)
