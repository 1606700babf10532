(** Versioned page checkpoints: the checkpointed radix tree (Figure 6).

    Each checkpointed PMO owns one of these tables, mapping a page index to
    a checkpointed-page record with up to two NVM backup slots:

    - {e CP case} (runtime page on NVM): only [b1] is used; the runtime
      page itself doubles as the second copy ("NVM enables runtime pages to
      be used in the consistent checkpoint", §4.2). Invariant:
      runtime-on-NVM implies [b2 = None].
    - {e CPP case} (runtime page migrated to DRAM): both [b1] and [b2] are
      NVM pages used alternately by stop-and-copy (§4.3.3).

    {b Version meaning}: a backup stamped [v] holds the page's content as
    of the commit of checkpoint [v].  Copy-on-write pre-images are stamped
    with the current global version; stop-and-copy images taken during the
    STW pause of checkpoint [v+1] are stamped [v+1] and only become
    meaningful if that checkpoint commits.

    {b Restore rule} (refinement of §4.3.3): slots stamped newer than the
    committed global version [g] are in-flight copies of an uncommitted
    checkpoint and are skipped — an in-flight stop-and-copy may contain
    post-[g] data, so the paper's bare "higher version wins" clause is
    unsafe exactly there.  The order is: a slot stamped [g]; else the
    surviving runtime NVM page (only reachable if the page was not modified
    since [g], because any modification would have left a CoW backup
    stamped [g]); else the highest slot [<= g] (correct because a page
    dirtied in interval [(k, k+1)] always gets a backup stamped [>= k+1],
    so no slot in [(k, g]] implies the content never changed after [k]).

    [born_ver] records the first checkpoint that includes the page: pages
    born after [g] are dropped on restore (their frames, named by nothing
    any more, are freed by its allocator reconciliation), implementing the
    allocator rollback of in-flight page allocations. *)

module Paddr = Treesls_nvm.Paddr
module Store = Treesls_nvm.Store

type cp = {
  mutable born_ver : int;
  mutable b1 : Paddr.t option;
  mutable b1_ver : int;
  mutable b2 : Paddr.t option;
  mutable b2_ver : int;
}

type t

val record_bytes : int
(** Bytes of one checkpointed-page record, a slab object on NVM (40): what
    building one charges, and what the footprint and the NVM census count
    per record. *)

val create : unit -> t
val find : t -> int -> cp option
val cardinal : t -> int
val iter : (int -> cp -> unit) -> t -> unit

val ensure : Store.t -> t -> pno:int -> born_ver:int -> cp
(** Get or create the record for a page (charges the per-entry build cost
    that dominates a full PMO checkpoint, Table 3). *)

val cow_backup : Store.t -> t -> runtime:Paddr.t -> pno:int -> global:int -> bool
(** Page-fault path (step 6 of Figure 5): save the pre-image of an
    NVM-resident runtime page into [b1] stamped [global]; no-op (returns
    [false]) if a backup stamped [global] already exists or the runtime
    lives in DRAM (covered by stop-and-copy instead). *)

val stop_and_copy_dram : Store.t -> t -> runtime:Paddr.t -> pno:int -> new_ver:int -> unit
(** STW path for a dirty DRAM-cached page: copy into the stale slot,
    stamped [new_ver] (valid once the checkpoint commits). *)

val attach_runtime_as_backup : t -> pno:int -> old_runtime:Paddr.t -> new_ver:int -> unit
(** NVM-to-DRAM migration bookkeeping: the former NVM runtime page becomes
    the latest backup ([b2], stamped [new_ver]); the caller has already
    copied its content to DRAM and remapped. *)

val demotion_target : Store.t -> t -> pno:int -> latest:Paddr.t -> Paddr.t
(** DRAM-to-NVM migration, first step: make [b2] hold the latest content
    (copying from the DRAM runtime [latest] if [b2] is not the newest
    backup) and return it, the NVM page the runtime mapping must move to.
    The record still names it as [b2]. *)

val detach_runtime_slot : Store.t -> t -> pno:int -> unit
(** DRAM-to-NVM migration, last step, once the radix names the page
    {!demotion_target} returned: clear [b2] to the runtime-marker state
    and unseal the page.  A cut before this leaves the page in both roles,
    which restore reads as the CPP copy it still is. *)

val restore_choice : cp -> global:int -> runtime:Paddr.t option -> [ `Drop | `Use of Paddr.t ]
(** Apply the restore rule; [runtime] is the crash-time radix entry (only
    usable if on NVM). [`Drop] means the page was born after [global]. *)

val normalize_after_restore : Store.t -> cp -> keep:Paddr.t -> runtime:Paddr.t option -> unit
(** After restore adopted [keep] as the runtime page: reset the record to
    the CP state (no valid backups), keeping one other NVM frame it held
    as the spare [b1].  Frees nothing: the frames it lets go of are named
    by nothing, and restore's allocator reconciliation frees them. *)

val remove : t -> pno:int -> unit
(** Drop a page's record (page born after the restored version); its
    frames are left to restore's allocator reconciliation. *)

val backup_frames : t -> int
(** Number of NVM frames currently held as backups (checkpoint size). *)

val free_all : Store.t -> t -> runtime_of:(int -> Paddr.t option) -> unit
(** Free all backup frames and every runtime frame or swap slot
    [runtime_of] names: the commit's garbage collection of a PMO that left
    the checkpoint.  Restore never calls it. *)
