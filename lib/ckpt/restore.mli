(** Whole-system restore (step 7 of Figure 5).

    Entry point after a power failure: replays the allocator journal,
    revives the backup capability tree at the last committed version into
    a fresh runtime tree (object ids preserved), rebuilds derived state
    (scheduler queue, empty page tables), reclaims what the rollback let
    go of and returns the recovered kernel.

    It runs in three steps.  {e Decide}: pick the checkpointed objects and
    the frame each restored page maps, reading the crash-time frames
    through each ORoot ({!Oroot.runtime_page}); nothing is freed and no
    page record rewritten.  {e Swap}: the restored tree becomes the
    runtime tree.  {e Clean up}: move the ORoots' runtime pointers to the
    restored objects, normalise or drop page records, drop the ORoots the
    restored tree does not reach, and free — in the final allocator
    reconciliation, the one place recovery frees — every NVM block and
    swap slot nothing names any more.  After a power cut at any of its
    crash sites ([restore.begin], [restore.precheck], [restore.selected],
    [restore.materialized], [restore.swapped], [restore.reclaimed]), a
    second {!run} reaches the same state.

    Eternal PMOs are revived with their crash-time page frames — their
    content is deliberately {e not} rolled back (§5). *)

exception No_checkpoint
(** Raised when no checkpoint was ever committed. *)

exception
  Corrupt_backup of {
    pmo_id : int;
    pno : int;
    paddr : Treesls_nvm.Paddr.t;
  }
(** Data reliability (paper §8): the page chosen for restore is a sealed
    backup whose checksum no longer matches — NVM media corruption.
    The caller can repair the frame from an {!Eidetic} archive (rewrite
    the content and re-seal) and retry, or fall back to an older archived
    version. *)

type report = {
  restored_objects : int;
  dropped_objects : int;  (** objects born after the restored version *)
  pages_restored : int;
  pages_dropped : int;
      (** NVM pages and swap slots the allocator reconciliation freed *)
  restore_ns : int;  (** simulated time the whole restore took *)
  version : int;  (** the version the system was rolled back to *)
}

val run : State.t -> report
(** Recover; on success [State.kernel] is the new runtime kernel. *)

val objects_to_materialize : State.t -> int
(** How many objects a restore started now would materialise — the
    number of times it hits the [restore.materialized] crash site: the
    ORoots with a snapshot at or below the committed version.  Exact
    after a power cut at an operation boundary, where no allocator
    journal record is in flight for the replay to change. *)

(** {2 Read-only walker}

    The restore decision logic, exposed for inspection without mutating
    anything. The state auditor ([Treesls_audit]) replays the choices the
    restore path {e would} make to check that every frame a rollback
    needs exists and verifies. *)

val iter_restore_choices :
  State.t ->
  global:int ->
  (pmo_id:int ->
  pno:int ->
  cp:Ckpt_page.cp ->
  choice:[ `Drop | `Use of Treesls_nvm.Paddr.t ] ->
  unit) ->
  unit
(** Visit every checkpointed-page record of every ORoot alive at [global]
    with the restore decision it would produce against the frame its
    ORoot's runtime PMO maps ({!Oroot.runtime_page}). Pure read. *)
