(** Round-robin scheduler.

    Derived state: the ready queue is {e not} checkpointed; recovery
    repopulates it from thread states in the restored capability tree
    ("adding all threads to the scheduler's queue", §3). *)

type t

val create : unit -> t
val enqueue : t -> Treesls_cap.Kobj.thread -> unit
val pick : t -> Treesls_cap.Kobj.thread option
(** Dequeue the next ready thread (skipping threads no longer [Ready]). *)

val ready_count : t -> int
val clear : t -> unit

val rebuild : t -> Treesls_cap.Kobj.thread list -> unit
(** Recovery: clear, then enqueue the [Ready] ones of [threads] in list
    order.  Restore passes every thread reachable in the restored
    capability tree, in {!Treesls_cap.Kobj.iter_tree} visit order, taken
    from the one walk it makes of that tree. *)
