(** Dual-function active page list (§4.3.2).

    Tracks page hotness from copy-on-write faults and holds the set of
    DRAM-cached hot pages.  At checkpoint time non-leader cores traverse
    sub-lists of this list to (a) stop-and-copy dirty DRAM pages, (b)
    migrate newly-hot pages NVM-to-DRAM and (c) demote pages idle for too
    long back to NVM.  The list itself is volatile (DRAM): it is dropped on
    crash and repopulates from scratch after a restore. *)

module Kobj = Treesls_cap.Kobj

type entry = {
  e_pmo : Kobj.pmo;
  e_pno : int;
  mutable e_hotness : int;
  mutable e_idle : int;  (** consecutive checkpoints without modification *)
  mutable e_dram : bool;  (** currently migrated to DRAM *)
  mutable e_live : bool;
}

type config = {
  hot_threshold : int;  (** faults before a page is appended (default 2) *)
  idle_limit : int;  (** clean checkpoints before demotion (default 8) *)
  max_cached : int;  (** cap on DRAM-cached pages *)
}

val default_config : config

type t

val create : config -> t
val config : t -> config

val record_fault : t -> Kobj.pmo -> int -> unit
(** Bump hotness; append to the list once the threshold is crossed (and
    the cache cap is not exceeded).  Hotness and entries are kept in
    arrays by PMO id and page, as the kernel's reverse map is: a fault
    hashes nothing. *)

val entries : t -> entry list
(** Live entries in append order. *)

val sublists : t -> cores:int -> entry list array
(** Partition the live entries for parallel traversal by [cores] cores. *)

val cached_count : t -> int
(** Pages currently DRAM-resident. *)

val drop : t -> entry -> unit
(** Demotion: remove from the list and clear hotness. *)

val compact : t -> unit
(** Remove dead entries from the backing list (called once per checkpoint). *)

val clear : t -> unit
(** Crash/restore: forget everything.  The forgotten entries are dead
    ([e_live] false), so a later {!drop} of one changes nothing. *)
