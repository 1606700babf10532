(** Helpers for launching application processes with a prescribed object
    census, so each workload reproduces its Table 2 row (object counts
    relative to the Default system). *)

module Kernel = Treesls_kernel.Kernel
module System = Treesls.System

val make_proc :
  System.t ->
  name:string ->
  threads:int ->
  ipcs:int ->
  notifs:int ->
  extra_pmos:int ->
  Kernel.process
(** Create a process with [threads] threads, [ipcs] IPC connections to the
    file-system service (each with a shared buffer PMO), [notifs]
    notifications and [extra_pmos] one-page heap PMOs. Object cost per the
    kernel's conventions: 1 cap group, 1 VM space, 1 code PMO, one stack
    PMO per thread. *)

val find_proc : System.t -> name:string -> Kernel.process
(** Re-derive a process handle after recovery; raises [Not_found]. *)

