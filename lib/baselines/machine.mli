(** Execution substrate for the comparison systems (Linux, Aurora).

    The baselines do not run on the TreeSLS microkernel — they are
    cost-model simulators with their own virtual clock, sharing the
    {!Treesls_sim.Cost} parameters so comparisons against TreeSLS happen
    under one latency model. *)

type t

val create : ?cost:Treesls_sim.Cost.t -> unit -> t
val now : t -> int
val charge : t -> int -> unit
val cost : t -> Treesls_sim.Cost.t

val record : t -> int -> unit
(** Record one completed operation with the given latency (ns). *)

val ops : t -> int
val elapsed_s : t -> float
val throughput_kops : t -> float
val reset_measurement : t -> unit
