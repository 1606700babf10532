(** One serving tenant: an isolated capability subtree holding a shard
    server process, its client process, a PMO-resident KV store and a
    private extsync {!Treesls_extsync.Net_server} ring, driven by a
    YCSB-style op stream.

    Tenant [i] is named ["t<i>"]; its processes are ["kvshard.t<i>"] /
    ["kvshard-cli.t<i>"] (which is how [Report.per_group] attributes its
    checkpoint cost), its ring is ["netsrv.t<i>"] (claimed strictly by
    that name on reattach), and its requests' rtrace origins are
    ["t<i>/kv.<op>"]. *)

module System = Treesls.System
module Kv_app = Treesls_apps.Kv_app
module Ycsb = Treesls_workloads.Ycsb

type cfg = {
  keys : int;  (** keys preloaded (and initial Zipfian domain) *)
  value_size : int;
  mix : Ycsb.workload;  (** per-tenant op mix *)
  ring_slots : int;
  ring_slot_size : int;
}

val default_cfg : cfg
(** 1k keys of 64B, 50/45/5 read/update/insert, a 256-slot reply ring. *)

type t

val create : System.t -> idx:int -> seed:int64 -> cfg -> t
(** Launch the shard (preloading [cfg.keys] keys) and its named ring.
    [seed] drives this tenant's private op stream. *)

val step : t -> unit
(** One YCSB op end to end: draw from the stream, run it through the real
    client→IPC→store path, park the reply on the tenant's ring. *)

val refresh : t -> unit
(** Post-recovery: re-find the processes/store and reattach the ring by
    name.  Tenants can refresh in any order. *)

val name : t -> string

val origin_prefix : t -> string
(** ["t<i>/"], for rtrace queries. *)

val app : t -> Kv_app.t
val sent : t -> int

val shed : t -> int
(** Replies refused because the ring was full. *)

val delivered : t -> int
(** Persistent: survives crash/restore. *)

val key_count : t -> int
(** Grows with inserts. *)

val owns_group : t -> string -> bool
(** Does a [Report.per_group] group name belong to this tenant's subtree
    (server or client process)? *)
