(** Multi-tenant serving harness (the §7.5.1 "millions of users" scenario
    at model scale).

    [N] tenants — each an isolated cap subtree with its own shard process,
    KV store and named extsync reply ring ({!Tenant}) — are driven by an
    open-loop YCSB-style load: tenant [i]'s op [j] arrives at virtual time
    [t0 + j*gap_ns + i*stagger], so the merged schedule is deterministic
    and checkpoint deadlines fire at ns precision between arrivals.

    Per-tenant visible latency comes from the rtrace pipeline (origins
    ["t<i>/kv.*"]); per-tenant checkpoint cost comes from
    [Report.per_group] subtree attribution, collected across every commit
    of the run. *)

module System = Treesls.System
module Report = Treesls_ckpt.Report
module Rtrace = Treesls_obs.Rtrace

type cfg = {
  tenants : int;
  ops_per_tenant : int;
  gap_ns : int;  (** per-tenant inter-arrival gap *)
  seed : int64;
  tenant : Tenant.cfg;
}

val default_cfg : cfg

type t

val create : System.t -> cfg -> t
(** Launch all tenants (preloading their stores).  A ["serve"] system
    service re-binds every tenant after each recover, so
    [System.crash_and_recover] works transparently. *)

val run : t -> unit
(** Execute the full arrival schedule, then settle and take one final
    checkpoint so every parked reply is released. *)

val tenants : t -> Tenant.t list

val reports : t -> Report.t list
(** Every checkpoint report committed during {!run}, oldest first. *)

(** {2 Results} *)

type row = {
  r_tenant : string;
  r_sent : int;
  r_shed : int;
  r_delivered : int;
  r_keys : int;
  r_enq2vis : Rtrace.summary;
  r_e2e : Rtrace.summary;
  r_group_ns : int;  (** captree time attributed to this tenant's subtree *)
  r_group_objects : int;
}

val rows : t -> row list
(** One row per tenant: latency percentiles + STW attribution share. *)

val attribution : t -> (string * int) list
(** Total captree ns per [per_group] name across the run, costliest
    first (includes ["kernel"] and any non-tenant services). *)

val attribution_exact : t -> bool
(** [true] iff for every collected report, the per-group costs sum to
    [captree_ns] exactly — the self-check behind the bench gate. *)

val captree_total : t -> int
val stw_mean_ns : t -> float
