(* Multi-tenant YCSB serving: per-tenant tail latency vs tenant count
   (ISSUE 10 tentpole gate).

   N tenants each own a capability subtree holding a KV shard, its client
   and a private named extsync reply ring (lib/serve).  An open-loop
   YCSB-style generator drives every tenant at the same per-tenant arrival
   rate, so the AGGREGATE load scales linearly with the tenant count while
   each tenant's own offered load stays fixed.  Whole-system checkpointing
   is the shared resource: if the STW pause grew with total state, every
   tenant's visible (enqueue->visible) tail would degrade as neighbours
   pile in.

   Self-gates (exit 2 on failure):
   + isolation: with incremental_walk + async_drain on, the worst
     per-tenant p99 enqueue->visible latency at the highest tenant count
     stays within 1.3x the single-tenant baseline;
   + the eager/full-walk ablation really is the degrading regime: its
     mean STW at the highest tenant count exceeds the incremental mode's
     by at least 3x (the walk scales with total objects, not dirty ones);
   + attribution: in every run, each report's per-subtree (per_group)
     nanoseconds sum EXACTLY to its captree walk time — the per-tenant
     cost breakdown never invents or loses time;
   + liveness: every tenant's ring delivered at least one reply in every
     configuration (no tenant starved by its neighbours). *)

open Exp_common
module Serve = Treesls_serve.Serve
module Tenant = Treesls_serve.Tenant
module Rtrace = Treesls_obs.Rtrace

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("multitenant: " ^ m); exit 2) fmt

let tenant_counts () = if !smoke then [ 1; 4; 16 ] else [ 1; 4; 16; 64 ]
let ops_per_tenant () = if !smoke then 200 else 400
let interval_us = 500
let gap_ns = 10_000
let drain_batch = 16

type mode = Incr_async | Eager_full

let mode_name = function Incr_async -> "incr+async" | Eager_full -> "eager"

type measured = {
  m_mode : mode;
  m_tenants : int;
  m_worst_p99_us : float;  (* worst tenant's enq2vis p99 *)
  m_med_p50_us : float;
  m_worst_e2e_p99_us : float;
  m_stw_mean_us : float;
  m_commits : int;
  m_delivered : int;
  m_shed : int;
  m_min_delivered : int;
  m_exact : bool;
  m_tenant_share : float;  (* tenant-owned fraction of attributed walk ns *)
}

let run_one mode ~tenants =
  let async = mode = Incr_async in
  let feats = features ~incr:async ~async State.Hybrid in
  (* 64 tenants x (shard store + ring + procs) outgrows the default
     arena once checkpoint copies are counted in *)
  let nvm_pages = if tenants >= 32 then 1 lsl 18 else 1 lsl 17 in
  let sys = boot ~interval_us ~features:feats ~nvm_pages () in
  if async then Manager.set_drain_batch (System.manager sys) drain_batch;
  let cfg = { Serve.default_cfg with tenants; ops_per_tenant = ops_per_tenant (); gap_ns } in
  let srv = Serve.create sys cfg in
  Serve.run srv;
  let rows = Serve.rows srv in
  let us v = float_of_int v /. 1e3 in
  let p99s =
    List.map (fun (r : Serve.row) -> us r.Serve.r_enq2vis.Rtrace.s_p99_ns) rows
  in
  let p50s =
    List.sort compare
      (List.map (fun (r : Serve.row) -> us r.Serve.r_enq2vis.Rtrace.s_p50_ns) rows)
  in
  let total_ns = List.fold_left (fun a (_, ns) -> a + ns) 0 (Serve.attribution srv) in
  let tenant_ns =
    List.fold_left (fun a (r : Serve.row) -> a + r.Serve.r_group_ns) 0 rows
  in
  {
    m_mode = mode;
    m_tenants = tenants;
    m_worst_p99_us = List.fold_left Float.max 0.0 p99s;
    m_med_p50_us = List.nth p50s (List.length p50s / 2);
    m_worst_e2e_p99_us =
      List.fold_left
        (fun a (r : Serve.row) -> Float.max a (us r.Serve.r_e2e.Rtrace.s_p99_ns))
        0.0 rows;
    m_stw_mean_us = Serve.stw_mean_ns srv /. 1e3;
    m_commits = List.length (Serve.reports srv);
    m_delivered = List.fold_left (fun a (r : Serve.row) -> a + r.Serve.r_delivered) 0 rows;
    m_shed = List.fold_left (fun a (r : Serve.row) -> a + r.Serve.r_shed) 0 rows;
    m_min_delivered =
      List.fold_left (fun a (r : Serve.row) -> min a r.Serve.r_delivered) max_int rows;
    m_exact = Serve.attribution_exact srv;
    m_tenant_share = (if total_ns = 0 then 0.0 else float_of_int tenant_ns /. float_of_int total_ns);
  }

let run () =
  let measured =
    List.concat_map
      (fun mode -> List.map (fun n -> run_one mode ~tenants:n) (tenant_counts ()))
      [ Incr_async; Eager_full ]
  in
  List.iter
    (fun m ->
      emit_row
        ~config:
          [
            ("mode", mode_name m.m_mode);
            ("tenants", string_of_int m.m_tenants);
            ("ops_per_tenant", string_of_int (ops_per_tenant ()));
            ("gap_ns", string_of_int gap_ns);
            ("interval_us", string_of_int interval_us);
          ]
        ~metrics:
          [
            ("worst_p99_enq2vis_us", m.m_worst_p99_us);
            ("median_p50_enq2vis_us", m.m_med_p50_us);
            ("worst_p99_e2e_us", m.m_worst_e2e_p99_us);
            ("stw_mean_us", m.m_stw_mean_us);
            ("commits", float_of_int m.m_commits);
            ("delivered", float_of_int m.m_delivered);
            ("shed", float_of_int m.m_shed);
            ("attribution_exact", if m.m_exact then 1.0 else 0.0);
            ("tenant_attr_share", m.m_tenant_share);
          ])
    measured;
  Table.print
    ~title:
      (Printf.sprintf "Multi-tenant serving (open loop, %d ops/tenant, %dns gap, %dus interval)"
         (ops_per_tenant ()) gap_ns interval_us)
    ~header:
      [
        "Mode"; "Tenants"; "E2V p50 med (us)"; "E2V p99 worst"; "E2E p99 worst"; "STW mean (us)";
        "Commits"; "Delivered"; "Shed"; "Attr share";
      ]
    (List.map
       (fun m ->
         [
           mode_name m.m_mode;
           string_of_int m.m_tenants;
           f1 m.m_med_p50_us;
           f1 m.m_worst_p99_us;
           f1 m.m_worst_e2e_p99_us;
           f1 m.m_stw_mean_us;
           string_of_int m.m_commits;
           string_of_int m.m_delivered;
           string_of_int m.m_shed;
           f2 m.m_tenant_share;
         ])
       measured);
  (* gates *)
  let find mode n = List.find (fun m -> m.m_mode = mode && m.m_tenants = n) measured in
  let top = List.fold_left max 0 (tenant_counts ()) in
  List.iter
    (fun m ->
      if not m.m_exact then
        die "per-group attribution does not sum to captree time (%s, %d tenants)"
          (mode_name m.m_mode) m.m_tenants;
      if m.m_min_delivered <= 0 then
        die "a tenant's ring delivered nothing (%s, %d tenants)" (mode_name m.m_mode) m.m_tenants)
    measured;
  let base = find Incr_async 1 and peak = find Incr_async top in
  if peak.m_worst_p99_us > 1.3 *. base.m_worst_p99_us then
    die "p99 enq2vis not flat under incr+async: %d tenants %.1fus > 1.3 x single-tenant %.1fus"
      top peak.m_worst_p99_us base.m_worst_p99_us;
  let ablate = find Eager_full top in
  if ablate.m_stw_mean_us < 3.0 *. peak.m_stw_mean_us then
    die "eager/full-walk ablation does not degrade: mean STW %.1fus vs incremental %.1fus at %d tenants"
      ablate.m_stw_mean_us peak.m_stw_mean_us top;
  Printf.printf
    "\nmultitenant: p99 flat under incr+async (%.1fus @1 -> %.1fus @%d, <=1.3x); eager ablation STW %.1fus vs %.1fus\n"
    base.m_worst_p99_us peak.m_worst_p99_us top ablate.m_stw_mean_us peak.m_stw_mean_us
