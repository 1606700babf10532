module System = Treesls.System
module Report = Treesls_ckpt.Report
module Rtrace = Treesls_obs.Rtrace
module Probe = Treesls_obs.Probe
module Rng = Treesls_util.Rng

type cfg = {
  tenants : int;
  ops_per_tenant : int;
  gap_ns : int;
  seed : int64;
  tenant : Tenant.cfg;
}

let default_cfg =
  {
    tenants = 4;
    ops_per_tenant = 200;
    gap_ns = 10_000;
    seed = 97L;
    tenant = Tenant.default_cfg;
  }

type t = {
  sys : System.t;
  cfg : cfg;
  tenants : Tenant.t array;
  mutable reports : Report.t list; (* newest first *)
}

let create sys (cfg : cfg) =
  if cfg.tenants <= 0 then invalid_arg "Serve.create: need at least one tenant";
  let rng = Rng.create cfg.seed in
  let tenants =
    Array.init cfg.tenants (fun idx ->
        Tenant.create sys ~idx ~seed:(Rng.int64 rng) cfg.tenant)
  in
  let t = { sys; cfg; tenants; reports = [] } in
  (* Re-bind every tenant after each recover; name-claimed rings make the
     order irrelevant.  Setup also runs at registration, when the tenants
     are already live — skip that first call. *)
  let live = ref false in
  System.add_service sys ~name:"serve" ~setup:(fun _ ->
      if !live then Array.iter Tenant.refresh tenants else live := true);
  t

let tenants t = Array.to_list t.tenants
let reports t = List.rev t.reports

(* Open loop over the merged arrival schedule: tenant [i]'s op [j] arrives
   at [t0 + j*gap + i*stagger], tenants staggered evenly within the gap —
   deterministic virtual time, lexicographic (j, i) order. *)
let run t =
  (* settle the creation/preload burst before measuring *)
  ignore (System.checkpoint t.sys);
  let n = Array.length t.tenants in
  let gap = t.cfg.gap_ns in
  let stagger = max 1 (gap / n) in
  let t0 = System.now_ns t.sys in
  for j = 0 to t.cfg.ops_per_tenant - 1 do
    for i = 0 to n - 1 do
      let fired = System.advance_to t.sys (t0 + (j * gap) + (i * stagger)) in
      t.reports <- List.rev_append fired t.reports;
      Tenant.step t.tenants.(i);
      match System.tick t.sys with
      | Some r -> t.reports <- r :: t.reports
      | None -> ()
    done
  done;
  (* release the final partial interval's replies: settle any pending
     window, capture once more, and settle THAT window too (in async mode
     the capture alone leaves the replies parked until its settle) *)
  System.drain_settle t.sys;
  let r = System.checkpoint t.sys in
  t.reports <- r :: t.reports;
  System.drain_settle t.sys

type row = {
  r_tenant : string;
  r_sent : int;
  r_shed : int;
  r_delivered : int;
  r_keys : int;
  r_enq2vis : Rtrace.summary;
  r_e2e : Rtrace.summary;
  r_group_ns : int;
  r_group_objects : int;
}

let group_totals t =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (r : Report.t) ->
      List.iter
        (fun (g, gc) ->
          let ns, objs =
            Option.value ~default:(0, 0) (Hashtbl.find_opt tbl g)
          in
          Hashtbl.replace tbl g
            (ns + gc.Report.g_ns, objs + gc.Report.g_objects))
        (Report.per_group r))
    t.reports;
  tbl

let rows t =
  let rt = Probe.rtrace (System.obs t.sys) in
  let groups = group_totals t in
  Array.to_list
    (Array.map
       (fun tn ->
         let enq2vis, e2e =
           Rtrace.summaries_prefix rt ~prefix:(Tenant.origin_prefix tn)
         in
         let group_ns, group_objects =
           Hashtbl.fold
             (fun g (ns, objs) (acc_ns, acc_objs) ->
               if Tenant.owns_group tn g then (acc_ns + ns, acc_objs + objs)
               else (acc_ns, acc_objs))
             groups (0, 0)
         in
         {
           r_tenant = Tenant.name tn;
           r_sent = Tenant.sent tn;
           r_shed = Tenant.shed tn;
           r_delivered = Tenant.delivered tn;
           r_keys = Tenant.key_count tn;
           r_enq2vis = enq2vis;
           r_e2e = e2e;
           r_group_ns = group_ns;
           r_group_objects = group_objects;
         })
       t.tenants)

let attribution t =
  let groups = group_totals t in
  Hashtbl.fold (fun g (ns, _) acc -> (g, ns) :: acc) groups []
  |> List.sort (fun (_, a) (_, b) -> Int.compare b a)

(* The walk charges every non-skipped object's cost to exactly one group,
   and nothing else consumes simulated time inside the walk — so per
   report, sum(per_group.g_ns) must equal captree_ns exactly. *)
let attribution_exact t =
  List.for_all
    (fun (r : Report.t) ->
      let sum =
        List.fold_left (fun acc (_, gc) -> acc + gc.Report.g_ns) 0 (Report.per_group r)
      in
      sum = r.Report.captree_ns)
    t.reports

let captree_total t =
  List.fold_left (fun acc (r : Report.t) -> acc + r.Report.captree_ns) 0 t.reports

let stw_mean_ns t =
  match t.reports with
  | [] -> 0.0
  | l ->
    List.fold_left (fun acc (r : Report.t) -> acc +. float_of_int r.Report.stw_ns) 0.0 l
    /. float_of_int (List.length l)
