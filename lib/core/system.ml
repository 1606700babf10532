module Kernel = Treesls_kernel.Kernel
module Manager = Treesls_ckpt.Manager
module Report = Treesls_ckpt.Report
module Restore = Treesls_ckpt.Restore
module Clock = Treesls_sim.Clock
module Probe = Treesls_obs.Probe
module Trace = Treesls_obs.Trace
module Metrics = Treesls_obs.Metrics

module Interval_ctl = Treesls_ckpt.Interval_ctl

type t = {
  mgr : Manager.t;
  ctl : Interval_ctl.t;
  mutable services : (string * (t -> unit)) list;
}

let kernel t = Manager.kernel t.mgr
let store t = Kernel.store (kernel t)
let obs t = Treesls_nvm.Store.probe (store t)

(* Feedback edge of the adaptive-interval controller: runs from the
   probe's post-sample hook, i.e. inside Checkpoint.run after the
   black-box sample and SLO check; Manager.tick re-reads the interval
   after the run so the retuned value arms the next deadline. *)
let adaptive_on_sample t =
  if (Manager.features t.mgr).Treesls_ckpt.State.adaptive_interval then
    match Manager.interval t.mgr with
    | None -> ()
    | Some interval_ns -> (
      match
        Interval_ctl.on_sample t.ctl (Probe.tseries (obs t)) ~interval_ns
          ~drain_backlog:(Manager.drain_backlog t.mgr)
      with
      | Some ns ->
        Manager.set_interval t.mgr (Some ns);
        Probe.gauge (obs t) "ckpt.interval_ns" ns;
        Probe.count (obs t) "ckpt.adaptive.retunes" 1
      | None -> ())

let boot ?nvm_pages ?interval_us ?features ?active_cfg ?adaptive_cfg () =
  let kernel = Kernel.boot ?nvm_pages () in
  let mgr = Manager.attach ?active_cfg ?features kernel in
  (match interval_us with Some us -> Manager.set_interval mgr (Some (us * 1000)) | None -> ());
  let ctl =
    Interval_ctl.create (match adaptive_cfg with Some c -> c | None -> Interval_ctl.default_config)
  in
  let t = { mgr; ctl; services = [] } in
  Probe.set_sample_hook (obs t) (fun () -> adaptive_on_sample t);
  t

let manager t = t.mgr
let clock t = Kernel.clock (kernel t)
let now_ns t = Clock.now (clock t)
let checkpoint t = Manager.checkpoint t.mgr

(* Asynchronous drain: one backlog step per op boundary (the follower
   cores' "between operations" slot), plus a forced settle for callers
   that need the staged version durable now.  Both are no-ops when
   nothing is pending, so harness code calls them unconditionally. *)
let drain_tick t = ignore (Manager.drain_step t.mgr)
let drain_settle t = Manager.drain_settle t.mgr
let drain_backlog t = Manager.drain_backlog t.mgr

let tick t =
  drain_tick t;
  (* burst feedforward: clamp the armed deadline to the interval floor
     when replies pile up on the rings while the interval sits near its
     idle ceiling (at most once per burst — see Interval_ctl) *)
  (if (Manager.features t.mgr).Treesls_ckpt.State.adaptive_interval then
     match Manager.interval t.mgr with
     | Some interval_ns -> (
       match
         Interval_ctl.on_pressure t.ctl
           ~now_ns:(Clock.now (Kernel.clock (Manager.kernel t.mgr)))
           ~pending:(Probe.req_pending_enqueued (obs t)) ~interval_ns
           ~drain_backlog:(Manager.drain_backlog t.mgr)
       with
       | Some ns ->
         Manager.set_interval t.mgr (Some ns);
         Probe.gauge (obs t) "ckpt.interval_ns" ns;
         Probe.count (obs t) "ckpt.adaptive.clamps" 1
       | None -> ())
     | None -> ());
  Manager.tick t.mgr

let set_interval_us t us = Manager.set_interval t.mgr (Option.map (fun u -> u * 1000) us)
let version t = Manager.version t.mgr

(* The one virtual-time driver.  Each armed deadline on the way fires at
   the deadline itself, not at the next op: the pause must start on time
   for the visible-latency measurement.  Idle time takes no drain step and
   no pressure feedforward — both belong to op boundaries ([tick]); a
   backlog still pending at the next deadline is settled by that
   checkpoint. *)
let advance_to t target =
  let rec loop fired =
    if now_ns t >= target then List.rev fired
    else
      match Manager.next_deadline t.mgr with
      | Some d when d <= target ->
        if now_ns t < d then Clock.advance (clock t) (d - now_ns t);
        loop (match Manager.tick t.mgr with Some r -> r :: fired | None -> fired)
      | Some _ | None ->
        Clock.advance (clock t) (target - now_ns t);
        List.rev fired
  in
  loop []

let add_service t ~name ~setup =
  t.services <- t.services @ [ (name, setup) ];
  setup t

let crash t = Manager.crash t.mgr

let recover t =
  let report = Manager.recover t.mgr in
  (* service re-setup (extsync ring reattach, net server rebind) is part
     of the outage a client observes, so it is charged to the recovery
     profile before the record is sealed *)
  Probe.rto_phase_begin (obs t) "ring_reattach";
  List.iter (fun (_, setup) -> setup t) t.services;
  Probe.rto_phase_end (obs t);
  Probe.rto_recovered (obs t);
  report

let crash_and_recover t =
  crash t;
  recover t

let stats t = Kernel.stats (kernel t)

(* --- observability ---------------------------------------------------- *)

let trace t = Probe.trace (obs t)
let metrics_snapshot t = Metrics.snapshot (Probe.metrics (obs t))

(* Reserve an eternal PMO of [bytes] as the NVM backing of one
   observability structure, mirroring how TreeSLS keeps always-persistent
   state (§5): eternal pages are materialised at creation, walked by every
   checkpoint, and revived verbatim by restore instead of rolling back —
   exactly the lifetime a trace ring, wear counters or black box need to
   stay inspectable across a power failure.  The payload itself stays on
   the OCaml heap (writing it through the kernel would charge simulated
   time and perturb the measurement); the PMO models its NVM footprint.
   Idempotent per [name]; the wear and tseries backings are reserved only
   on request, so systems that never ask keep their boot object census and
   NVM footprint (Ring.reattach claims rings by their persisted name, so
   when these PMOs are created does not matter to it). *)
let reserve_backing t name ~instant ~bytes =
  if not (List.mem_assoc name (Probe.backings (obs t))) then begin
    let k = kernel t in
    let psz = (Kernel.cost k).Treesls_sim.Cost.page_size in
    let pages = max 1 ((bytes + psz - 1) / psz) in
    let pmo = Kernel.make_eternal_pmo k ~pages in
    Probe.add_backing (obs t) name pmo.Treesls_cap.Kobj.pmo_id;
    Probe.instant (obs t) instant
      ~args:(fun () ->
        [ ("pmo", string_of_int pmo.Treesls_cap.Kobj.pmo_id); ("pages", string_of_int pages) ])
  end

(* trace ring: 64 bytes per slot *)
let enable_tracing ?(verbose = false) ?(eternal_backing = true) t =
  Probe.set_tracing (obs t) true;
  Probe.set_verbose (obs t) verbose;
  if eternal_backing then
    reserve_backing t "trace" ~instant:"obs.eternal_backing"
      ~bytes:(Trace.capacity (Probe.trace (obs t)) * 64)

(* wearmap: 8 bytes of write count + 8 bytes written per NVM page *)
let ensure_wear_backing t =
  reserve_backing t "wear" ~instant:"obs.wear_backing"
    ~bytes:(Treesls_nvm.Store.nvm_pages_total (store t) * 16)

let wearmap t = Probe.wearmap (obs t)

(* black box: one fixed-width slot per tseries sample *)
let ensure_tseries_backing t =
  reserve_backing t "tseries" ~instant:"obs.tseries_backing"
    ~bytes:(Treesls_obs.Tseries.backing_bytes (Probe.tseries (obs t)))

let tseries t = Probe.tseries (obs t)
let slo t = Probe.slo (obs t)
let interval_ctl t = t.ctl

(* --- state audit (slsfsck) -------------------------------------------- *)

let audit ?wear t = Treesls_audit.Audit.run ?wear t.mgr
let nvm_census t =
  Treesls_audit.Nvm_census.collect t.mgr ~live:(Treesls_ckpt.State.fresh_tree (Manager.state t.mgr))

let export_trace ?pid ?tid t = Trace.to_perfetto_json ?pid ?tid (Probe.trace (obs t))

let export_trace_file ?pid ?tid t ~path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (export_trace ?pid ?tid t))

(* --- recovery observability (RTO profiler / flight recorder) ----------- *)

let rto t = Probe.rto (obs t)
let last_recovery t = Treesls_obs.Rto.last (Probe.rto (obs t))

let export_flight t =
  Option.map Treesls_obs.Rto.flight_to_perfetto_json (last_recovery t)

let export_flight_file t ~path =
  match export_flight t with
  | None -> false
  | Some json ->
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc json);
    true
