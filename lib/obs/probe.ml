module Clock = Treesls_sim.Clock

module Histogram = Treesls_util.Histogram

type t = {
  clock : Clock.t;
  trace : Trace.t;
  metrics : Metrics.t;
  rtrace : Rtrace.t;
  wearmap : Wearmap.t;
  rto : Rto.t;
  tseries : Tseries.t;
  slo : Slo.t;
  enq2vis_w : Histogram.Windowed.t;
      (* windowed enq2vis for the per-sample p50/p99 derived columns:
         fed on every release, rotated once per tseries sample *)
  mutable sample_hook : (unit -> unit) option;
      (* invoked after each tseries sample + SLO check (the adaptive
         interval controller's feedback edge; set by System.boot) *)
  mutable tracing : bool;
  mutable verbose : bool;
  mutable backings : (string * int) list;  (* (name, eternal PMO id), oldest first *)
}

let create ~clock =
  {
    clock;
    trace = Trace.create ();
    metrics = Metrics.create ();
    rtrace = Rtrace.create ();
    wearmap = Wearmap.create ();
    rto = Rto.create ();
    tseries = Tseries.create ();
    slo = Slo.create ();
    enq2vis_w = Histogram.Windowed.create ~slices:4 ();
    sample_hook = None;
    tracing = false;
    verbose = false;
    backings = [];
  }

let clock t = t.clock
let trace t = t.trace
let metrics t = t.metrics
let rtrace t = t.rtrace

let set_tracing t on = t.tracing <- on
let tracing t = t.tracing
let set_verbose t on = t.verbose <- on
let verbose t = t.verbose
let add_backing t name id = t.backings <- t.backings @ [ (name, id) ]
let backings t = t.backings
let wearmap t = t.wearmap
let rto t = t.rto
let tseries t = t.tseries
let slo t = t.slo
let set_sample_hook t f = t.sample_hook <- Some f

(* --- trace emitters --------------------------------------------------- *)

(* Emitters never advance the simulated clock, so observability cannot
   perturb a measurement; the trace tiers cost one flag test when off. *)

let enter t ?args name =
  if t.tracing then Trace.begin_span t.trace ~now:(Clock.now t.clock) ?args name else 0

let exit t ?args token =
  if token <> 0 then Trace.end_span t.trace ~now:(Clock.now t.clock) ?args token

let instant t ?args name =
  if t.tracing then Trace.instant t.trace ~now:(Clock.now t.clock) ?args name

let span_at t ?args name ~ts_ns ~dur_ns =
  if t.tracing then Trace.complete t.trace ?args name ~ts_ns ~dur_ns

(* verbose tier: per-operation events (nvm.alloc, nvm.txn, ipc.call) that
   would otherwise flood the ring during a single checkpoint *)

let enter_v t ?args name =
  if t.tracing && t.verbose then Trace.begin_span t.trace ~now:(Clock.now t.clock) ?args name
  else 0

let instant_v t ?args name =
  if t.tracing && t.verbose then Trace.instant t.trace ~now:(Clock.now t.clock) ?args name

let crash_mark t =
  let now = Clock.now t.clock in
  (* pending requests die with the un-committed state regardless of
     whether the trace ring is recording *)
  Rtrace.on_crash t.rtrace;
  (* the crash instant anchors the next recovery's downtime/TTFR *)
  Rto.note_crash t.rto ~now;
  if t.tracing then begin
    Trace.abort_open t.trace ~now;
    Trace.instant t.trace ~now "crash"
  end

(* --- RTO / flight-recorder emitters ------------------------------------ *)

(* Always on, like metrics: the recovery profiler reads the simulated
   clock, never advances it, and the RTO observatory must not require the
   trace ring to be recording (without tracing the flight capture is
   simply empty). *)

let rto_begin_restore t =
  (* capture the pre-crash ring tail before any recovery event can be
     recorded into (and wrap events out of) the eternal ring *)
  Rto.begin_restore t.rto ~now:(Clock.now t.clock) ~pre_crash:(Trace.events t.trace)

let rto_phase_begin t name = Rto.phase_begin t.rto ~now:(Clock.now t.clock) name
let rto_phase_end t = Rto.phase_end t.rto ~now:(Clock.now t.clock)
let rto_note_kind t name ns = Rto.note_kind t.rto name ns

let rto_restore_done t ~version ~restored_objects ~dropped_objects ~pages_restored ~pages_dropped
    =
  Rto.restore_done t.rto ~version ~restored_objects ~dropped_objects ~pages_restored ~pages_dropped

let rto_abort t = Rto.abort t.rto

let rto_recovered t =
  match Rto.recovered t.rto ~now:(Clock.now t.clock) with
  | None -> ()
  | Some r ->
    Metrics.add t.metrics "restore.recoveries" 1;
    Metrics.set_gauge t.metrics "restore.count" (Rto.count t.rto);
    Metrics.observe t.metrics "restore.total_ns" r.Rto.r_total_ns;
    Metrics.observe t.metrics "restore.downtime_ns" r.Rto.r_downtime_ns;
    Metrics.observe t.metrics "restore.untracked_ns" r.Rto.r_untracked_ns;
    Metrics.add t.metrics "restore.objects_restored" r.Rto.r_restored_objects;
    Metrics.add t.metrics "restore.objects_dropped" r.Rto.r_dropped_objects;
    Metrics.add t.metrics "restore.pages_restored" r.Rto.r_pages_restored;
    Metrics.add t.metrics "restore.pages_dropped" r.Rto.r_pages_dropped;
    List.iter
      (fun (name, ns) -> Metrics.observe t.metrics ("restore.phase." ^ name ^ "_ns") ns)
      r.Rto.r_phases

(* --- request-causality emitters --------------------------------------- *)

(* Like metrics, request tracking is always on: it costs host time only
   (hash-table + histogram updates), never simulated time, and the latency
   observatory must not require the trace ring to be recording. *)

let req_arrive t ~origin =
  let now = Clock.now t.clock in
  (* first arrival after a recovery closes its time-to-first-request *)
  (match Rto.note_first_request t.rto ~now with
  | Some ttfr -> Metrics.observe t.metrics "restore.ttfr_ns" ttfr
  | None -> ());
  Rtrace.arrive t.rtrace ~now ~origin

let req_current t = Rtrace.current_id t.rtrace
let req_handled t = Rtrace.handled t.rtrace ~now:(Clock.now t.clock)
let req_ipc t = Rtrace.note_ipc t.rtrace
let req_enqueued t = Rtrace.enqueued t.rtrace ~now:(Clock.now t.clock)
let req_shed t ~id = if Rtrace.shed t.rtrace ~id then Metrics.add t.metrics "req.shed" 1
let req_dropped t ~id = if Rtrace.drop t.rtrace ~id then Metrics.add t.metrics "req.dropped" 1

let ckpt_committed t ~version ~stw_t0 ~stw_t1 =
  Rtrace.on_commit t.rtrace ~version ~stw_t0 ~stw_t1

let req_released t ~id ~version =
  let now = Clock.now t.clock in
  match Rtrace.released t.rtrace ~now ~id ~version with
  | None -> ()
  | Some rq ->
    Metrics.add t.metrics "req.released" 1;
    Metrics.observe t.metrics "req.enq2vis_ns" (rq.Rtrace.rq_visible_ns - rq.Rtrace.rq_enqueued_ns);
    Histogram.Windowed.add t.enq2vis_w (rq.Rtrace.rq_visible_ns - rq.Rtrace.rq_enqueued_ns);
    Metrics.observe t.metrics "req.e2e_ns" (rq.Rtrace.rq_visible_ns - rq.Rtrace.rq_arrive_ns);
    if t.tracing then begin
      (* Retroactive request slice plus a flow arrow from its enqueue
         point to the interior of the ckpt.stw slice that released it.
         Both flow ends use the request id as the correlation id. *)
      let dur = rq.Rtrace.rq_visible_ns - rq.Rtrace.rq_arrive_ns in
      Trace.complete t.trace "req"
        ~args:
          [
            ("req", string_of_int rq.Rtrace.rq_id);
            ("origin", rq.Rtrace.rq_origin);
            ("commit", "v" ^ string_of_int version);
          ]
        ~ts_ns:rq.Rtrace.rq_arrive_ns ~dur_ns:dur;
      Trace.flow_start t.trace ~flow_id:rq.Rtrace.rq_id "req.flow"
        ~ts_ns:rq.Rtrace.rq_enqueued_ns;
      let fe_ts =
        match Rtrace.last_commit t.rtrace with
        | Some (v, t0, t1) when v = version -> min (max t0 ((t0 + t1) / 2)) (max t0 (t1 - 1))
        | Some _ | None -> now
      in
      Trace.flow_end t.trace ~flow_id:rq.Rtrace.rq_id "req.flow" ~ts_ns:fe_ts
        ~args:[ ("commit", "v" ^ string_of_int version) ]
    end

(* --- wear ---------------------------------------------------------------- *)

let wear_counter_sample t =
  if t.tracing then
    Trace.counter t.trace ~now:(Clock.now t.clock) "nvm.bytes_written"
      ~values:(List.map (fun (name, _, bytes) -> (name, bytes)) (Wearmap.subsystems t.wearmap))

(* --- tseries / SLO emitters ------------------------------------------- *)

(* Always on, like metrics: the black box must not require tracing to be
   recording.  Called by [Checkpoint.run] after commit (and after the
   post-commit gauges are set), so samples exist only for committed
   versions — the monotone seq/version spine the crashtest sweep verifies
   across power cuts. *)

let tseries_key_cols =
  [
    "ckpt.stw_ns";
    "ckpt.dirty_fraction_pct";
    "ckpt.nvm.waf";
    "req.enq2vis.p99_ns";
    "extsync.ring.dropped";
  ]

let req_pending_enqueued t = Rtrace.pending_enqueued t.rtrace

let tseries_sample t ~version ~stw_ns ~interval_ns =
  let now = Clock.now t.clock in
  (* the full registry: counters and gauges as-is, timers as count+p99 *)
  let snap = Metrics.snapshot t.metrics in
  let registry =
    snap.Metrics.counters @ snap.Metrics.gauges
    @ List.concat_map
        (fun (name, tm) ->
          [ (name ^ ".n", tm.Metrics.tm_count); (name ^ ".p99_ns", tm.Metrics.tm_p99_ns) ])
        snap.Metrics.timers
  in
  (* derived signals: the STW of this commit and the windowed enq2vis
     percentiles ([.n] = releases since the previous sample; rotating
     after reading makes the window a 4-commit sliding one) *)
  let win = Histogram.Windowed.merged t.enq2vis_w in
  let derived =
    [
      ("ckpt.stw_ns", stw_ns);
      ("req.enq2vis.n", Histogram.count (Histogram.Windowed.current t.enq2vis_w));
      ("req.enq2vis.win_n", Histogram.count win);
      ("req.enq2vis.p50_ns", Histogram.percentile win 50.0);
      ("req.enq2vis.p99_ns", Histogram.percentile win 99.0);
    ]
  in
  Histogram.Windowed.rotate t.enq2vis_w;
  Tseries.record t.tseries ~ts_ns:now ~version (registry @ derived);
  (* live counter samples keep the black box on the shared trace/flight
     timeline when tracing is on *)
  if t.tracing then begin
    let s = match Tseries.latest t.tseries with Some s -> s | None -> assert false in
    Trace.counter t.trace ~now "tseries"
      ~values:
        (List.filter_map
           (fun c -> Option.map (fun v -> (c, v)) (Tseries.value t.tseries s c))
           tseries_key_cols)
  end;
  (* the SLO watchdog runs on every sample *)
  let alerts = Slo.check t.slo t.tseries ~interval_ns in
  List.iter
    (fun al ->
      Metrics.add t.metrics "slo.alerts" 1;
      if t.tracing then
        Trace.instant t.trace ~now "slo.alert"
          ~args:
            [
              ("rule", al.Slo.al_rule);
              ("value", Printf.sprintf "%.1f" al.Slo.al_value);
              ("bound", Printf.sprintf "%.1f" al.Slo.al_bound);
              ("version", string_of_int al.Slo.al_version);
            ])
    alerts;
  (* feedback edge: the adaptive interval controller reacts to the fresh
     sample *)
  match t.sample_hook with Some f -> f () | None -> ()

(* --- metrics emitters ------------------------------------------------- *)

let count t name n = Metrics.add t.metrics name n
let gauge t name v = Metrics.set_gauge t.metrics name v
let observe t name ns = Metrics.observe t.metrics name ns
