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
  mutable backing_pmo : int option;
  mutable wear_backing_pmo : int option;
  mutable tseries_backing_pmo : int option;
}

(* The simulator is single-threaded, so "the installed probe" is a single
   slot; booting a new system installs its probe (last boot wins).  Every
   emitter below is a no-op costing one load + branch when nothing is
   installed — the instrumented hot paths pay nothing measurable, and
   never any *simulated* time. *)
let current : t option ref = ref None

let create ?(capacity = 4096) ?(tseries_capacity = Tseries.default_capacity) ~clock () =
  {
    clock;
    trace = Trace.create ~capacity ();
    metrics = Metrics.create ();
    rtrace = Rtrace.create ();
    wearmap = Wearmap.create ();
    rto = Rto.create ();
    tseries = Tseries.create ~capacity:tseries_capacity ();
    slo = Slo.create ();
    enq2vis_w = Histogram.Windowed.create ~slices:4 ();
    sample_hook = None;
    tracing = false;
    verbose = false;
    backing_pmo = None;
    wear_backing_pmo = None;
    tseries_backing_pmo = None;
  }

let install t = current := Some t
let uninstall () = current := None
let installed () = !current

let clock t = t.clock
let trace t = t.trace
let metrics t = t.metrics
let rtrace t = t.rtrace

let set_tracing t on = t.tracing <- on
let tracing t = t.tracing
let set_verbose t on = t.verbose <- on
let verbose t = t.verbose
let set_backing_pmo t id = t.backing_pmo <- Some id
let backing_pmo t = t.backing_pmo
let set_wear_backing_pmo t id = t.wear_backing_pmo <- Some id
let wear_backing_pmo t = t.wear_backing_pmo
let set_tseries_backing_pmo t id = t.tseries_backing_pmo <- Some id
let tseries_backing_pmo t = t.tseries_backing_pmo
let wearmap t = t.wearmap
let rto t = t.rto
let tseries t = t.tseries
let slo t = t.slo
let set_sample_hook t f = t.sample_hook <- Some f

(* --- trace emitters --------------------------------------------------- *)

let enter ?args name =
  match !current with
  | Some t when t.tracing -> Trace.begin_span t.trace ~now:(Clock.now t.clock) ?args name
  | Some _ | None -> 0

let exit ?args token =
  if token <> 0 then
    match !current with
    | Some t -> Trace.end_span t.trace ~now:(Clock.now t.clock) ?args token
    | None -> ()

let instant ?args name =
  match !current with
  | Some t when t.tracing -> Trace.instant t.trace ~now:(Clock.now t.clock) ?args name
  | Some _ | None -> ()

let span_at ?args name ~ts_ns ~dur_ns =
  match !current with
  | Some t when t.tracing -> Trace.complete t.trace ?args name ~ts_ns ~dur_ns
  | Some _ | None -> ()

(* verbose tier: per-operation events (nvm.alloc, nvm.txn, ipc.call) that
   would otherwise flood the ring during a single checkpoint *)

let enter_v ?args name =
  match !current with
  | Some t when t.tracing && t.verbose -> Trace.begin_span t.trace ~now:(Clock.now t.clock) ?args name
  | Some _ | None -> 0

let instant_v ?args name =
  match !current with
  | Some t when t.tracing && t.verbose -> Trace.instant t.trace ~now:(Clock.now t.clock) ?args name
  | Some _ | None -> ()

let crash_mark () =
  match !current with
  | Some t ->
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
  | None -> ()

(* --- RTO / flight-recorder emitters ------------------------------------ *)

(* Always on while a probe is installed, like metrics: the recovery
   profiler reads the simulated clock, never advances it, and the RTO
   observatory must not require the trace ring to be recording (without
   tracing the flight capture is simply empty). *)

let rto_begin_restore () =
  match !current with
  | Some t ->
    (* capture the pre-crash ring tail before any recovery event can be
       recorded into (and wrap events out of) the eternal ring *)
    Rto.begin_restore t.rto ~now:(Clock.now t.clock) ~pre_crash:(Trace.events t.trace)
  | None -> ()

let rto_phase_begin name =
  match !current with
  | Some t -> Rto.phase_begin t.rto ~now:(Clock.now t.clock) name
  | None -> ()

let rto_phase_end () =
  match !current with
  | Some t -> Rto.phase_end t.rto ~now:(Clock.now t.clock)
  | None -> ()

let rto_note_kind name ns = match !current with Some t -> Rto.note_kind t.rto name ns | None -> ()

let rto_restore_done ~version ~restored_objects ~dropped_objects ~pages_restored ~pages_dropped =
  match !current with
  | Some t ->
    Rto.restore_done t.rto ~version ~restored_objects ~dropped_objects ~pages_restored
      ~pages_dropped
  | None -> ()

let rto_abort () = match !current with Some t -> Rto.abort t.rto | None -> ()

let rto_recovered () =
  match !current with
  | Some t -> (
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
        r.Rto.r_phases)
  | None -> ()

(* --- request-causality emitters --------------------------------------- *)

(* Like metrics, request tracking is always on while a probe is installed:
   it costs host time only (hash-table + histogram updates), never
   simulated time, and the latency observatory must not require the trace
   ring to be recording. *)

let req_arrive ~origin =
  match !current with
  | Some t ->
    let now = Clock.now t.clock in
    (* first arrival after a recovery closes its time-to-first-request *)
    (match Rto.note_first_request t.rto ~now with
    | Some ttfr -> Metrics.observe t.metrics "restore.ttfr_ns" ttfr
    | None -> ());
    Rtrace.arrive t.rtrace ~now ~origin
  | None -> 0

let req_current () = match !current with Some t -> Rtrace.current_id t.rtrace | None -> 0

let req_handled () =
  match !current with
  | Some t -> Rtrace.handled t.rtrace ~now:(Clock.now t.clock)
  | None -> ()

let req_ipc () = match !current with Some t -> Rtrace.note_ipc t.rtrace | None -> ()

let req_enqueued () =
  match !current with
  | Some t -> Rtrace.enqueued t.rtrace ~now:(Clock.now t.clock)
  | None -> 0

let req_shed ~id =
  match !current with
  | Some t ->
    if Rtrace.shed t.rtrace ~id then Metrics.add t.metrics "req.shed" 1
  | None -> ()

let req_dropped ~id =
  match !current with
  | Some t ->
    if Rtrace.drop t.rtrace ~id then Metrics.add t.metrics "req.dropped" 1
  | None -> ()

let ckpt_committed ~version ~stw_t0 ~stw_t1 =
  match !current with
  | Some t -> Rtrace.on_commit t.rtrace ~version ~stw_t0 ~stw_t1
  | None -> ()

let req_released ~id ~version =
  match !current with
  | Some t -> (
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
      end)
  | None -> ()

(* --- wear emitters ---------------------------------------------------- *)

(* Always on while a probe is installed, like metrics: the wearmap is the
   instrument that makes NVM-cost claims falsifiable, so it must not
   require tracing to be enabled.  Host-time cost only. *)

let wear_page_write ~page ~bytes =
  match !current with
  | Some t -> Wearmap.record t.wearmap ~page ~bytes
  | None -> ()

let wear_note ~subsystem ~bytes =
  match !current with
  | Some t -> Wearmap.note t.wearmap ~subsystem ~bytes
  | None -> ()

let wear_copy_charged ~ns =
  match !current with
  | Some t -> Wearmap.copy_charged t.wearmap ~ns
  | None -> ()

let wear_total_bytes () =
  match !current with Some t -> Wearmap.total_bytes t.wearmap | None -> 0

let wear_counter_sample () =
  match !current with
  | Some t when t.tracing ->
    Trace.counter t.trace ~now:(Clock.now t.clock) "nvm.bytes_written"
      ~values:(List.map (fun (name, _, bytes) -> (name, bytes)) (Wearmap.subsystems t.wearmap))
  | Some _ | None -> ()

(* --- tseries / SLO emitters ------------------------------------------- *)

(* Always on while a probe is installed, like metrics: the black box must
   not require tracing to be recording.  Called by [Checkpoint.run] after
   commit (and after the post-commit gauges are set), so samples exist
   only for committed versions — the monotone seq/version spine the
   crashtest sweep verifies across power cuts. *)

let tseries_key_cols =
  [
    "ckpt.stw_ns";
    "ckpt.dirty_fraction_pct";
    "ckpt.nvm.waf";
    "req.enq2vis.p99_ns";
    "extsync.ring.dropped";
  ]

let req_pending_enqueued () =
  match !current with Some t -> Rtrace.pending_enqueued t.rtrace | None -> 0

let tseries_sample ~version ~stw_ns ~interval_ns =
  match !current with
  | None -> ()
  | Some t ->
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
    (* feedback edge: the adaptive interval controller reacts to the
       fresh sample *)
    match t.sample_hook with Some f -> f () | None -> ()

(* --- metrics emitters ------------------------------------------------- *)

let count name n = match !current with Some t -> Metrics.add t.metrics name n | None -> ()
let gauge name v = match !current with Some t -> Metrics.set_gauge t.metrics name v | None -> ()
let observe name ns = match !current with Some t -> Metrics.observe t.metrics name ns | None -> ()
