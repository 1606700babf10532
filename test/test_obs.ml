(* Observability tests: the trace ring (wraparound, nesting, crash
   survival), the Perfetto exporter (read back with [Json.parse]), the
   metrics registry, and the two properties the subsystem promises the
   rest of the repo:
   events reconcile exactly with the checkpoint Report, and tracing that is
   off records nothing and costs no simulated time. *)

module Trace = Treesls_obs.Trace
module Metrics = Treesls_obs.Metrics
module Probe = Treesls_obs.Probe
module Rtrace = Treesls_obs.Rtrace
module System = Treesls.System
module Report = Treesls_ckpt.Report
module Kernel = Treesls_kernel.Kernel
module Net_server = Treesls_extsync.Net_server
module Kv_app = Treesls_apps.Kv_app
module Json = Treesls_util.Json

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- trace ring ---- *)

let ring_wraparound () =
  let tr = Trace.create ~capacity:8 () in
  for i = 0 to 19 do
    Trace.instant tr ~now:(i * 10) (Printf.sprintf "e%d" i)
  done;
  check_int "length capped" 8 (Trace.length tr);
  check_int "total keeps counting" 20 (Trace.total tr);
  check_int "dropped" 12 (Trace.dropped tr);
  let evs = Trace.events tr in
  check_int "oldest retained is seq 12" 12 (List.hd evs).Trace.seq;
  check_int "newest retained is seq 19" 19 (List.nth evs 7).Trace.seq;
  (* oldest-first and contiguous *)
  List.iteri (fun i e -> check_int "seq order" (12 + i) e.Trace.seq) evs;
  Trace.clear tr;
  check_int "clear empties" 0 (Trace.length tr);
  check_int "clear resets total" 0 (Trace.total tr)

let span_nesting () =
  let tr = Trace.create () in
  let a = Trace.begin_span tr ~now:0 "outer" in
  let b = Trace.begin_span tr ~now:10 "inner" in
  Trace.instant tr ~now:15 "mark";
  Trace.end_span tr ~now:20 b;
  Trace.end_span tr ~now:50 ~args:[ ("k", "v") ] a;
  (* spans are recorded at close time: mark, inner, outer *)
  match Trace.events tr with
  | [ mark; inner; outer ] ->
    check_int "instant nests under inner" b mark.Trace.parent;
    check_int "inner nests under outer" a inner.Trace.parent;
    check_int "outer is top-level" 0 outer.Trace.parent;
    check_int "inner ts" 10 inner.Trace.ts_ns;
    check_int "inner dur" 10 inner.Trace.dur_ns;
    check_int "outer dur" 50 outer.Trace.dur_ns;
    check_bool "end-time args kept" true (List.mem_assoc "k" outer.Trace.args);
    check_bool "category from prefix" true (outer.Trace.cat = "outer");
    check_int "no open spans left" 0 (Trace.open_spans tr)
  | l -> Alcotest.failf "expected 3 events, got %d" (List.length l)

let unknown_span_ignored () =
  let tr = Trace.create () in
  Trace.end_span tr ~now:5 12345;
  check_int "nothing recorded" 0 (Trace.length tr)

let abort_marks_open_spans () =
  let tr = Trace.create () in
  ignore (Trace.begin_span tr ~now:0 "outer");
  ignore (Trace.begin_span tr ~now:5 "inner");
  Trace.abort_open tr ~now:7;
  check_int "all closed" 0 (Trace.open_spans tr);
  check_int "both recorded" 2 (Trace.length tr);
  List.iter
    (fun e ->
      check_bool "flagged aborted" true (List.assoc_opt "aborted" e.Trace.args = Some "true"))
    (Trace.events tr)

(* ---- accessors over Json.parse'd exports ---- *)

let obj_field f j =
  match Json.member f j with Some v -> v | None -> Alcotest.failf "missing field %s" f

let str = function Json.Str s -> s | _ -> Alcotest.fail "expected string"
let num j = match Json.to_float j with Some f -> f | None -> Alcotest.fail "expected number"

let perfetto_json_wellformed () =
  let tr = Trace.create () in
  let a = Trace.begin_span tr ~now:1_000 ~args:[ ("quote", "a\"b"); ("nl", "x\ny") ] "ckpt.stw" in
  Trace.instant tr ~now:1_500 "mark\\back";
  Trace.end_span tr ~now:2_000 a;
  Trace.complete tr "ckpt.hybrid_copy" ~ts_ns:1_100 ~dur_ns:700;
  let j = Json.parse (Trace.to_perfetto_json ~pid:7 ~tid:3 tr) in
  let all = match obj_field "traceEvents" j with Json.Arr l -> l | _ -> Alcotest.fail "array" in
  (* the stream opens with metadata ("M") events naming the tracks *)
  let meta, evs = List.partition (fun e -> str (obj_field "ph" e) = "M") all in
  check_int "two metadata events (no req track here)" 2 (List.length meta);
  check_bool "process named" true
    (List.exists
       (fun e ->
         str (obj_field "name" e) = "process_name"
         && str (obj_field "name" (obj_field "args" e)) = "treesls")
       meta);
  check_bool "main track named" true
    (List.exists
       (fun e ->
         str (obj_field "name" e) = "thread_name"
         && int_of_float (num (obj_field "tid" e)) = 3
         && str (obj_field "name" (obj_field "args" e)) = "kernel")
       meta);
  check_int "three events" 3 (List.length evs);
  List.iter
    (fun e ->
      check_bool "has name" true (str (obj_field "name" e) <> "");
      check_int "pid plumbed" 7 (int_of_float (num (obj_field "pid" e)));
      check_int "tid plumbed" 3 (int_of_float (num (obj_field "tid" e)));
      match str (obj_field "ph" e) with
      | "X" -> ignore (num (obj_field "dur" e))
      | "i" -> ignore (str (obj_field "s" e))
      | ph -> Alcotest.failf "unexpected ph %s" ph)
    evs;
  (* escaping round-trips through a real parser *)
  let instant = List.nth evs 0 in
  check_bool "escaped name" true (str (obj_field "name" instant) = "mark\\back");
  check_int "instant nests under stw" a
    (int_of_string (str (obj_field "parent" (obj_field "args" instant))));
  let stw = List.nth evs 1 in
  check_bool "arg with quote survives" true
    (str (obj_field "quote" (obj_field "args" stw)) = "a\"b");
  check_bool "arg with newline survives" true
    (str (obj_field "nl" (obj_field "args" stw)) = "x\ny");
  (* ts/dur are microseconds with ns precision: 1000ns -> 1.0us *)
  Alcotest.(check (float 1e-9)) "ts in us" 1.0 (num (obj_field "ts" stw));
  Alcotest.(check (float 1e-9)) "dur in us" 1.0 (num (obj_field "dur" stw))

let perfetto_flow_events () =
  let tr = Trace.create () in
  let a = Trace.begin_span tr ~now:1_000 "ckpt.stw" in
  Trace.flow_start tr ~flow_id:42 "req.flow" ~ts_ns:500;
  Trace.flow_end tr ~flow_id:42 "req.flow" ~ts_ns:1_500;
  Trace.end_span tr ~now:2_000 a;
  let j = Json.parse (Trace.to_perfetto_json ~pid:1 ~tid:1 tr) in
  let evs = match obj_field "traceEvents" j with Json.Arr l -> l | _ -> Alcotest.fail "array" in
  let by_ph p =
    List.filter (fun e -> str (obj_field "ph" e) = p) evs
  in
  (match by_ph "s" with
  | [ s ] ->
    check_bool "flow name" true (str (obj_field "name" s) = "req.flow");
    (* flow binding id is a TOP-LEVEL field, not an arg *)
    check_int "flow id" 42 (int_of_float (num (obj_field "id" s)));
    Alcotest.(check (float 1e-9)) "flow start ts" 0.5 (num (obj_field "ts" s))
  | l -> Alcotest.failf "expected 1 flow start, got %d" (List.length l));
  (match by_ph "f" with
  | [ f ] ->
    check_int "flow end id matches" 42 (int_of_float (num (obj_field "id" f)));
    (* bp:e binds the arrow head to the enclosing slice (the stw span) *)
    check_bool "binding point" true (str (obj_field "bp" f) = "e")
  | l -> Alcotest.failf "expected 1 flow end, got %d" (List.length l))

let perfetto_counter_escaping () =
  let tr = Trace.create () in
  (* counter-track and value names with quotes, backslashes and raw UTF-8
     (the exporter passes non-ASCII bytes through unescaped) *)
  Trace.counter tr ~now:2_000 "bla\"ck\\bo\xc3\xa9x"
    ~values:[ ("a\"b", 7); ("c\\d", -3); ("\xc3\xa9", 12) ];
  let j = Json.parse (Trace.to_perfetto_json ~pid:1 ~tid:1 tr) in
  let evs = match obj_field "traceEvents" j with Json.Arr l -> l | _ -> Alcotest.fail "array" in
  match List.filter (fun e -> str (obj_field "ph" e) = "C") evs with
  | [ c ] ->
    check_bool "track name round-trips" true
      (str (obj_field "name" c) = "bla\"ck\\bo\xc3\xa9x");
    (* counter values are JSON numbers, not strings *)
    check_int "quoted key" 7 (int_of_float (num (obj_field "a\"b" (obj_field "args" c))));
    check_int "backslash key" (-3) (int_of_float (num (obj_field "c\\d" (obj_field "args" c))));
    check_int "non-ascii key" 12 (int_of_float (num (obj_field "\xc3\xa9" (obj_field "args" c))))
  | l -> Alcotest.failf "expected 1 counter event, got %d" (List.length l)

(* ---- rtrace: request causality ---- *)

let rtrace_lifecycle () =
  let rt = Rtrace.create () in
  let id = Rtrace.arrive rt ~now:100 ~origin:"kv.set" in
  check_int "ids start at 1" 1 id;
  check_int "current" id (Rtrace.current_id rt);
  Rtrace.note_ipc rt;
  Rtrace.handled rt ~now:130;
  check_int "enqueued returns current id" id (Rtrace.enqueued rt ~now:150);
  check_int "enqueue stamp is first-wins" 150
    (ignore (Rtrace.enqueued rt ~now:170);
     match Rtrace.find_live rt id with
     | Some r -> r.Rtrace.rq_enqueued_ns
     | None -> -1);
  check_int "still live until released" 1 (Rtrace.live_count rt);
  (match Rtrace.released rt ~now:1_150 ~id ~version:7 with
  | Some r ->
    check_int "arrive ts" 100 r.Rtrace.rq_arrive_ns;
    check_int "handled ts" 130 r.Rtrace.rq_handled_ns;
    check_int "enqueued ts" 150 r.Rtrace.rq_enqueued_ns;
    check_int "visible ts" 1_150 r.Rtrace.rq_visible_ns;
    check_int "commit version recorded" 7 r.Rtrace.rq_commit_ver;
    check_int "ipc calls" 1 r.Rtrace.rq_ipc_calls;
    check_bool "outcome" true (r.Rtrace.rq_outcome = Rtrace.Released)
  | None -> Alcotest.fail "released lost the request");
  check_int "no longer live" 0 (Rtrace.live_count rt);
  check_int "released counted" 1 (Rtrace.released_count rt);
  let s = Rtrace.enq2vis_summary rt in
  check_int "one sample" 1 s.Rtrace.s_count;
  check_int "enq->vis p50" 1_000 s.Rtrace.s_p50_ns;
  check_int "e2e p50" 1_050 (Rtrace.e2e_summary rt).Rtrace.s_p50_ns

let rtrace_internal_finalized () =
  let rt = Rtrace.create () in
  (* enqueue with no current request: internally generated send, id 0 *)
  check_int "no ambient current yet" 0 (Rtrace.enqueued rt ~now:0);
  ignore (Rtrace.arrive rt ~now:0 ~origin:"kv.get");
  (* next arrival finalizes the previous current: it produced no external
     output, so it is Internal, not leaked as live forever *)
  let id2 = Rtrace.arrive rt ~now:10 ~origin:"kv.set" in
  check_int "internal finalized" 1 (Rtrace.internal_count rt);
  check_int "only new one live" 1 (Rtrace.live_count rt);
  check_int "current moved on" id2 (Rtrace.current_id rt);
  ignore (Rtrace.enqueued rt ~now:20);
  (* an enqueued request is NOT internal: the next arrival leaves it live,
     waiting for its releasing commit *)
  ignore (Rtrace.arrive rt ~now:30 ~origin:"kv.set");
  check_int "enqueued one still live" 2 (Rtrace.live_count rt);
  check_int "internal count unchanged" 1 (Rtrace.internal_count rt)

let rtrace_shed_and_crash () =
  let rt = Rtrace.create () in
  let a = Rtrace.arrive rt ~now:0 ~origin:"kv.set" in
  ignore (Rtrace.enqueued rt ~now:5);
  check_bool "shed known id" true (Rtrace.shed rt ~id:a);
  check_int "shed counted" 1 (Rtrace.shed_count rt);
  check_bool "shed unknown id" false (Rtrace.shed rt ~id:999);
  let b = Rtrace.arrive rt ~now:10 ~origin:"kv.set" in
  ignore (Rtrace.enqueued rt ~now:15);
  Rtrace.on_crash rt;
  check_int "pending dropped by crash" 1 (Rtrace.dropped_count rt);
  check_int "nothing live after crash" 0 (Rtrace.live_count rt);
  (match Rtrace.completed rt with
  | newest :: _ ->
    check_int "newest is the crashed one" b newest.Rtrace.rq_id;
    check_bool "outcome dropped" true (newest.Rtrace.rq_outcome = Rtrace.Dropped)
  | [] -> Alcotest.fail "no completed records");
  check_int "completed_total" 2 (Rtrace.completed_total rt)

(* end to end: external requests flow through app -> ring -> checkpoint and
   the Perfetto export links each request span to the releasing ckpt.stw
   span with a flow arrow *)
let rtrace_flows_end_to_end () =
  let sys = System.boot ~interval_us:1000 () in
  System.enable_tracing sys;
  let app = Kv_app.launch ~keys_hint:2_000 sys Kv_app.Memcached in
  let netdrv =
    match Kernel.find_process (System.kernel sys) ~name:"netdrv" with
    | Some p -> p
    | None -> Alcotest.fail "netdrv missing"
  in
  let delivered = ref 0 in
  let net =
    Net_server.create (System.kernel sys) (System.manager sys) ~proc:netdrv
      ~deliver:(fun ~client:_ ~sent_ns:_ ~payload:_ -> incr delivered)
  in
  for i = 0 to 9 do
    Kv_app.set_i app i;
    check_bool "send accepted" true (Net_server.send net ~client:i (Bytes.of_string "+OK"))
  done;
  ignore (System.checkpoint sys);
  check_int "all replies delivered" 10 !delivered;
  let rt = Probe.rtrace (System.obs sys) in
  check_int "all requests released" 10 (Rtrace.released_count rt);
  let ver = Treesls_nvm.Global_meta.version (Treesls_nvm.Store.meta (Kernel.store (System.kernel sys))) in
  List.iter
    (fun r ->
      if r.Rtrace.rq_outcome = Rtrace.Released then begin
        check_int "released by the concrete commit" ver r.Rtrace.rq_commit_ver;
        check_bool "timeline ordered" true
          (r.Rtrace.rq_arrive_ns <= r.Rtrace.rq_handled_ns
          && r.Rtrace.rq_handled_ns <= r.Rtrace.rq_enqueued_ns
          && r.Rtrace.rq_enqueued_ns < r.Rtrace.rq_visible_ns)
      end)
    (Rtrace.completed rt);
  (* the export carries req spans and flow arrows into the stw slice *)
  let j = Json.parse (Trace.to_perfetto_json ~pid:1 ~tid:1 (System.trace sys)) in
  let evs = match obj_field "traceEvents" j with Json.Arr l -> l | _ -> Alcotest.fail "array" in
  let flows p = List.filter (fun e ->
    str (obj_field "name" e) = "req.flow" && str (obj_field "ph" e) = p) evs
  in
  let starts = flows "s" and ends_ = flows "f" in
  check_int "one flow start per request" 10 (List.length starts);
  check_int "one flow end per request" 10 (List.length ends_);
  let req_spans = List.filter (fun e -> str (obj_field "name" e) = "req") evs in
  check_int "one retroactive span per request" 10 (List.length req_spans);
  (* each start's id has a matching end, and the end lands inside the stw
     window so the arrow binds to the ckpt.stw slice *)
  let stw =
    match List.filter (fun e -> str (obj_field "name" e) = "ckpt.stw") evs with
    | [ e ] -> e
    | l -> Alcotest.failf "expected 1 stw span, got %d" (List.length l)
  in
  let stw_t0 = num (obj_field "ts" stw) in
  let stw_t1 = stw_t0 +. num (obj_field "dur" stw) in
  List.iter
    (fun s ->
      let fid = int_of_float (num (obj_field "id" s)) in
      match
        List.find_opt (fun f -> int_of_float (num (obj_field "id" f)) = fid) ends_
      with
      | None -> Alcotest.failf "flow %d has no end" fid
      | Some f ->
        let ts = num (obj_field "ts" f) in
        check_bool "flow end inside stw window" true (ts >= stw_t0 && ts < stw_t1))
    starts

(* ---- metrics ---- *)

let metrics_snapshot_reset () =
  let m = Metrics.create () in
  Metrics.add m "c" 2;
  Metrics.add m "c" 3;
  Metrics.add m "b" 1;
  Metrics.set_gauge m "g" 7;
  Metrics.set_gauge m "g" 9;
  Metrics.observe m "t" 100;
  Metrics.observe m "t" 200;
  let s = Metrics.snapshot m in
  check_bool "counters sorted, summed" true (s.Metrics.counters = [ ("b", 1); ("c", 5) ]);
  check_int "gauge keeps last write" 9 (List.assoc "g" s.Metrics.gauges);
  let tm = List.assoc "t" s.Metrics.timers in
  check_int "timer count" 2 tm.Metrics.tm_count;
  check_int "timer total" 300 tm.Metrics.tm_total_ns;
  check_int "timer max" 200 tm.Metrics.tm_max_ns;
  check_int "counter_value" 5 (Metrics.counter_value m "c");
  check_int "untouched name reads 0" 0 (Metrics.counter_value m "nope");
  (* JSON dump parses and carries the sections *)
  (match Json.parse (Json.to_string (Metrics.snapshot_to_json s)) with
  | Json.Obj f ->
    check_bool "json sections" true
      (List.mem_assoc "counters" f && List.mem_assoc "gauges" f && List.mem_assoc "timers" f)
  | _ -> Alcotest.fail "metrics json not an object");
  Metrics.reset m;
  let s2 = Metrics.snapshot m in
  check_bool "reset empties everything" true
    (s2.Metrics.counters = [] && s2.Metrics.gauges = [] && s2.Metrics.timers = [])

(* ---- whole-system: crash survival, reconciliation, zero cost ---- *)

let find_events tr name = List.filter (fun e -> e.Trace.name = name) (Trace.events tr)

let trace_survives_crash () =
  let sys = System.boot () in
  System.enable_tracing sys;
  let app = Kv_app.launch ~keys_hint:2_000 sys Kv_app.Memcached in
  for i = 0 to 49 do
    Kv_app.set_i app i
  done;
  ignore (System.checkpoint sys);
  Probe.instant (System.obs sys) ~args:[ ("witness", "42") ] "test.pre_crash_marker";
  ignore (System.crash_and_recover sys);
  Kv_app.refresh app;
  let tr = System.trace sys in
  (* the ring is eternal state: everything recorded before the power
     failure is still there, followed by the crash marker and the
     restore span *)
  check_int "pre-crash marker survived" 1 (List.length (find_events tr "test.pre_crash_marker"));
  check_bool "pre-crash checkpoint spans survived" true (find_events tr "ckpt.stw" <> []);
  check_int "crash marked" 1 (List.length (find_events tr "crash"));
  check_int "restore recorded" 1 (List.length (find_events tr "restore"));
  let seq name = (List.hd (find_events tr name)).Trace.seq in
  check_bool "marker before crash" true (seq "test.pre_crash_marker" < seq "crash");
  check_bool "crash before restore" true (seq "crash" < seq "restore");
  check_bool "marker args intact" true
    (List.assoc_opt "witness" (List.hd (find_events tr "test.pre_crash_marker")).Trace.args
    = Some "42");
  check_bool "ring has eternal PMO backing" true
    (List.mem_assoc "trace" (Probe.backings (System.obs sys)));
  (* the metrics registry is eternal too *)
  let m = Probe.metrics (System.obs sys) in
  check_int "crash counted" 1 (Metrics.counter_value m "crashes");
  check_int "restore counted" 1 (Metrics.counter_value m "restore.runs");
  check_bool "pre-crash ckpt.runs survived" true (Metrics.counter_value m "ckpt.runs" >= 1)

let reconcile_with_report () =
  let sys = System.boot () in
  System.enable_tracing sys;
  let app = Kv_app.launch ~keys_hint:2_000 sys Kv_app.Memcached in
  for i = 0 to 199 do
    Kv_app.set_i app i
  done;
  ignore (System.checkpoint sys);
  for i = 200 to 399 do
    Kv_app.set_i app i
  done;
  let r = System.checkpoint sys in
  let tr = System.trace sys in
  let stw = List.hd (List.rev (find_events tr "ckpt.stw")) in
  let child name =
    List.fold_left
      (fun acc (e : Trace.event) ->
        if e.Trace.name = name && e.Trace.parent = stw.Trace.id then acc + e.Trace.dur_ns
        else acc)
      0 (Trace.events tr)
  in
  (* every Report field is visible as a span, exactly *)
  check_int "stw span = Report.stw_ns" r.Report.stw_ns stw.Trace.dur_ns;
  check_int "captree span = Report.captree_ns" r.Report.captree_ns (child "ckpt.captree");
  check_int "others span = Report.others_ns" r.Report.others_ns (child "ckpt.others");
  check_int "hybrid span = Report.hybrid_ns" r.Report.hybrid_ns (child "ckpt.hybrid_copy");
  check_int "quiesce+resume = Report.ipi_ns" r.Report.ipi_ns
    (child "ckpt.quiesce" + child "ckpt.resume");
  (* and the children reconcile with the pause: the hybrid copy overlaps
     the walk, so only its excess extends the STW window *)
  check_int "children sum to the pause" stw.Trace.dur_ns
    (child "ckpt.quiesce" + child "ckpt.captree"
    + max 0 (child "ckpt.hybrid_copy" - child "ckpt.captree")
    + child "ckpt.others" + child "ckpt.resume")

let verbose_tier () =
  let sys = System.boot () in
  System.enable_tracing sys;
  (* verbose off: the per-operation firehose stays silent *)
  let app = Kv_app.launch ~keys_hint:2_000 sys Kv_app.Memcached in
  for i = 0 to 49 do
    Kv_app.set_i app i
  done;
  let tr = System.trace sys in
  check_int "no firehose by default" 0 (List.length (find_events tr "nvm.alloc"));
  Probe.set_verbose (System.obs sys) true;
  for i = 50 to 99 do
    Kv_app.set_i app i
  done;
  check_bool "firehose when verbose" true (find_events tr "nvm.alloc" <> [])

let run_workload sys =
  let app = Kv_app.launch ~keys_hint:2_000 sys Kv_app.Memcached in
  for i = 0 to 499 do
    Kv_app.set_i app i;
    ignore (System.tick sys)
  done

let disabled_tracing_is_free () =
  (* identical run, tracing off vs on (even verbose): same simulated time,
     because emitters read the clock but never advance it *)
  let sys_plain = System.boot ~interval_us:1000 () in
  run_workload sys_plain;
  let t_plain = System.now_ns sys_plain in
  check_int "disabled records nothing" 0 (Trace.length (System.trace sys_plain));
  let sys_traced = System.boot ~interval_us:1000 () in
  System.enable_tracing ~verbose:true ~eternal_backing:false sys_traced;
  run_workload sys_traced;
  let t_traced = System.now_ns sys_traced in
  check_bool "enabled records events" true (Trace.length (System.trace sys_traced) > 0);
  check_int "tracing costs no simulated time" t_plain t_traced

(* ---- rto: recovery observability (profiler + flight recorder) ---- *)

module Rto = Treesls_obs.Rto

let boot_live () =
  let sys = System.boot ~interval_us:1000 () in
  System.enable_tracing sys;
  let app = Kv_app.launch ~keys_hint:2_000 sys Kv_app.Memcached in
  for i = 0 to 199 do
    Kv_app.set_i app i;
    ignore (System.tick sys)
  done;
  ignore (System.checkpoint sys);
  (sys, app)

let phase_sum (r : Rto.record) = List.fold_left (fun a (_, ns) -> a + ns) 0 r.Rto.r_phases

let rto_phase_sum_exact () =
  let sys, app = boot_live () in
  ignore (System.crash_and_recover sys);
  Kv_app.refresh app;
  match System.last_recovery sys with
  | None -> Alcotest.fail "no recovery sealed"
  | Some r ->
    check_bool "total positive" true (r.Rto.r_total_ns > 0);
    check_int "exclusive phases + untracked = total exactly" r.Rto.r_total_ns
      (phase_sum r + r.Rto.r_untracked_ns);
    check_bool "untracked <= 1% of total" true
      (float_of_int r.Rto.r_untracked_ns <= 0.01 *. float_of_int r.Rto.r_total_ns);
    check_bool "objects restored" true (r.Rto.r_restored_objects > 0);
    check_bool "downtime covers the restore" true (r.Rto.r_downtime_ns >= r.Rto.r_total_ns);
    (* the sealed record feeds the restore.* metrics family *)
    let m = Probe.metrics (System.obs sys) in
    (match Metrics.histogram m "restore.total_ns" with
    | Some h ->
      check_int "restore.total_ns observed once" 1 (Treesls_util.Histogram.count h);
      check_int "restore.total_ns = record" r.Rto.r_total_ns
        (Treesls_util.Histogram.max_value h)
    | None -> Alcotest.fail "restore.total_ns timer missing");
    check_bool "every phase has a timer" true
      (List.for_all
         (fun (p, _) -> Metrics.histogram m ("restore.phase." ^ p ^ "_ns") <> None)
         r.Rto.r_phases)

let rto_ttfr () =
  let sys, app = boot_live () in
  ignore (System.crash_and_recover sys);
  Kv_app.refresh app;
  let r = Option.get (System.last_recovery sys) in
  check_bool "ttfr unknown before any request" true (r.Rto.r_ttfr_ns < 0);
  Kv_app.set_i app 0;
  check_bool "first request seals ttfr" true (r.Rto.r_ttfr_ns >= r.Rto.r_downtime_ns);
  let ttfr = r.Rto.r_ttfr_ns in
  Kv_app.set_i app 1;
  check_int "later requests don't move it" ttfr r.Rto.r_ttfr_ns

let rto_flight_roundtrip () =
  let sys, app = boot_live () in
  Probe.instant (System.obs sys) ~args:[ ("w", "1") ] "test.flight_witness";
  ignore (System.crash_and_recover sys);
  Kv_app.refresh app;
  let flight =
    match System.export_flight sys with Some f -> f | None -> Alcotest.fail "no flight export"
  in
  let j = Json.parse flight in
  let all = match obj_field "traceEvents" j with Json.Arr l -> l | _ -> Alcotest.fail "array" in
  let meta, evs = List.partition (fun e -> str (obj_field "ph" e) = "M") all in
  let thread_named tid name =
    List.exists
      (fun e ->
        str (obj_field "name" e) = "thread_name"
        && int_of_float (num (obj_field "tid" e)) = tid
        && str (obj_field "name" (obj_field "args" e)) = name)
      meta
  in
  check_bool "pre-crash track named" true (thread_named 1 "pre-crash");
  check_bool "recovery track named" true (thread_named 2 "recovery");
  let tid e = int_of_float (num (obj_field "tid" e)) in
  (* exactly one crash-instant marker, on the recovery track *)
  (match
     List.filter
       (fun e ->
         str (obj_field "ph" e) = "i"
         && str (obj_field "name" e) = "crash"
         && (match obj_field "args" e with
            | Json.Obj fields -> List.assoc_opt "marker" fields = Some (Json.Str "flight")
            | _ -> false))
       evs
   with
  | [ m ] -> check_int "marker on recovery track" 2 (tid m)
  | l -> Alcotest.failf "expected 1 flight crash marker, got %d" (List.length l));
  (* the recovery span and its rto.<phase> children live on track 2 *)
  let recov =
    List.filter (fun e -> str (obj_field "ph" e) = "X" && str (obj_field "name" e) = "recovery") evs
  in
  check_int "one recovery span" 1 (List.length recov);
  check_int "recovery span on track 2" 2 (tid (List.hd recov));
  check_bool "per-phase child spans present" true
    (List.exists
       (fun e ->
         let n = str (obj_field "name" e) in
         String.length n > 4 && String.sub n 0 4 = "rto." && tid e = 2)
       evs);
  (* the pre-crash witness rode along on track 1 *)
  (match List.filter (fun e -> str (obj_field "name" e) = "test.flight_witness") evs with
  | [ w ] -> check_int "witness on pre-crash track" 1 (tid w)
  | l -> Alcotest.failf "expected 1 witness, got %d" (List.length l))

(* Satellite: the eternal trace ring reattaches across N >= 3 consecutive
   crash/restore cycles with no duplicated, truncated or reordered
   pre-crash events — checked both in the live ring and in the final
   flight capture. *)
let rto_ring_survives_cycles () =
  let sys, app = boot_live () in
  let cycles = 3 in
  for cycle = 1 to cycles do
    Probe.instant (System.obs sys) ~args:[ ("cycle", string_of_int cycle) ] "test.cycle_witness";
    ignore (System.crash_and_recover sys);
    Kv_app.refresh app;
    (* some post-recovery work so later cycles crash a different state *)
    for i = 0 to 49 do
      Kv_app.set_i app i;
      ignore (System.tick sys)
    done;
    let ws = find_events (System.trace sys) "test.cycle_witness" in
    check_int
      (Printf.sprintf "cycle %d: every witness present exactly once" cycle)
      cycle (List.length ws);
    List.iteri
      (fun i (e : Trace.event) ->
        Alcotest.(check (option string))
          (Printf.sprintf "cycle %d: witness %d in order" cycle (i + 1))
          (Some (string_of_int (i + 1)))
          (List.assoc_opt "cycle" e.Trace.args))
      ws;
    let seqs = List.map (fun (e : Trace.event) -> e.Trace.seq) ws in
    check_bool "witness seqs strictly increasing" true (List.sort compare seqs = seqs);
    check_int "recovery index tracks cycles" cycle
      (Option.get (System.last_recovery sys)).Rto.r_index
  done;
  check_int "profiler counted every recovery" cycles (Rto.count (System.rto sys));
  (* the last flight capture holds all three witnesses, in order *)
  let r = Option.get (System.last_recovery sys) in
  let pre =
    List.filter (fun (e : Trace.event) -> e.Trace.name = "test.cycle_witness") r.Rto.r_pre_crash
  in
  check_int "flight capture has all witnesses" cycles (List.length pre);
  List.iteri
    (fun i (e : Trace.event) ->
      Alcotest.(check (option string))
        (Printf.sprintf "flight witness %d in order" (i + 1))
        (Some (string_of_int (i + 1)))
        (List.assoc_opt "cycle" e.Trace.args))
    pre

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "ring wraparound" `Quick ring_wraparound;
          Alcotest.test_case "span nesting" `Quick span_nesting;
          Alcotest.test_case "unknown span id ignored" `Quick unknown_span_ignored;
          Alcotest.test_case "abort marks open spans" `Quick abort_marks_open_spans;
        ] );
      ( "perfetto",
        [
          Alcotest.test_case "export is well-formed JSON" `Quick perfetto_json_wellformed;
          Alcotest.test_case "flow events" `Quick perfetto_flow_events;
          Alcotest.test_case "counter-track escaping" `Quick perfetto_counter_escaping;
        ] );
      ( "rtrace",
        [
          Alcotest.test_case "request lifecycle" `Quick rtrace_lifecycle;
          Alcotest.test_case "internal requests finalized" `Quick rtrace_internal_finalized;
          Alcotest.test_case "shed and crash-drop" `Quick rtrace_shed_and_crash;
          Alcotest.test_case "flows link requests to stw" `Quick rtrace_flows_end_to_end;
        ] );
      ("metrics", [ Alcotest.test_case "snapshot and reset" `Quick metrics_snapshot_reset ]);
      ( "system",
        [
          Alcotest.test_case "trace survives crash+restore" `Quick trace_survives_crash;
          Alcotest.test_case "spans reconcile with Report" `Quick reconcile_with_report;
          Alcotest.test_case "verbose tier gating" `Quick verbose_tier;
          Alcotest.test_case "disabled tracing is free" `Quick disabled_tracing_is_free;
        ] );
      ( "rto",
        [
          Alcotest.test_case "exclusive phase sum is exact" `Quick rto_phase_sum_exact;
          Alcotest.test_case "time to first request" `Quick rto_ttfr;
          Alcotest.test_case "flight export round-trips" `Quick rto_flight_roundtrip;
          Alcotest.test_case "trace ring survives 3 crash cycles" `Quick
            rto_ring_survives_cycles;
        ] );
    ]
