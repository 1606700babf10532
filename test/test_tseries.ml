(* The crash-surviving metrics time-series (black box), the SLO watchdog
   over it, and the adaptive checkpoint-interval controller it feeds:
   ring/query/export semantics of Tseries, rule parsing and evaluation of
   Slo, the control-loop invariants of Interval_ctl, and the end-to-end
   property the crashtest sweep also enforces — the sample spine stays
   consecutive, time-ordered and version-monotone across crash/restore. *)

module Tseries = Treesls_obs.Tseries
module Slo = Treesls_obs.Slo
module Probe = Treesls_obs.Probe
module Interval_ctl = Treesls_ckpt.Interval_ctl
module System = Treesls.System
module Kv_app = Treesls_apps.Kv_app
module Json = Treesls_util.Json

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let count_substring s sub =
  let n = String.length sub in
  let rec go i acc =
    if n = 0 || i + n > String.length s then acc
    else if String.sub s i n = sub then go (i + n) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

(* ---- Tseries: ring, queries, exports ---- *)

let record_and_query () =
  let ts = Tseries.create ~capacity:8 () in
  Tseries.record ts ~ts_ns:100 ~version:1 [ ("a", 10); ("b", 1) ];
  Tseries.record ts ~ts_ns:200 ~version:2 [ ("a", 20) ];
  Tseries.record ts ~ts_ns:300 ~version:3 [ ("a", 40); ("b", 3) ];
  check_int "total" 3 (Tseries.total ts);
  check_int "length" 3 (Tseries.length ts);
  check_int "two columns interned" 2 (Tseries.column_count ts);
  Alcotest.(check (list string)) "column order" [ "a"; "b" ] (Tseries.columns ts);
  let latest = Option.get (Tseries.latest ts) in
  check_int "latest seq" 2 latest.Tseries.sp_seq;
  check_int "latest version" 3 latest.Tseries.sp_version;
  Alcotest.(check (option int)) "value present" (Some 3) (Tseries.value ts latest "b");
  let middle = List.nth (Tseries.samples ts) 1 in
  Alcotest.(check (option int)) "absent cell is None" None (Tseries.value ts middle "b");
  Alcotest.(check (option int)) "unknown column is None" None (Tseries.value ts latest "zzz");
  Alcotest.(check (list int)) "series oldest-first" [ 10; 20; 40 ]
    (List.map snd (Tseries.series ts "a" ~n:3));
  Alcotest.(check (option int)) "delta over window" (Some 30) (Tseries.delta ts "a" ~n:3);
  (match Tseries.rate_per_s ts "a" ~n:3 with
  | Some r -> Alcotest.(check (float 1e-3)) "rate: 30 per 200ns" 1.5e8 r
  | None -> Alcotest.fail "rate_per_s");
  Alcotest.(check (option int)) "percentile_over p50" (Some 20)
    (Tseries.percentile_over ts "a" ~n:3 ~p:50.0);
  Alcotest.(check (option int)) "max_over" (Some 40) (Tseries.max_over ts "a" ~n:3);
  (match Tseries.mean_over ts "a" ~n:3 with
  | Some m -> Alcotest.(check (float 1e-9)) "mean_over" (70.0 /. 3.0) m
  | None -> Alcotest.fail "mean_over");
  match Tseries.ewma ts "a" ~alpha:0.5 with
  | Some e -> Alcotest.(check (float 1e-9)) "ewma oldest-first" 27.5 e
  | None -> Alcotest.fail "ewma"

let ring_wraparound () =
  let ts = Tseries.create ~capacity:4 () in
  for i = 0 to 9 do
    Tseries.record ts ~ts_ns:(i * 100) ~version:(i + 1) [ ("a", i) ]
  done;
  check_int "total keeps counting" 10 (Tseries.total ts);
  check_int "length capped" 4 (Tseries.length ts);
  check_int "dropped" 6 (Tseries.dropped ts);
  let seqs = List.map (fun s -> s.Tseries.sp_seq) (Tseries.samples ts) in
  Alcotest.(check (list int)) "oldest-first, contiguous" [ 6; 7; 8; 9 ] seqs;
  let w = List.map (fun s -> s.Tseries.sp_seq) (Tseries.window ts ~n:2) in
  Alcotest.(check (list int)) "window is the newest n" [ 8; 9 ] w

let fixed_column_budget () =
  let ts = Tseries.create ~capacity:4 ~max_cols:2 () in
  Tseries.record ts ~ts_ns:10 ~version:1 [ ("a", 1); ("b", 2); ("c", 3) ];
  check_int "columns capped" 2 (Tseries.column_count ts);
  check_bool "overflow counted" true (Tseries.cols_dropped ts > 0);
  let s = Option.get (Tseries.latest ts) in
  Alcotest.(check (option int)) "overflow column reads None" None (Tseries.value ts s "c");
  (* fixed-width slots: the backing PMO size never depends on data *)
  check_int "slot bytes" (8 * 5) (Tseries.slot_bytes ~max_cols:2);
  check_int "backing bytes" (4 * 8 * 5) (Tseries.backing_bytes ts)

let csv_export () =
  let ts = Tseries.create ~capacity:4 () in
  Tseries.record ts ~ts_ns:100 ~version:1 [ ("a", 10); ("b", 1) ];
  Tseries.record ts ~ts_ns:200 ~version:2 [ ("a", 20) ];
  check_string "header + absent cell empty" "seq,version,ts_ns,a,b\n0,1,100,10,1\n1,2,200,20,\n"
    (Tseries.to_csv ts)

let perfetto_counter_points () =
  let ts = Tseries.create ~capacity:3 () in
  for i = 0 to 4 do
    Tseries.record ts ~ts_ns:(i * 1000) ~version:(i + 1) [ ("x", i); ("y", i * 2) ]
  done;
  check_int "counter_points is retained length" 3 (Tseries.counter_points ts);
  let j = Tseries.to_perfetto_json ts in
  (* exactly one multi-value counter event per retained sample: exported
     points reconcile with the ring, never double-counting per column *)
  check_int "one ph:C event per sample" 3 (count_substring j "\"ph\":\"C\"");
  check_int "no per-column duplication" 3 (count_substring j "\"cat\":\"tseries\"");
  let samples = Json.member "samples" (Tseries.to_json ts) in
  check_int "json carries the same samples" 3
    (match samples with Some (Json.Arr l) -> List.length l | _ -> -1)

(* ---- Slo: rule grammar and evaluation ---- *)

let rule_roundtrip () =
  List.iter
    (fun text ->
      match Slo.rule_of_string text with
      | Ok r -> check_string "round-trips" text (Slo.rule_to_string r)
      | Error e -> Alcotest.failf "default rule %S failed to parse: %s" text e)
    Slo.default_rule_texts;
  (match Slo.rule_of_string "p99(enq2vis)<2*interval" with
  | Ok r ->
    check_string "whitespace normalised" "p99(enq2vis) < 2*interval" (Slo.rule_to_string r)
  | Error e -> Alcotest.failf "parse: %s" e);
  check_bool "garbage rejected" true (Result.is_error (Slo.rule_of_string "bogus <<"));
  check_bool "missing rhs rejected" true (Result.is_error (Slo.rule_of_string "waf <"))

let sample ts ~ts_ns ~version ~p99 ~waf ~dropped =
  Tseries.record ts ~ts_ns ~version
    [
      ("req.enq2vis.p99_ns", p99);
      ("req.enq2vis.n", 10);
      ("ckpt.nvm.waf", waf);
      ("extsync.ring.dropped", dropped);
    ]

let watchdog_eval () =
  let ts = Tseries.create () in
  let slo = Slo.create () in
  (* healthy sample: p99 under 2x interval, waf 2.5 < 3, no drop history
     yet (rate needs two samples -> skipped, not violated) *)
  sample ts ~ts_ns:1_000_000 ~version:1 ~p99:500_000 ~waf:250 ~dropped:0;
  let alerts = Slo.check slo ts ~interval_ns:(Some 1_000_000) in
  check_int "no alerts when healthy" 0 (List.length alerts);
  check_bool "healthy" true (Slo.healthy slo);
  (* violating sample: p99 3ms > 2x 1ms, waf 5.0 >= 3, drops ticking *)
  sample ts ~ts_ns:2_000_000 ~version:2 ~p99:3_000_000 ~waf:500 ~dropped:4;
  let alerts = Slo.check slo ts ~interval_ns:(Some 1_000_000) in
  check_int "all three rules fire" 3 (List.length alerts);
  check_bool "unhealthy" false (Slo.healthy slo);
  check_int "alerts retained" 3 (List.length (Slo.alerts slo));
  check_int "alerts_total" 3 (Slo.alerts_total slo);
  List.iter
    (fun (a : Slo.alert) ->
      check_int "alert stamped with the sample's version" 2 a.Slo.al_version;
      check_int "alert stamped with the sample's seq" 1 a.Slo.al_seq)
    alerts;
  (* the waf alias rescales the x100 gauge to the true ratio *)
  (match
     List.find_opt (fun (a : Slo.alert) -> a.Slo.al_rule = "waf < 3") (Slo.alerts slo)
   with
  | Some a ->
    Alcotest.(check (float 1e-9)) "waf value descaled" 5.0 a.Slo.al_value;
    Alcotest.(check (float 1e-9)) "waf bound" 3.0 a.Slo.al_bound
  | None -> Alcotest.fail "waf rule did not fire");
  (* unknown interval: the interval-relative rule is skipped, not fired *)
  sample ts ~ts_ns:3_000_000 ~version:3 ~p99:9_000_000 ~waf:100 ~dropped:4;
  let alerts = Slo.check slo ts ~interval_ns:None in
  check_int "interval rule skipped without an interval" 0 (List.length alerts)

let watchdog_no_data () =
  let ts = Tseries.create () in
  let slo = Slo.create () in
  check_int "empty tseries fires nothing" 0 (List.length (Slo.check slo ts ~interval_ns:None));
  check_int "but counts as a check" 1 (Slo.checks slo);
  check_bool "still healthy" true (Slo.healthy slo)

let watchdog_custom_rules () =
  let ts = Tseries.create () in
  let rule s = match Slo.rule_of_string s with Ok r -> r | Error e -> Alcotest.fail e in
  let slo = Slo.create ~rules:[ rule "stw < 10000" ] () in
  Tseries.record ts ~ts_ns:100 ~version:1 [ ("ckpt.stw_ns", 50_000) ];
  check_int "custom rule fires" 1 (List.length (Slo.check slo ts ~interval_ns:None));
  (match Slo.rule_report slo with
  | [ (text, evals, fires, Some _) ] ->
    check_string "report text" "stw < 10000" text;
    check_int "evals" 1 evals;
    check_int "fires" 1 fires
  | _ -> Alcotest.fail "rule_report shape");
  Slo.set_rules slo [ rule "stw < 100000" ];
  Tseries.record ts ~ts_ns:200 ~version:2 [ ("ckpt.stw_ns", 50_000) ];
  check_int "replaced rules evaluated" 0 (List.length (Slo.check slo ts ~interval_ns:None))

(* ---- Interval_ctl: control-loop invariants ---- *)

let ctl_cfg =
  {
    Interval_ctl.default_config with
    Interval_ctl.slo_p99_ns = 200_000;
    min_interval_ns = 100_000;
    max_interval_ns = 1_000_000;
  }

let busy ts ~p99 =
  Tseries.record ts ~ts_ns:0 ~version:1 [ ("req.enq2vis.n", 50); ("req.enq2vis.p99_ns", p99) ]

let controller_feedback () =
  (* overshoot: p99 2x the SLO -> shrink, bounded by the per-step rail *)
  let ctl = Interval_ctl.create ctl_cfg in
  let ts = Tseries.create () in
  busy ts ~p99:400_000;
  (match Interval_ctl.on_sample ctl ts ~drain_backlog:0 ~interval_ns:500_000 with
  | Some ns -> check_int "max shrink is halving" 250_000 ns
  | None -> Alcotest.fail "expected a retune");
  check_int "retune counted" 1 (Interval_ctl.retunes ctl);
  (* headroom: p99 at half the SLO -> grow *)
  let ctl = Interval_ctl.create ctl_cfg in
  let ts = Tseries.create () in
  busy ts ~p99:100_000;
  (match Interval_ctl.on_sample ctl ts ~drain_backlog:0 ~interval_ns:200_000 with
  | Some ns -> check_bool "grows on headroom" true (ns > 200_000 && ns <= 300_000)
  | None -> Alcotest.fail "expected growth");
  (* idle commit: released nothing -> fast back-off, clamped at the ceiling *)
  let ctl = Interval_ctl.create ctl_cfg in
  let ts = Tseries.create () in
  Tseries.record ts ~ts_ns:0 ~version:1 [ ("req.enq2vis.n", 0) ];
  (match Interval_ctl.on_sample ctl ts ~drain_backlog:0 ~interval_ns:800_000 with
  | Some ns -> check_int "idle growth clamps to max" 1_000_000 ns
  | None -> Alcotest.fail "expected idle growth");
  (* no sample yet -> no opinion *)
  let ctl = Interval_ctl.create ctl_cfg in
  check_bool "empty black box proposes nothing" true
    (Interval_ctl.on_sample ctl (Tseries.create ()) ~drain_backlog:0 ~interval_ns:500_000 = None)

let controller_pressure () =
  let ctl = Interval_ctl.create ctl_cfg in
  let th = ctl_cfg.Interval_ctl.pressure_threshold in
  (* a burst against a long idle interval clamps to the floor... *)
  (match Interval_ctl.on_pressure ctl ~drain_backlog:0 ~now_ns:1_000 ~pending:th ~interval_ns:1_000_000 with
  | Some ns -> check_int "clamps to the floor" 100_000 ns
  | None -> Alcotest.fail "expected the burst clamp");
  (* ...but only once: an immediate re-poll must not re-postpone the
     armed deadline (cooldown)... *)
  check_bool "cooldown blocks a re-fire" true
    (Interval_ctl.on_pressure ctl ~drain_backlog:0 ~now_ns:2_000 ~pending:(th * 2) ~interval_ns:1_000_000 = None);
  (* ...and once the interval sits near the floor the clamp stays off
     even after the cooldown (re-arm guard) *)
  check_bool "rearm guard near the floor" true
    (Interval_ctl.on_pressure ctl ~drain_backlog:0 ~now_ns:500_000 ~pending:(th * 2) ~interval_ns:150_000 = None);
  (* a later burst against a re-grown interval fires again *)
  (match Interval_ctl.on_pressure ctl ~drain_backlog:0 ~now_ns:900_000 ~pending:th ~interval_ns:900_000 with
  | Some _ -> ()
  | None -> Alcotest.fail "expected a second burst clamp");
  check_int "two clamps" 2 (Interval_ctl.pressure_clamps ctl);
  (* below threshold never fires *)
  check_bool "no pressure, no clamp" true
    (Interval_ctl.on_pressure ctl ~drain_backlog:0 ~now_ns:9_000_000 ~pending:(th - 1) ~interval_ns:1_000_000
    = None)

let controller_drain_hold () =
  (* overshoot while a drain backlog is outstanding: the controller must
     hold the interval (shrinking would re-enter the STW while copies are
     still owed), not shrink *)
  let ctl = Interval_ctl.create ctl_cfg in
  let ts = Tseries.create () in
  busy ts ~p99:400_000;
  check_bool "shrink suppressed while backlog nonzero" true
    (Interval_ctl.on_sample ctl ts ~drain_backlog:7 ~interval_ns:500_000 = None);
  check_int "held retune not counted" 0 (Interval_ctl.retunes ctl);
  (* ...but growth is still allowed: a longer interval only gives the
     drain more room *)
  let ctl = Interval_ctl.create ctl_cfg in
  let ts = Tseries.create () in
  busy ts ~p99:100_000;
  (match Interval_ctl.on_sample ctl ts ~drain_backlog:7 ~interval_ns:200_000 with
  | Some ns -> check_bool "growth allowed under backlog" true (ns > 200_000)
  | None -> Alcotest.fail "expected growth despite backlog");
  (* burst feedforward is likewise held while the backlog is nonzero *)
  let ctl = Interval_ctl.create ctl_cfg in
  let th = ctl_cfg.Interval_ctl.pressure_threshold in
  check_bool "pressure clamp held under backlog" true
    (Interval_ctl.on_pressure ctl ~drain_backlog:3 ~now_ns:1_000 ~pending:th
       ~interval_ns:1_000_000
    = None);
  (match
     Interval_ctl.on_pressure ctl ~drain_backlog:0 ~now_ns:2_000 ~pending:th
       ~interval_ns:1_000_000
   with
  | Some ns -> check_int "clamp fires once the backlog settles" 100_000 ns
  | None -> Alcotest.fail "expected the clamp after settle")

let controller_bad_config () =
  Alcotest.check_raises "inverted bounds rejected"
    (Invalid_argument "Interval_ctl.create: bad interval bounds") (fun () ->
      ignore
        (Interval_ctl.create
           { ctl_cfg with Interval_ctl.min_interval_ns = 10; max_interval_ns = 5 }))

(* ---- System: the spine survives crash/restore ---- *)

let spine_check samples =
  ignore
    (List.fold_left
       (fun prev (s : Tseries.sample) ->
         (match prev with
         | Some (p : Tseries.sample) ->
           check_int "seqs consecutive" (p.Tseries.sp_seq + 1) s.Tseries.sp_seq;
           check_bool "timestamps nondecreasing" true (s.Tseries.sp_ts_ns >= p.Tseries.sp_ts_ns);
           check_bool "versions strictly increasing" true
             (s.Tseries.sp_version > p.Tseries.sp_version)
         | None -> ());
         Some s)
       None samples)

let survives_crash () =
  let sys = System.boot ~interval_us:200 () in
  System.ensure_tseries_backing sys;
  let app = Kv_app.launch ~keys_hint:1_000 sys Kv_app.Memcached in
  for i = 0 to 399 do
    Kv_app.set_i app (i mod 1_000);
    ignore (System.tick sys)
  done;
  ignore (System.checkpoint sys);
  let ts = System.tseries sys in
  let total_before = Tseries.total ts in
  check_bool "samples recorded" true (total_before > 0);
  let last_before = Option.get (Tseries.latest ts) in
  (* every commit sampled the key derived signals *)
  check_bool "stw column present" true (Tseries.value ts last_before "ckpt.stw_ns" <> None);
  check_bool "watchdog ran at every commit" true
    (Slo.checks (System.slo sys) >= Tseries.total ts);
  ignore (System.crash_and_recover sys);
  Kv_app.refresh app;
  for i = 0 to 199 do
    Kv_app.set_i app (i mod 1_000);
    ignore (System.tick sys)
  done;
  ignore (System.checkpoint sys);
  check_bool "total is monotone across the crash" true (Tseries.total ts > total_before);
  spine_check (Tseries.samples ts);
  (* the pre-crash newest sample was not rewritten by recovery *)
  let retained =
    List.find_opt (fun s -> s.Tseries.sp_seq = last_before.Tseries.sp_seq) (Tseries.samples ts)
  in
  match retained with
  | Some s ->
    check_int "pre-crash sample version intact" last_before.Tseries.sp_version
      s.Tseries.sp_version;
    check_int "pre-crash sample timestamp intact" last_before.Tseries.sp_ts_ns
      s.Tseries.sp_ts_ns
  | None -> Alcotest.fail "pre-crash sample aged out of a 1024-slot ring unexpectedly"

let adaptive_feature_gate () =
  (* with the feature off (default), the controller never touches the
     interval even though samples flow *)
  let sys = System.boot ~interval_us:500 () in
  let app = Kv_app.launch ~keys_hint:100 sys Kv_app.Memcached in
  for i = 0 to 199 do
    Kv_app.set_i app (i mod 100);
    ignore (System.tick sys)
  done;
  ignore (System.checkpoint sys);
  check_int "no retunes with the feature off" 0
    (Interval_ctl.retunes (System.interval_ctl sys));
  check_int "no clamps with the feature off" 0
    (Interval_ctl.pressure_clamps (System.interval_ctl sys))

let () =
  Alcotest.run "tseries"
    [
      ( "tseries",
        [
          Alcotest.test_case "record and query" `Quick record_and_query;
          Alcotest.test_case "ring wraparound" `Quick ring_wraparound;
          Alcotest.test_case "fixed column budget" `Quick fixed_column_budget;
          Alcotest.test_case "csv export" `Quick csv_export;
          Alcotest.test_case "perfetto counter points reconcile" `Quick perfetto_counter_points;
        ] );
      ( "slo",
        [
          Alcotest.test_case "rule round-trip" `Quick rule_roundtrip;
          Alcotest.test_case "watchdog evaluation" `Quick watchdog_eval;
          Alcotest.test_case "no data is skipped" `Quick watchdog_no_data;
          Alcotest.test_case "custom rules" `Quick watchdog_custom_rules;
        ] );
      ( "interval_ctl",
        [
          Alcotest.test_case "feedback step" `Quick controller_feedback;
          Alcotest.test_case "pressure clamp fires once" `Quick controller_pressure;
          Alcotest.test_case "drain backlog holds the interval" `Quick controller_drain_hold;
          Alcotest.test_case "bad config" `Quick controller_bad_config;
        ] );
      ( "system",
        [
          Alcotest.test_case "spine survives crash/restore" `Quick survives_crash;
          Alcotest.test_case "adaptive feature gate" `Quick adaptive_feature_gate;
        ] );
    ]
