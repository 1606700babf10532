(* Tests for the crash-schedule explorer (lib/crashtest): clean and
   async sweeps over eight trace seeds must pass everywhere, the settle
   cut they once caught replays as its own case, the crash-free reference
   the sweeps judge against agrees with crash+recover at every version,
   and a deliberately re-introduced journal recovery bug must be caught —
   the acceptance demonstration that the harness actually detects real
   recovery defects. *)

module C = Treesls_crashtest.Crashtest
module System = Treesls.System
module Manager = Treesls_ckpt.Manager
module Warea = Treesls_nvm.Warea

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Small but representative: every phase, every site class, bounded caps.
   Kept well under the CLI/bench default so `dune runtest` stays quick. *)
let small_config =
  {
    C.default_config with
    C.ops = 40;
    commit_cap = 6;
    per_site_cap = 2;
    op_cap = 3;
  }

(* The wide sweeps: ops 240 over eight trace seeds.  The caps are the
   smallest that still reach the settle-cut schedule below (a per-site
   cap of 3 samples past it). *)
let sweep_seeds = [ 42; 1; 2; 3; 5; 7; 11; 13 ]

let sweep_config ~async seed =
  {
    C.default_config with
    C.seed;
    ops = 240;
    commit_cap = 12;
    per_site_cap = 4;
    op_cap = 4;
    async;
  }

(* Every passing schedule seals an RTO record with an exact phase sum, and
   the merged restore.* histograms carry one sample per recovery. *)
let check_recoveries (sweep : C.sweep) =
  let module Rto = Treesls_obs.Rto in
  let recoveries = ref 0 in
  List.iter
    (fun (r : C.result) ->
      match r.C.recovery with
      | None -> Alcotest.failf "passing schedule %s has no recovery" (C.point_to_string r.C.point)
      | Some rc ->
        incr recoveries;
        check_bool "recovery total positive" true (rc.Rto.r_total_ns > 0);
        check_int "phase sum exact" rc.Rto.r_total_ns
          (List.fold_left (fun a (_, ns) -> a + ns) 0 rc.Rto.r_phases + rc.Rto.r_untracked_ns))
    sweep.C.results;
  check_bool "rto_stats populated" true (sweep.C.rto_stats <> []);
  match List.assoc_opt "restore.total_ns" sweep.C.rto_stats with
  | None -> Alcotest.fail "restore.total_ns missing from rto_stats"
  | Some h -> check_int "one sample per recovery" !recoveries (Treesls_util.Histogram.count h)

let check_sweep (sweep : C.sweep) =
  let cfg = sweep.C.config in
  check_bool "some journal commit points found" true (sweep.C.commit_points > 0);
  check_bool "some commit schedules ran" true (sweep.C.commit_schedules > 0);
  check_bool "checkpoint sites were hit" true (sweep.C.site_hits <> []);
  List.iter
    (fun (r : C.result) ->
      Printf.printf "FAIL %s: %s\n" (C.reproducer cfg r.C.point) (C.outcome_to_string r.C.outcome))
    sweep.C.failed;
  check_int "no failures" 0 (List.length sweep.C.failed);
  check_int "all schedules passed" (List.length sweep.C.results) sweep.C.passed;
  check_recoveries sweep

let clean_sweep () =
  List.iter (fun seed -> check_sweep (C.run (sweep_config ~async:false seed))) sweep_seeds

let async_sweep () =
  List.iter
    (fun seed ->
      let sweep = C.run (sweep_config ~async:true seed) in
      check_sweep sweep;
      (* the drain path was exercised, not just enabled *)
      List.iter
        (fun site ->
          check_bool (Printf.sprintf "seed %d reached %s" seed site) true
            (List.mem_assoc site sweep.C.site_hits))
        [ "ckpt.drain.copied"; "ckpt.drain.settled"; "ckpt.cow_fault.resolved" ])
    sweep_seeds

(* A cut at an async window's settle must recover to exactly N-1 or N.
   This schedule fails (fingerprint mismatch @v5) when the settle frees
   N-1's backups before the version bump lands. *)
let settle_cut_regression () =
  let repro = "seed=2;ops=240;mode=async;site:ckpt.drain.settled:3" in
  match C.parse_reproducer repro with
  | None -> Alcotest.failf "reproducer did not parse: %s" repro
  | Some (cfg, point) ->
    check_bool "replays async" true cfg.C.async;
    Alcotest.(check string) repro "passed" (C.outcome_to_string (C.run_one cfg point))

(* The recovered version and fingerprint of a system that replays the
   trace up to the instant version [g] commits, then crashes and
   recovers.  The stop is at the commit itself, not between ops: one
   checkpoint call can commit two versions back to back (the forced
   settle of the pending window, then the new window when its backlog is
   empty).  Raising from the commit callback abandons only volatile
   post-commit work, which the crash loses anyway.  A [g] the trace never
   commits is left to the final checkpoint. *)
exception Committed

let crash_recover_at (cfg : C.config) g =
  let sys = C.boot cfg in
  (try
     Manager.on_checkpoint (System.manager sys) (fun () ->
         if System.version sys >= g then raise Committed);
     ignore (System.checkpoint sys);
     C.replay sys (C.gen_trace ~seed:cfg.C.seed ~ops:cfg.C.ops) ~on_op:ignore ~on_ckpt:ignore;
     System.drain_settle sys;
     ignore (System.checkpoint sys);
     System.drain_settle sys
   with Committed -> ());
  ignore (System.crash_and_recover sys);
  (System.version sys, C.fingerprint sys)

(* The reference records each version's state as its pause ends, with no
   crash involved; recovery to that version must reproduce it exactly, in
   both modes (async versions commit ops after their pause). *)
let reference_matches_crash_recover () =
  List.iter
    (fun async ->
      let cfg = sweep_config ~async 42 in
      let reference = C.reference cfg in
      check_bool "reference covers the trace's checkpoints" true (List.length reference > 10);
      List.iter
        (fun (g, fp) ->
          let name = Printf.sprintf "%s v%d" (if async then "async" else "eager") g in
          let g', fp' = crash_recover_at cfg g in
          check_int (name ^ " recovered version") g g';
          check_bool (name ^ " fingerprint") true (fp = fp'))
        reference)
    [ false; true ]

(* Acceptance demo: re-introduce the classic journal-replay bug (recovery
   skips the redo), and the sweep MUST report failures — specifically on
   mid_apply schedules, the only phase whose recovery depends on the redo
   replaying a complete record over half-applied words. *)
let recovery_bug_caught () =
  let cfg =
    {
      small_config with
      C.recovery_bug = true;
      (* commit-point schedules are where the journal bug lives *)
      include_sites = false;
      include_op_crashes = false;
      commit_cap = 12;
    }
  in
  let sweep = C.run cfg in
  check_bool "sweep caught the recovery bug" true (List.length sweep.C.failed > 0);
  List.iter
    (fun (r : C.result) ->
      match r.C.point with
      | C.Commit (_, Warea.Mid_apply) -> ()
      | p ->
        Alcotest.failf "non-mid_apply schedule failed: %s (%s)" (C.point_to_string p)
          (C.outcome_to_string r.C.outcome))
    sweep.C.failed

let single_schedule_replay () =
  (* any commit point in the window replays deterministically *)
  let out = C.run_one small_config (C.Commit (3, Warea.Mid_apply)) in
  check_bool "replayed schedule passes" true (C.outcome_is_pass out)

let reproducer_roundtrip () =
  List.iter
    (fun cfg ->
      List.iter
        (fun p ->
          let s = C.reproducer cfg p in
          match C.parse_reproducer s with
          | Some (cfg', p') ->
            check_int "seed" cfg.C.seed cfg'.C.seed;
            check_int "ops" cfg.C.ops cfg'.C.ops;
            check_bool "mode" cfg.C.async cfg'.C.async;
            Alcotest.(check string) "point" (C.point_to_string p) (C.point_to_string p')
          | None -> Alcotest.failf "reproducer did not parse: %s" s)
        [
          C.Commit (57, Warea.Mid_apply);
          C.Site ("ckpt.publish", 2);
          C.Restore_site ("restore.begin", 9);
          C.Op_crash 14;
        ])
    [ small_config; { small_config with C.async = true } ];
  (* strings from before the mode field replay eager *)
  (match C.parse_reproducer "seed=42;ops=280;commit:57:mid_apply" with
  | Some (cfg, C.Commit (57, Warea.Mid_apply)) ->
    check_bool "three-field string is eager" false cfg.C.async;
    check_int "seed" 42 cfg.C.seed;
    check_int "ops" 280 cfg.C.ops
  | _ -> Alcotest.fail "three-field reproducer did not parse");
  List.iter
    (fun s -> check_bool s true (C.parse_reproducer s = None))
    [ "seed=2;ops=240;mode=lazy;op:3"; "seed=2;ops=240;async;op:3"; "seed=2;mode=async;op:3" ]

let point_string_rejects_garbage () =
  List.iter
    (fun s -> check_bool s true (C.point_of_string s = None))
    [ ""; "commit:x:mid_apply"; "commit:3:nope"; "site:only_one"; "op:NaN"; "weird:1:2" ]

let shrink_finds_smaller_failure () =
  let cfg = { small_config with C.recovery_bug = true } in
  (* find one failing mid_apply schedule, then shrink its trace prefix *)
  let sweep =
    C.run { cfg with C.include_sites = false; include_op_crashes = false; commit_cap = 12 }
  in
  match sweep.C.failed with
  | [] -> Alcotest.fail "expected a failure to shrink"
  | r :: _ ->
    let cfg' = C.shrink cfg r.C.point in
    check_bool "prefix no longer than original" true (cfg'.C.ops <= cfg.C.ops);
    check_bool "shrunk config still fails" true
      (not (C.outcome_is_pass (C.run_one cfg' r.C.point)))

(* With the recovery bug on, commit point 8 fails at ops 40 but lies past
   the end of short prefixes: a prefix that never reaches it replays as
   did-not-fire, which must not count as reproducing the failure. *)
let shrink_keeps_the_crash_firing () =
  let cfg = { small_config with C.recovery_bug = true } in
  let point = C.Commit (8, Warea.Mid_apply) in
  check_bool "fails at full length" false (C.outcome_is_pass (C.run_one cfg point));
  let cfg' = C.shrink cfg point in
  let out = C.run_one cfg' point in
  Alcotest.(check string) "shrunk schedule still fires" "fails"
    (match out with C.Passed -> "passes" | C.Did_not_fire -> "did-not-fire" | _ -> "fails");
  check_bool "shrunk prefix no longer than original" true (cfg'.C.ops <= cfg.C.ops)

let () =
  Alcotest.run "crashtest"
    [
      ( "sweep",
        [
          Alcotest.test_case "clean sweep has zero failures" `Slow clean_sweep;
          Alcotest.test_case "async sweep has zero failures" `Slow async_sweep;
          Alcotest.test_case "settle cut recovers to N-1 or N" `Quick settle_cut_regression;
          Alcotest.test_case "reference equals crash+recover at every version" `Quick
            reference_matches_crash_recover;
          Alcotest.test_case "deliberate recovery bug is caught" `Slow recovery_bug_caught;
          Alcotest.test_case "single schedule replay" `Quick single_schedule_replay;
        ] );
      ( "reproducers",
        [
          Alcotest.test_case "roundtrip" `Quick reproducer_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick point_string_rejects_garbage;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "shrinks a failing schedule" `Slow shrink_finds_smaller_failure;
          Alcotest.test_case "shrinks only to prefixes that fire" `Slow
            shrink_keeps_the_crash_firing;
        ] );
    ]
