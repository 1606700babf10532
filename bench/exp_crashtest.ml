(* Systematic crash-schedule exploration (lib/crashtest) as a CI gate.

   Three sweeps:
   - the CLEAN sweep enumerates every crash point of the deterministic
     workload trace — journal commit points x all four Warea phases, every
     named checkpoint/restore crash site, DRAM loss between ops — injects
     each, recovers, and verifies (slsfsck audit, twin-fingerprint
     equivalence, liveness).  ANY failure exits 2 with the reproducer
     string, failing the build.
   - the ASYNC sweep repeats the exploration with the asynchronous drain on
     (drain batch 1): checkpoints stage a window that settles
     over the following ops, so the schedule space gains mid-drain crashes
     (ckpt.drain.copied / ckpt.drain.settled / ckpt.cow_fault.resolved)
     and restore's drain_settle reconciliation.  All three drain sites
     must actually fire, and every schedule must pass.
   - the SELF-TEST sweep re-introduces the classic journal-replay bug
     ([Warea.set_recovery_bug]) and must catch it on mid_apply schedules —
     proving the harness detects real recovery defects, not just running
     them.

   The full (non-smoke) run must explore >= 200 distinct (commit point x
   phase) schedules; --smoke shrinks the trace for `make ci`. *)

open Exp_common
module C = Treesls_crashtest.Crashtest
module Warea = Treesls_nvm.Warea

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("crashtest: " ^ m); exit 2) fmt

let min_commit_schedules_full = 200

let run () =
  let cfg =
    if !smoke then { C.default_config with C.ops = 60; commit_cap = 40; per_site_cap = 3; op_cap = 6 }
    else C.default_config
  in
  (* clean sweep: everything must pass *)
  let sweep = C.run cfg in
  List.iter
    (fun (r : C.result) ->
      Printf.eprintf "crashtest: FAIL %s: %s\n" (C.reproducer cfg r.C.point)
        (C.outcome_to_string r.C.outcome))
    sweep.C.failed;
  if sweep.C.failed <> [] then
    die "%d of %d schedules failed" (List.length sweep.C.failed) (List.length sweep.C.results);
  if (not !smoke) && sweep.C.commit_schedules < min_commit_schedules_full then
    die "only %d commit-point x phase schedules explored (need >= %d)" sweep.C.commit_schedules
      min_commit_schedules_full;
  (* async-drain sweep: same exploration with the split-capture checkpoint
     on (drain batch 1) — windows stay pending across ops, so the
     schedule space now includes crashes mid-drain, at settle, and inside
     the CoW fault resolution, plus restore's drain_settle reconciliation *)
  let async_cfg = { cfg with C.async = true } in
  let async_sweep = C.run async_cfg in
  List.iter
    (fun (r : C.result) ->
      Printf.eprintf "crashtest(async): FAIL %s: %s\n" (C.reproducer async_cfg r.C.point)
        (C.outcome_to_string r.C.outcome))
    async_sweep.C.failed;
  if async_sweep.C.failed <> [] then
    die "async sweep: %d of %d schedules failed"
      (List.length async_sweep.C.failed)
      (List.length async_sweep.C.results);
  (* the drain path must actually have been exercised: all three of its
     named crash sites fire during enumeration, and each was injected *)
  List.iter
    (fun site ->
      match List.assoc_opt site async_sweep.C.site_hits with
      | Some n when n > 0 -> ()
      | _ -> die "async sweep never reached crash site %s" site)
    [ "ckpt.drain.copied"; "ckpt.drain.settled"; "ckpt.cow_fault.resolved" ];
  (* self-test: the deliberately broken journal replay must be caught *)
  let bug_cfg =
    {
      cfg with
      C.recovery_bug = true;
      include_sites = false;
      include_op_crashes = false;
      ops = min cfg.C.ops 60;
      commit_cap = 12;
    }
  in
  let bug_sweep = C.run bug_cfg in
  if bug_sweep.C.failed = [] then
    die "self-test: the deliberate mid_apply recovery bug went undetected";
  List.iter
    (fun (r : C.result) ->
      match r.C.point with
      | C.Commit (_, Warea.Mid_apply) -> ()
      | p -> die "self-test: bug misattributed to schedule %s" (C.point_to_string p))
    bug_sweep.C.failed;
  let total = List.length sweep.C.results in
  Table.print
    ~title:"Crash-schedule exploration (enumerate -> inject -> recover -> verify)"
    ~header:[ "sweep"; "commit points"; "schedules"; "commit x phase"; "passed"; "failed" ]
    [
      [
        "clean";
        string_of_int sweep.C.commit_points;
        string_of_int total;
        string_of_int sweep.C.commit_schedules;
        string_of_int sweep.C.passed;
        string_of_int (List.length sweep.C.failed);
      ];
      [
        "async-drain";
        string_of_int async_sweep.C.commit_points;
        string_of_int (List.length async_sweep.C.results);
        string_of_int async_sweep.C.commit_schedules;
        string_of_int async_sweep.C.passed;
        string_of_int (List.length async_sweep.C.failed);
      ];
      [
        "recovery-bug self-test";
        string_of_int bug_sweep.C.commit_points;
        string_of_int (List.length bug_sweep.C.results);
        string_of_int bug_sweep.C.commit_schedules;
        string_of_int bug_sweep.C.passed;
        string_of_int (List.length bug_sweep.C.failed);
      ];
    ];
  emit_row
    ~config:[ ("ops", string_of_int cfg.C.ops); ("seed", string_of_int cfg.C.seed) ]
    ~metrics:
      [
        ("commit_points", float_of_int sweep.C.commit_points);
        ("schedules", float_of_int total);
        ("commit_phase_schedules", float_of_int sweep.C.commit_schedules);
        ("passed", float_of_int sweep.C.passed);
        ("failed", float_of_int (List.length sweep.C.failed));
        ("async_schedules", float_of_int (List.length async_sweep.C.results));
        ("async_failed", float_of_int (List.length async_sweep.C.failed));
        ("selftest_caught", float_of_int (List.length bug_sweep.C.failed));
      ]
