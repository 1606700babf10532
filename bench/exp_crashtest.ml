(* Systematic crash-schedule exploration (lib/crashtest) as a CI gate.

   Three sweeps:
   - the CLEAN sweep enumerates every crash point of the deterministic
     workload trace — journal commit points x all four Warea phases, every
     named checkpoint/restore crash site, DRAM loss between ops — injects
     each, recovers, and verifies (slsfsck audit, fingerprint equivalence
     with one crash-free reference run, liveness).  ANY failure exits 2 with the reproducer
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

   Every sweep runs over four trace seeds.  The full (non-smoke) run
   uses the CLI default trace and caps and must explore >= 200 distinct
   (commit point x phase) schedules per seed; --smoke (what `make ci`
   runs) uses ops 240 with the smallest caps that still reach a cut
   inside an async settle (commit 12, per site 4, op 4).  One row per
   seed, with the host milliseconds per schedule (p50, both sweeps) next
   to the schedule counts. *)

open Exp_common
module C = Treesls_crashtest.Crashtest
module Warea = Treesls_nvm.Warea

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("crashtest: " ^ m); exit 2) fmt

let min_commit_schedules_full = 200
let seeds = [ 42; 1; 2; 3 ]

(* One sweep, adding each schedule's host milliseconds to [ms]: a
   schedule runs from its progress call to the next one (or to the
   sweep's return). *)
let timed_sweep ms cfg =
  let last = ref None in
  let mark () =
    let now = Unix.gettimeofday () in
    Option.iter (fun t0 -> Stats.add ms ((now -. t0) *. 1e3)) !last;
    last := Some now
  in
  let sweep = C.run ~progress:(fun _ _ -> mark ()) cfg in
  mark ();
  sweep

(* Any failing schedule fails the build; its reproducer names the mode. *)
let fail_on cfg (sweep : C.sweep) =
  List.iter
    (fun (r : C.result) ->
      Printf.eprintf "crashtest: FAIL %s: %s\n" (C.reproducer cfg r.C.point)
        (C.outcome_to_string r.C.outcome))
    sweep.C.failed;
  if sweep.C.failed <> [] then
    die "%d of %d schedules failed" (List.length sweep.C.failed) (List.length sweep.C.results)

let run_seed seed =
  let cfg =
    if !smoke then
      { C.default_config with C.seed; ops = 240; commit_cap = 12; per_site_cap = 4; op_cap = 4 }
    else { C.default_config with C.seed }
  in
  (* clean sweep: everything must pass *)
  let ms = Stats.create () in
  let sweep = timed_sweep ms cfg in
  fail_on cfg sweep;
  if (not !smoke) && sweep.C.commit_schedules < min_commit_schedules_full then
    die "seed %d: only %d commit-point x phase schedules explored (need >= %d)" seed
      sweep.C.commit_schedules min_commit_schedules_full;
  (* async-drain sweep: same exploration with the split-capture checkpoint
     on (drain batch 1) — windows stay pending across ops, so the
     schedule space now includes crashes mid-drain, at settle, and inside
     the CoW fault resolution, plus restore's drain_settle reconciliation *)
  let async_cfg = { cfg with C.async = true } in
  let async_sweep = timed_sweep ms async_cfg in
  fail_on async_cfg async_sweep;
  (* the drain path must actually have been exercised: all three of its
     named crash sites fire during enumeration, and each was injected *)
  List.iter
    (fun site ->
      match List.assoc_opt site async_sweep.C.site_hits with
      | Some n when n > 0 -> ()
      | _ -> die "seed %d: async sweep never reached crash site %s" seed site)
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
    die "seed %d self-test: the deliberate mid_apply recovery bug went undetected" seed;
  List.iter
    (fun (r : C.result) ->
      match r.C.point with
      | C.Commit (_, Warea.Mid_apply) -> ()
      | p -> die "self-test: bug misattributed to schedule %s" (C.point_to_string p))
    bug_sweep.C.failed;
  let sched_ms = Stats.p50 ms in
  let row name (sw : C.sweep) =
    [
      name;
      string_of_int seed;
      string_of_int sw.C.commit_points;
      string_of_int (List.length sw.C.results);
      string_of_int sw.C.commit_schedules;
      string_of_int sw.C.passed;
      string_of_int (List.length sw.C.failed);
    ]
  in
  emit_row
    ~config:[ ("ops", string_of_int cfg.C.ops); ("seed", string_of_int seed) ]
    ~metrics:
      [
        ("commit_points", float_of_int sweep.C.commit_points);
        ("schedules", float_of_int (List.length sweep.C.results));
        ("commit_phase_schedules", float_of_int sweep.C.commit_schedules);
        ("passed", float_of_int sweep.C.passed);
        ("failed", float_of_int (List.length sweep.C.failed));
        ("async_schedules", float_of_int (List.length async_sweep.C.results));
        ("async_failed", float_of_int (List.length async_sweep.C.failed));
        ("selftest_caught", float_of_int (List.length bug_sweep.C.failed));
        ("sched_host_ms_p50", Float.round (sched_ms *. 100.) /. 100.);
      ];
  ( [ row "clean" sweep; row "async-drain" async_sweep; row "recovery-bug self-test" bug_sweep ],
    sched_ms )

let run () =
  let results = List.map run_seed seeds in
  Table.print
    ~title:"Crash-schedule exploration (enumerate -> inject -> recover -> verify)"
    ~header:[ "sweep"; "seed"; "commit points"; "schedules"; "commit x phase"; "passed"; "failed" ]
    (List.concat_map fst results);
  List.iter2
    (fun seed (_, ms) -> Printf.printf "seed %d: %.2f host ms per schedule (p50)\n" seed ms)
    seeds results
