(* Tests for the crash-schedule explorer (lib/crashtest): clean and
   async sweeps over eleven trace seeds must pass everywhere, with every
   restore crash site cutting some recovery; the settle and demotion cuts
   they once caught replay as their own cases; a cut during recovery is a
   real second power cut; the crash-free reference the sweeps judge
   against agrees with crash+recover at every version; and a deliberately
   re-introduced journal recovery bug must be caught —
   the acceptance demonstration that the harness actually detects real
   recovery defects. *)

module C = Treesls_crashtest.Crashtest
module System = Treesls.System
module Manager = Treesls_ckpt.Manager
module Warea = Treesls_nvm.Warea
module Store = Treesls_nvm.Store
module Crash_site = Treesls_nvm.Crash_site
module Restore = Treesls_ckpt.Restore
module Kv_app = Treesls_apps.Kv_app

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

(* The wide sweeps: ops 240 over eleven trace seeds.  The caps are the
   smallest that still reach the settle-cut schedule below (a per-site
   cap of 3 samples past it). *)
let sweep_seeds = [ 42; 1; 2; 3; 5; 7; 11; 13; 17; 19; 23 ]

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
  check_recoveries sweep;
  (* a last-hit schedule cuts after the recovery's last materialised
     object, which every recovery reaches *)
  List.iter
    (fun (r : C.result) ->
      match (r.C.point, r.C.outcome) with
      | C.Restore_site (_, _, C.Last), C.Did_not_fire -> ()
      | C.Restore_site (_, _, C.Last), _ ->
        check_bool (C.reproducer cfg r.C.point ^ " cut the recovery") true r.C.recovery_cut
      | _ -> ())
    sweep.C.results

(* Every restore site must actually cut recoveries across the seeds: a
   site that is never reached passes its schedules without testing
   anything.  Prints how many of each site's schedules cut. *)
let check_restore_cuts ~mode cuts =
  List.iter
    (fun site ->
      let n, cut =
        List.fold_left
          (fun (n, cut) (s, n', cut') -> if s = site then (n + n', cut + cut') else (n, cut))
          (0, 0) cuts
      in
      Printf.printf "%s: %s cut %d of %d recoveries\n" mode site cut n;
      check_bool (Printf.sprintf "%s: %s cut a recovery" mode site) true (cut > 0))
    C.restore_sites

let clean_sweep () =
  List.concat_map
    (fun seed ->
      let sweep = C.run (sweep_config ~async:false seed) in
      check_sweep sweep;
      C.restore_cuts sweep)
    sweep_seeds
  |> check_restore_cuts ~mode:"eager"

let async_sweep () =
  List.concat_map
    (fun seed ->
      let sweep = C.run (sweep_config ~async:true seed) in
      check_sweep sweep;
      (* the drain path was exercised, not just enabled *)
      List.iter
        (fun site ->
          check_bool (Printf.sprintf "seed %d reached %s" seed site) true
            (List.mem_assoc site sweep.C.site_hits))
        [ "ckpt.drain.copied"; "ckpt.drain.settled"; "ckpt.cow_fault.resolved" ];
      C.restore_cuts sweep)
    sweep_seeds
  |> check_restore_cuts ~mode:"async"

let pinned_schedule_passes ~async repro =
  match C.parse_reproducer repro with
  | None -> Alcotest.failf "reproducer did not parse: %s" repro
  | Some (cfg, point) ->
    check_bool "replay mode" async cfg.C.async;
    Alcotest.(check string) repro "passed" (C.outcome_to_string (C.run_one cfg point))

(* A cut at an async window's settle must recover to exactly N-1 or N.
   This schedule fails (fingerprint mismatch @v5) when the settle frees
   N-1's backups before the version bump lands. *)
let settle_cut_regression () =
  pinned_schedule_passes ~async:true "seed=2;ops=240;mode=async;site:ckpt.drain.settled:3"

(* Hybrid copy's DRAM-to-NVM demotion points the radix at the NVM page
   before the page record lets go of it.  In the other order a cut
   between the two left the radix naming the lost DRAM frame, and restore
   fell back to an older backup: fingerprint mismatch vs reference @v22. *)
let demotion_cut_regression () =
  pinned_schedule_passes ~async:false "seed=42;ops=240;mode=eager;site:ckpt.hybrid.demoting:1"

(* A cut during recovery is a second power cut: DRAM and every volatile
   structure die again before recovery starts over, so the victim takes
   two crashes (a retry that skipped [System.crash] took one).  Both
   belong to one outage: the sealed record keeps the first cut's
   instant, the one the same trace's plain DRAM-loss schedule records,
   and its downtime runs from there, across the failed attempt, to the
   end of the attempt that succeeded. *)
let recovery_cut_is_a_power_cut () =
  let module Rto = Treesls_obs.Rto in
  let cfg = sweep_config ~async:false 42 in
  (* a cut after op 230 leaves frames for the reconciliation to free *)
  let k = 230 in
  let run point =
    match C.run_one_profiled cfg point with
    | ({ C.outcome = C.Passed; recovery = Some r; _ } as res), _ -> (res, r)
    | res, _ -> Alcotest.failf "%s: %s" (C.reproducer cfg point) (C.outcome_to_string res.C.outcome)
  in
  let plain, first = run (C.Op_crash k) in
  check_int "a DRAM-loss schedule is one power cut" 1 plain.C.crashes;
  List.iter
    (fun point ->
      let site = C.point_to_string point in
      let res, r = run point in
      check_bool (site ^ " cut the recovery") true res.C.recovery_cut;
      check_int (site ^ ": two power cuts") 2 res.C.crashes;
      check_int (site ^ ": crash instant is the first cut") first.Rto.r_crash_ns r.Rto.r_crash_ns;
      check_bool (site ^ ": the failed attempt ran before the sealed one") true
        (r.Rto.r_begin_ns > r.Rto.r_crash_ns);
      check_int (site ^ ": downtime runs from the first cut") (r.Rto.r_end_ns - r.Rto.r_crash_ns)
        r.Rto.r_downtime_ns;
      check_bool (site ^ ": downtime longer than the plain cut's") true
        (r.Rto.r_downtime_ns > first.Rto.r_downtime_ns))
    [
      C.Restore_site ("restore.materialized", k, C.First);
      C.Restore_site ("restore.materialized", k, C.Last);
      C.Restore_site ("restore.swapped", k, C.First);
      C.Restore_site ("restore.reclaimed", k, C.First);
    ]

(* A last-hit schedule arms [restore.materialized] at the count
   [Restore.objects_to_materialize] gives right after the cut: that must
   be exactly the recovery's last hit, so the site fires there and not one
   hit later.  Restore is re-entrant, so one victim answers both: a cut at
   the count, then a recovery armed one past it that completes and
   materialises exactly that many objects.  Async: the cut leaves a drain
   window pending, whose staged objects the recovery must not count. *)
let materialize_count_is_the_last_hit () =
  List.iter
    (fun async ->
      let sys = System.boot () in
      if async then begin
        let mgr = System.manager sys in
        (Manager.features mgr).Treesls_ckpt.State.async_drain <- true;
        Manager.set_drain_batch mgr 1
      end;
      let app = Kv_app.launch ~keys_hint:2_000 sys Kv_app.Memcached in
      for i = 0 to 99 do
        Kv_app.set_i app i;
        if i mod 25 = 24 then ignore (System.checkpoint sys)
      done;
      Kv_app.set_i app 100;
      ignore (System.checkpoint sys);
      if async then
        check_bool "a drain window is pending at the cut" true
          (Manager.drain_pending_version (System.manager sys) <> None);
      let sites = Store.crash_sites (System.store sys) in
      let count () = Restore.objects_to_materialize (Manager.state (System.manager sys)) in
      System.crash sys;
      let n = count () in
      Crash_site.arm sites ~site:"restore.materialized" ~nth:n;
      check_bool "the count's hit fires" true
        (match System.recover sys with _ -> false | exception Warea.Crashed _ -> true);
      Crash_site.reset sites;
      System.crash sys;
      check_int "the count is unchanged by the cut" n (count ());
      Crash_site.arm sites ~site:"restore.materialized" ~nth:(n + 1);
      let r = System.recover sys in
      Crash_site.reset sites;
      check_int "the recovery materialises that many objects" n
        r.Restore.restored_objects)
    [ false; true ]

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
          C.Restore_site ("restore.begin", 9, C.First);
          C.Restore_site ("restore.materialized", 9, C.Last);
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
  (* restore-site strings from before the hit field cut at the first hit *)
  (match C.parse_reproducer "seed=42;ops=240;mode=eager;restore:restore.materialized:9" with
  | Some (_, C.Restore_site ("restore.materialized", 9, C.First)) -> ()
  | _ -> Alcotest.fail "restore-site reproducer without a hit did not parse as the first hit");
  List.iter
    (fun s -> check_bool s true (C.parse_reproducer s = None))
    [ "seed=2;ops=240;mode=lazy;op:3"; "seed=2;ops=240;async;op:3"; "seed=2;mode=async;op:3" ]

let point_string_rejects_garbage () =
  List.iter
    (fun s -> check_bool s true (C.point_of_string s = None))
    [
      "";
      "commit:x:mid_apply";
      "commit:3:nope";
      "site:only_one";
      "op:NaN";
      "weird:1:2";
      "restore:restore.begin:3:last";
      "restore:restore.materialized:3:first";
    ]

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
          Alcotest.test_case "demotion cut recovers" `Quick demotion_cut_regression;
          Alcotest.test_case "a cut during recovery is a power cut" `Quick
            recovery_cut_is_a_power_cut;
          Alcotest.test_case "reference equals crash+recover at every version" `Quick
            reference_matches_crash_recover;
          Alcotest.test_case "deliberate recovery bug is caught" `Slow recovery_bug_caught;
          Alcotest.test_case "single schedule replay" `Quick single_schedule_replay;
          Alcotest.test_case "materialize count is the last hit" `Quick
            materialize_count_is_the_last_hit;
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
