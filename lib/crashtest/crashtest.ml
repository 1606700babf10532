module System = Treesls.System
module Kernel = Treesls_kernel.Kernel
module Ipc = Treesls_kernel.Ipc
module Kobj = Treesls_cap.Kobj
module Radix = Treesls_cap.Radix
module Store = Treesls_nvm.Store
module Warea = Treesls_nvm.Warea
module Crash_site = Treesls_nvm.Crash_site
module Snapshot = Treesls_ckpt.Snapshot
module Manager = Treesls_ckpt.Manager
module Restore = Treesls_ckpt.Restore
module Report = Treesls_ckpt.Report
module Net_server = Treesls_extsync.Net_server
module Audit = Treesls_audit.Audit
module Probe = Treesls_obs.Probe
module Metrics = Treesls_obs.Metrics
module Rto = Treesls_obs.Rto
module Rng = Treesls_util.Rng
module Histogram = Treesls_util.Histogram

(* ---- deterministic workload trace ------------------------------------ *)

type op =
  | Notify of int
  | Wait of int
  | Touch of int
  | Write of int
  | Spawn
  | Exit of int
  | Grow
  | Ckpt

let gen_trace ~seed ~ops =
  let rng = Rng.create (Int64.of_int seed) in
  List.init ops (fun _ ->
      (* Biased towards allocator churn (Spawn/Exit/Grow): each of those
         runs buddy-alloc/free journal transactions, and journal commit
         points are the densest crash-schedule axis. *)
      match Rng.int rng 16 with
      | 0 | 1 -> Notify (Rng.int rng 1000)
      | 2 | 3 -> Wait (Rng.int rng 1000)
      | 4 | 5 | 6 -> Touch (Rng.int rng 1000)
      | 7 | 8 -> Write (Rng.int rng 1000)
      | 9 | 10 -> Spawn
      | 11 | 12 -> Exit (Rng.int rng 1000)
      | 13 | 14 -> Grow
      | _ -> Ckpt)

exception Stop

(* The two named extsync rings the trace drives.  Deliberately the SAME
   geometry: after a crash they are distinguishable only by the name
   persisted in their headers, which is exactly the reattach path under
   test.  Tiny, so the trace sheds and wraps them constantly. *)
let ct_ring_a = "ct.a"
let ct_ring_b = "ct.b"
let ct_ring_slots = 4
let ct_ring_slot_size = 48

(* Replay [ops] on a freshly booted [sys] (after its baseline checkpoint).
   [on_op i] runs after op [i] (0-based) completes — the hook the explorer
   uses to stop early (DRAM-loss crashes).  [on_ckpt r] runs as each [Ckpt]
   op's pause ends, with its report — the hook the reference run records
   fingerprints from.  An armed crash raising {!Warea.Crashed} mid-op
   escapes to the caller with the driver state simply abandoned, as a real
   power cut would leave it.

   [delivered] shadows the two rings' persistent delivered counters in
   DRAM: each ring's deliver callback bumps its ref.  No crash site can
   fire between [Ring.set_meta] and the callback (neither touches the
   journal), so whenever {!Warea.Crashed} escapes, the refs equal the
   counts durably in NVM — the exact post-recovery oracle. *)
let replay ?(delivered = (ref 0, ref 0)) sys ops ~on_op ~on_ckpt =
  let k () = System.kernel sys in
  let base = Kernel.create_process (k ()) ~name:"driver" ~threads:1 ~prio:5 in
  let da, db = delivered in
  let mgr = System.manager sys in
  (* map the rings BEFORE the heap: Touch/Write assume the heap region is
     vaddr-contiguous across Grow ops, so nothing may claim the vpns right
     after it *)
  let net_a =
    Net_server.create (k ()) mgr ~proc:base ~name:ct_ring_a ~slots:ct_ring_slots
      ~slot_size:ct_ring_slot_size
      ~deliver:(fun ~client:_ ~sent_ns:_ ~payload:_ -> incr da)
  in
  let net_b =
    Net_server.create (k ()) mgr ~proc:base ~name:ct_ring_b ~slots:ct_ring_slots
      ~slot_size:ct_ring_slot_size
      ~deliver:(fun ~client:_ ~sent_ns:_ ~payload:_ -> incr db)
  in
  let heap0 = Kernel.grow_heap (k ()) base ~pages:4 in
  let heap_pages = ref 4 in
  let psz = (Kernel.cost (k ())).Treesls_sim.Cost.page_size in
  let notifs = ref [| Kernel.create_notification (k ()) base |] in
  let procs = ref [] in
  let spawned = ref 0 in
  List.iteri
    (fun idx op ->
      (match op with
      | Notify i ->
        Ipc.notify (k ()) !notifs.(i mod Array.length !notifs);
        (* park a reply on ring A: published at the next commit, delivered
           by its flush, shed when the tiny ring is full — all three paths
           exercised under every crash schedule *)
        ignore (Net_server.send net_a ~client:(i mod 7) (Bytes.of_string (Printf.sprintf "a%d" i)))
      | Wait i ->
        ignore (Net_server.send net_b ~client:(i mod 5) (Bytes.of_string (Printf.sprintf "b%d" i)));
        (* only consume pending signals — blocking the driver's single
           thread would wedge the trace *)
        let n = !notifs.(i mod Array.length !notifs) in
        if n.Kobj.nt_count > 0 then ignore (Ipc.wait (k ()) n (List.hd base.Kernel.threads))
      | Touch i ->
        (* concentrated on the first four heap pages: a stable hot set that
           crosses the active-list promotion threshold, gets DRAM-cached,
           and is dirty at (nearly) every checkpoint — which is what makes
           hybrid stop-and-copy, drain backlogs and CoW-fault resolution
           actually reachable in the schedule space (Write spreads) *)
        Kernel.touch_write (k ()) base ~vpn:(heap0 + (i mod (min 8 !heap_pages)))
      | Write i ->
        (* same hot set as Touch, via the byte-write path: write faults on
           pages an async checkpoint left protected land here, exercising
           CoW-fault resolution against a pending drain backlog *)
        Kernel.write_bytes (k ()) base
          ~vaddr:(((heap0 + (i mod (min 8 !heap_pages))) * psz) + 64)
          (Bytes.of_string (Printf.sprintf "w%06d" i))
      | Spawn ->
        incr spawned;
        let p =
          Kernel.create_process (k ()) ~name:(Printf.sprintf "w%d" !spawned) ~threads:1 ~prio:5
        in
        notifs := Array.append !notifs [| Kernel.create_notification (k ()) p |];
        procs := !procs @ [ p ]
      | Exit i -> (
        match !procs with
        | [] -> ()
        | ps ->
          let j = i mod List.length ps in
          Kernel.exit_process (k ()) (List.nth ps j);
          procs := List.filteri (fun l _ -> l <> j) ps)
      | Grow ->
        let v = Kernel.grow_heap (k ()) base ~pages:2 in
        heap_pages := !heap_pages + 2;
        Kernel.touch_write (k ()) base ~vpn:v
      | Ckpt ->
        on_ckpt (System.checkpoint sys);
        (* write-after-checkpoint on the hottest page: when the checkpoint
           staged a drain window this hits a still-protected backlogged
           page before any drain step runs — the CoW-fault resolution
           path, deterministically, every async window *)
        Kernel.touch_write (k ()) base ~vpn:heap0);
      (* one async drain step per op boundary, mirroring System.tick — a
         no-op in eager mode, and the mechanism that makes drain crash
         sites fire mid-trace in async sweeps *)
      System.drain_tick sys;
      on_op idx)
    ops

(* ---- state fingerprint ------------------------------------------------ *)

(* Every reachable object's snapshot plus the byte contents of every
   normal-PMO page, sorted by object id: two systems with equal
   fingerprints are indistinguishable to applications. *)
type fingerprint = (int * Snapshot.t * (int * string) list) list

let fingerprint sys : fingerprint =
  let k = System.kernel sys in
  let store = System.store sys in
  let objs = ref [] in
  Kobj.iter_tree ~root:(Kernel.root k) (fun obj ->
      let pages =
        match obj with
        | Kobj.Pmo p when p.Kobj.pmo_kind = Kobj.Pmo_normal ->
          List.sort compare
            (Radix.fold
               (fun pno paddr acc -> (pno, Bytes.to_string (Store.page_bytes store paddr)) :: acc)
               p.Kobj.pmo_radix [])
        | Kobj.Pmo _ | Kobj.Cap_group _ | Kobj.Thread _ | Kobj.Vmspace _ | Kobj.Ipc_conn _
        | Kobj.Notification _ | Kobj.Irq_notification _ -> []
      in
      objs := (Kobj.id obj, Snapshot.take obj, pages) :: !objs);
  List.sort (fun (a, _, _) (b, _, _) -> compare a b) !objs

(* ---- schedules -------------------------------------------------------- *)

type restore_hit = First | Last

type point =
  | Commit of int * Warea.crash_phase  (* journal commit point x phase *)
  | Site of string * int  (* nth hit of a named ckpt crash site *)
  | Restore_site of string * int * restore_hit
      (* crash at op k, then crash again at the site's first or last hit
         during recovery *)
  | Op_crash of int  (* DRAM loss after op k *)

(* The one site whose last hit the harness can compute before the
   recovery runs: one hit per object the restore materialises. *)
let last_hit_site = "restore.materialized"

let point_to_string = function
  | Commit (p, ph) -> Printf.sprintf "commit:%d:%s" p (Warea.phase_name ph)
  | Site (s, n) -> Printf.sprintf "site:%s:%d" s n
  | Restore_site (s, k, First) -> Printf.sprintf "restore:%s:%d" s k
  | Restore_site (s, k, Last) -> Printf.sprintf "restore:%s:%d:last" s k
  | Op_crash k -> Printf.sprintf "op:%d" k

let point_of_string s =
  match String.split_on_char ':' s with
  | [ "commit"; p; ph ] -> (
    match (int_of_string_opt p, Warea.phase_of_string ph) with
    | Some p, Some ph -> Some (Commit (p, ph))
    | _ -> None)
  | [ "site"; site; n ] -> Option.map (fun n -> Site (site, n)) (int_of_string_opt n)
  | [ "restore"; site; k ] ->
    Option.map (fun k -> Restore_site (site, k, First)) (int_of_string_opt k)
  | [ "restore"; site; k; "last" ] when site = last_hit_site ->
    Option.map (fun k -> Restore_site (site, k, Last)) (int_of_string_opt k)
  | [ "op"; k ] -> Option.map (fun k -> Op_crash k) (int_of_string_opt k)
  | _ -> None

type outcome =
  | Passed
  | Did_not_fire  (* determinism failure: numbering diverged between runs *)
  | Audit_failed of string
  | Fingerprint_mismatch of int  (* recovered version *)
  | Recovery_failed of string
  | Liveness_failed of string
  | Wear_failed of string  (* wearmap invariant broken across crash/restore *)
  | Tseries_failed of string  (* black-box sample torn/duplicated/reordered *)
  | Extsync_failed of string  (* named-ring reattach or delivered-count drift *)

let outcome_is_pass = function Passed -> true | _ -> false

let outcome_to_string = function
  | Passed -> "passed"
  | Did_not_fire -> "did-not-fire"
  | Audit_failed v -> "audit: " ^ v
  | Fingerprint_mismatch g -> Printf.sprintf "fingerprint mismatch vs reference @v%d" g
  | Recovery_failed e -> "recovery: " ^ e
  | Liveness_failed e -> "liveness: " ^ e
  | Wear_failed e -> "wear: " ^ e
  | Tseries_failed e -> "tseries: " ^ e
  | Extsync_failed e -> "extsync: " ^ e

(* Every writer context the simulator can legitimately put on the wear
   stack; attribution outside this set (including [Wearmap.unattributed])
   means an instrumentation gap or a bogus context leaking across a
   crash. *)
let known_wear_subsystems =
  [
    "app";
    "extsync";
    "nvm.journal";
    "nvm.meta";
    "nvm.swap";
    "ckpt.captree";
    "ckpt.snapshot";
    "ckpt.cow";
    "ckpt.cow_fault";
    "ckpt.hybrid";
    "ckpt.drain";
    "restore";
    "restore.journal";
  ]

(* Post-recovery wearmap invariants: physical-write counters are monotone
   across crash/restore (nothing ever rolls them back), and every byte is
   attributed to a subsystem that can actually run. *)
let wear_check sys ~bytes_before =
  let wm = System.wearmap sys in
  let total = Treesls_obs.Wearmap.total_bytes wm in
  if total < bytes_before then
    Some
      (Printf.sprintf "total bytes shrank across crash/restore (%d -> %d)" bytes_before
         total)
  else
    List.fold_left
      (fun acc (name, _writes, bytes) ->
        match acc with
        | Some _ -> acc
        | None ->
          if not (List.mem name known_wear_subsystems) then
            Some (Printf.sprintf "%d bytes attributed to unknown subsystem %S" bytes name)
          else None)
      None
      (Treesls_obs.Wearmap.subsystems wm)

module Tseries = Treesls_obs.Tseries

(* Pre-crash snapshot of the black box's spine: total samples recorded
   plus the identity of the newest one. *)
let tseries_mark sys =
  let ts = System.tseries sys in
  ( Tseries.total ts,
    Option.map
      (fun s -> (s.Tseries.sp_seq, s.Tseries.sp_version, s.Tseries.sp_ts_ns))
      (Tseries.latest ts) )

(* Post-recovery black-box invariants: the sample spine is monotone across
   crash/restore (samples exist only for committed versions, and nothing
   ever rolls the ring back), with no torn, duplicated or reordered
   sample.  Takes one fresh checkpoint through the victim's own probe so
   the spine is verified to *continue* after recovery, not merely to have
   survived. *)
let tseries_check sys ~mark =
  let total_before, last_before = mark in
  ignore (System.checkpoint sys);
  (* async mode: the sample lands at settle, not at the STW *)
  System.drain_settle sys;
  let ts = System.tseries sys in
  let total = Tseries.total ts in
  if total < total_before then
    Some (Printf.sprintf "sample count shrank across crash/restore (%d -> %d)" total_before total)
  else if total = total_before then
    Some (Printf.sprintf "no sample recorded for the post-recovery commit (total=%d)" total)
  else begin
    let ss = Tseries.samples ts in
    let spine_err =
      let rec walk = function
        | a :: (b :: _ as rest) ->
          if b.Tseries.sp_seq <> a.Tseries.sp_seq + 1 then
            Some (Printf.sprintf "seq not consecutive (%d then %d)" a.Tseries.sp_seq b.Tseries.sp_seq)
          else if b.Tseries.sp_ts_ns < a.Tseries.sp_ts_ns then
            Some (Printf.sprintf "timestamp regressed at seq %d" b.Tseries.sp_seq)
          else if b.Tseries.sp_version <= a.Tseries.sp_version then
            Some
              (Printf.sprintf "version not strictly increasing at seq %d (v%d then v%d)"
                 b.Tseries.sp_seq a.Tseries.sp_version b.Tseries.sp_version)
          else walk rest
        | [ last ] ->
          if last.Tseries.sp_seq <> total - 1 then
            Some (Printf.sprintf "newest seq %d != total-1 (%d)" last.Tseries.sp_seq (total - 1))
          else None
        | [] -> Some "ring empty after a committed checkpoint"
      in
      walk ss
    in
    match spine_err with
    | Some _ as e -> e
    | None -> (
      (* the pre-crash newest sample, if still retained, must be intact *)
      match last_before with
      | None -> None
      | Some (seq, ver, ts_ns) -> (
        match List.find_opt (fun s -> s.Tseries.sp_seq = seq) ss with
        | None -> None (* wrapped out of the ring; nothing to compare *)
        | Some s ->
          if s.Tseries.sp_version <> ver || s.Tseries.sp_ts_ns <> ts_ns then
            Some (Printf.sprintf "pre-crash sample seq %d rewritten across crash/restore" seq)
          else None))
  end

(* Post-recovery extsync invariants: both rings reattach strictly by
   their persisted names — in REVERSE creation order, so a creation-order
   (or size-based) claim would cross-wire them — and each ring's
   persistent delivered counter equals the crash-instant DRAM shadow
   exactly.  Deliveries are durable the moment they happen (the meta word
   lives in an eternal PMO), so recovery must neither lose nor replay
   any.  A crash before the rings' creation committed leaves nothing to
   claim; that is only acceptable while the shadows are still zero. *)
let extsync_check sys ~expect_a ~expect_b =
  let k = System.kernel sys in
  match Kernel.find_process k ~name:"driver" with
  | None ->
    if expect_a = 0 && expect_b = 0 then None
    else Some "driver process missing after recovery despite deliveries"
  | Some driver ->
    let mgr = System.manager sys in
    let check name expect =
      (* reattach drains any published-but-undrained backlog; count it
         separately so the comparison stays exact *)
      let fresh = ref 0 in
      match
        Net_server.reattach k mgr ~proc:driver ~name ~slots:ct_ring_slots
          ~slot_size:ct_ring_slot_size
          ~deliver:(fun ~client:_ ~sent_ns:_ ~payload:_ -> incr fresh)
      with
      | net ->
        let d = Net_server.delivered net - !fresh in
        if d <> expect then
          Some
            (Printf.sprintf "ring %s delivered %d (+%d at reattach), shadow says %d" name d
               !fresh expect)
        else None
      | exception Invalid_argument _ ->
        if expect = 0 then None
        else Some (Printf.sprintf "ring %s unclaimable after %d deliveries" name expect)
    in
    (match check ct_ring_b expect_b with
    | Some _ as e -> e
    | None -> check ct_ring_a expect_a)

type config = {
  seed : int;
  ops : int;
  phases : Warea.crash_phase list;
  include_sites : bool;
  include_op_crashes : bool;
  commit_cap : int;  (* max commit points sampled (x |phases| schedules) *)
  per_site_cap : int;  (* max hits sampled per site *)
  op_cap : int;  (* max DRAM-loss (and per-restore-site) op indices *)
  recovery_bug : bool;  (* deliberately break journal replay (must be caught) *)
  async : bool;  (* run with the asynchronous drain on (batch 1) *)
}

let default_config =
  {
    seed = 42;
    ops = 280;
    phases = Warea.all_phases;
    include_sites = true;
    include_op_crashes = true;
    commit_cap = 400;
    per_site_cap = 8;
    op_cap = 12;
    recovery_bug = false;
    async = false;
  }

(* Boot one system under the sweep's checkpoint mode.  Async
   sweeps use a one-page drain batch so windows stay pending
   across several ops — maximising the trace window in which the drain
   crash sites and the CoW fault path are live. *)
let boot cfg =
  let sys =
    if cfg.async then
      (* hair-trigger promotion: one fault puts a page on the active list,
         so the hot set is DRAM-cached (and hence drain-backlogged) within
         the first couple of checkpoint windows even in short traces *)
      System.boot
        ~active_cfg:{ Treesls_ckpt.Active_list.default_config with hot_threshold = 1 }
        ()
    else System.boot ()
  in
  if cfg.async then begin
    let mgr = System.manager sys in
    (Manager.features mgr).Treesls_ckpt.State.async_drain <- true;
    Manager.set_drain_batch mgr 1
  end;
  sys

let reproducer cfg p =
  Printf.sprintf "seed=%d;ops=%d;mode=%s;%s" cfg.seed cfg.ops
    (if cfg.async then "async" else "eager")
    (point_to_string p)

let parse_reproducer ?(base = default_config) s =
  let kv key p =
    let pre = key ^ "=" in
    let n = String.length pre in
    if String.length p > n && String.sub p 0 n = pre then
      Some (String.sub p n (String.length p - n))
    else None
  in
  let int_kv key p = Option.bind (kv key p) int_of_string_opt in
  let mode = function "eager" -> Some false | "async" -> Some true | _ -> None in
  let build a b async pt =
    match (int_kv "seed" a, int_kv "ops" b, async, point_of_string pt) with
    | Some seed, Some ops, Some async, Some point -> Some ({ base with seed; ops; async }, point)
    | _ -> None
  in
  match String.split_on_char ';' s with
  (* strings from before the mode field replay eager *)
  | [ a; b; pt ] -> build a b (Some false) pt
  | [ a; b; m; pt ] -> build a b (Option.bind (kv "mode" m) mode) pt
  | _ -> None

type result = {
  point : point;
  outcome : outcome;
  recovery : Rto.record option;
  recovery_cut : bool;  (* a restore site cut the first recovery attempt *)
  crashes : int;  (* power cuts the victim took *)
}

type sweep = {
  config : config;
  commit_points : int;  (* journal commit points enumerated in the trace window *)
  site_hits : (string * int) list;
  results : result list;
  commit_schedules : int;
  passed : int;
  failed : result list;
  rto_stats : (string * Histogram.t) list;
      (* restore.* timers of every victim, Histogram.merge'd across
         schedules (min/mean/p99 per phase), sorted by name *)
}

(* Evenly sample at most [k] elements of [lst] (always keeps first/last). *)
let sample k lst =
  let n = List.length lst in
  if n <= k || k <= 0 then lst
  else if k = 1 then [ List.hd lst ]
  else
    let arr = Array.of_list lst in
    List.init k (fun i -> arr.(i * (n - 1) / (k - 1)))

(* ---- enumeration ------------------------------------------------------ *)

type plan = {
  p_ops : op list;
  first_point : int;
  last_point : int;
  site_hits : (string * int) list;
}

(* One instrumented run of the trace: record the commit-point window and
   how often each named crash site fires.  Nothing is injected. *)
let enumerate cfg =
  let ops = gen_trace ~seed:cfg.seed ~ops:cfg.ops in
  let sys = boot cfg in
  ignore (System.checkpoint sys);
  let w = Store.warea (System.store sys) in
  let sites = Store.crash_sites (System.store sys) in
  let first_point = Warea.commit_points w in
  Crash_site.record sites;
  replay sys ops ~on_op:ignore ~on_ckpt:ignore;
  (* one final checkpoint so the tail of the trace is also covered by
     checkpoint crash sites; settle its drain window so the drain/settle
     sites of the tail are enumerated too *)
  ignore (System.checkpoint sys);
  System.drain_settle sys;
  let last_point = Warea.commit_points w in
  let site_hits = Crash_site.counts sites in
  { p_ops = ops; first_point; last_point; site_hits }

(* Every crash site of [Restore.run], in pipeline order. *)
let restore_sites =
  [
    "restore.begin";
    "restore.precheck";
    "restore.selected";
    "restore.materialized";
    "restore.swapped";
    "restore.reclaimed";
  ]

let schedules_of_plan cfg plan =
  let commits =
    List.init (plan.last_point - plan.first_point) (fun i -> plan.first_point + 1 + i)
    |> sample cfg.commit_cap
    |> List.concat_map (fun p -> List.map (fun ph -> Commit (p, ph)) cfg.phases)
  in
  let op_indices = sample cfg.op_cap (List.init (List.length plan.p_ops) Fun.id) in
  let sites =
    if not cfg.include_sites then []
    else
      List.concat_map
        (fun (site, n) ->
          List.init n (fun i -> i + 1) |> sample cfg.per_site_cap
          |> List.map (fun h -> Site (site, h)))
        plan.site_hits
      @ List.concat_map
          (fun site -> List.map (fun k -> Restore_site (site, k, First)) op_indices)
          restore_sites
      @ List.map (fun k -> Restore_site (last_hit_site, k, Last)) op_indices
  in
  let op_crashes = if cfg.include_op_crashes then List.map (fun k -> Op_crash k) op_indices else [] in
  commits @ sites @ op_crashes

(* ---- reference run -------------------------------------------------- *)

(* The committed state every recovered victim is judged against: one
   crash-free replay of the whole trace that records [fingerprint sys]
   under the version each checkpoint pause staged — the baseline, every
   [Ckpt] op and the final checkpoint.  Recorded as the pause ends, not at
   the commit: an async version commits at its settle, ops later, but its
   content is the state its pause captured.  Nothing needs normalising:
   recovery rewrites only page placement, which the fingerprint does not
   see. *)
let reference cfg =
  let ops = gen_trace ~seed:cfg.seed ~ops:cfg.ops in
  let sys = boot cfg in
  let fps = ref [] in
  let record (r : Report.t) = fps := (r.Report.version, fingerprint sys) :: !fps in
  record (System.checkpoint sys);
  replay sys ops ~on_op:ignore ~on_ckpt:record;
  record (System.checkpoint sys);
  List.rev !fps

(* ---- injection -------------------------------------------------------- *)

(* Post-recovery liveness: the recovered system must still take work.
   Returns an error description, or None. *)
let liveness_check sys =
  try
    let k = System.kernel sys in
    let p = Kernel.create_process k ~name:"post-crash" ~threads:1 ~prio:5 in
    let v = Kernel.grow_heap k p ~pages:2 in
    Kernel.touch_write k p ~vpn:v;
    Kernel.touch_write k p ~vpn:(v + 1);
    ignore (System.checkpoint sys);
    System.drain_settle sys;
    let rep = System.audit sys in
    if Audit.errors rep > 0 then Some (Printf.sprintf "%d audit errors after new work" (Audit.errors rep))
    else None
  with e -> Some (Printexc.to_string e)

(* Run ONE schedule end to end: boot, arm, replay until the crash fires,
   power-cut, recover, verify (audit + reference fingerprint + liveness).
   [reference] is forced only once a victim recovers cleanly.  Returns the
   outcome plus the victim's sealed recovery record and its restore.*
   timer histograms (live references: the victim system is dropped right
   after, so handing them out is safe). *)
let run_schedule ~reference cfg point =
  let ops = gen_trace ~seed:cfg.seed ~ops:cfg.ops in
  let sys = boot cfg in
  ignore (System.checkpoint sys);
  let w = Store.warea (System.store sys) in
  let sites = Store.crash_sites (System.store sys) in
  if cfg.recovery_bug then Warea.set_recovery_bug w true;
  (match point with
  | Commit (p, ph) -> Warea.set_crash_schedule w (Some (p, ph))
  | Site (s, n) -> Crash_site.arm sites ~site:s ~nth:n
  | Restore_site _ | Op_crash _ -> ());
  let fired = ref false in
  let stop_at = match point with Restore_site (_, k, _) | Op_crash k -> Some k | _ -> None in
  let shadow_a = ref 0 and shadow_b = ref 0 in
  (try
     replay ~delivered:(shadow_a, shadow_b) sys ops ~on_ckpt:ignore ~on_op:(fun i ->
         match stop_at with Some k when i = k -> raise Stop | _ -> ());
     (* cover the trace tail, mirroring the enumeration run *)
     ignore (System.checkpoint sys);
     System.drain_settle sys
   with
  | Warea.Crashed _ -> fired := true
  | Stop -> fired := true);
  (* Disarm leftovers: recovery must not re-fire a stale plan. *)
  Warea.set_crash_schedule w None;
  Crash_site.reset sites;
  let recovery_cut = ref false in
  let wear_bytes_before = Treesls_obs.Wearmap.total_bytes (System.wearmap sys) in
  let tseries_before = tseries_mark sys in
  let outcome =
    if not !fired then Did_not_fire
    else begin
      System.crash sys;
      (* crash-during-recovery schedules arm their site only now; the
         last materialised object is known once the cut is in, from the
         ORoots the recovery will select *)
      (match point with
      | Restore_site (s, _, First) -> Crash_site.arm sites ~site:s ~nth:1
      | Restore_site (s, _, Last) ->
        Crash_site.arm sites ~site:s
          ~nth:(Restore.objects_to_materialize (Manager.state (System.manager sys)))
      | Commit _ | Site _ | Op_crash _ -> ());
      let recovered =
        match System.recover sys with
        | _ -> Ok ()
        | exception Warea.Crashed _ when (match point with Restore_site _ -> true | _ -> false) ->
          (* the second power cut, mid-recovery: DRAM and every volatile
             structure die again, then recovery starts over *)
          Crash_site.reset sites;
          recovery_cut := true;
          System.crash sys;
          (match System.recover sys with
          | _ -> Ok ()
          | exception e -> Error ("retry: " ^ Printexc.to_string e))
        | exception e -> Error (Printexc.to_string e)
      in
      Crash_site.reset sites;
      match recovered with
      | Error e -> Recovery_failed e
      | Ok () -> (
        let rep = System.audit sys in
        if Audit.errors rep > 0 then
          Audit_failed (Printf.sprintf "%d errors" (Audit.errors rep))
        else
          let g = System.version sys in
          if List.assoc_opt g (Lazy.force reference) <> Some (fingerprint sys) then
            Fingerprint_mismatch g
          else
            match liveness_check sys with
            | Some e -> Liveness_failed e
            | None -> (
              match wear_check sys ~bytes_before:wear_bytes_before with
              | Some e -> Wear_failed e
              | None -> (
                match tseries_check sys ~mark:tseries_before with
                | Some e -> Tseries_failed e
                | None -> (
                  match extsync_check sys ~expect_a:!shadow_a ~expect_b:!shadow_b with
                  | Some e -> Extsync_failed e
                  | None -> Passed))))
    end
  in
  Warea.set_recovery_bug w false;
  let recovery = Rto.last (Probe.rto (System.obs sys)) in
  let m = Probe.metrics (System.obs sys) in
  let rto_timers =
    List.filter_map
      (fun name ->
        if String.length name >= 8 && String.sub name 0 8 = "restore." then
          Option.map (fun h -> (name, h)) (Metrics.histogram m name)
        else None)
      (Metrics.timer_names m)
  in
  let crashes = Metrics.counter_value m "crashes" in
  ({ point; outcome; recovery; recovery_cut = !recovery_cut; crashes }, rto_timers)

let run_one_profiled cfg point = run_schedule ~reference:(lazy (reference cfg)) cfg point

let run_one cfg point =
  let r, _ = run_one_profiled cfg point in
  r.outcome

(* ---- the sweep -------------------------------------------------------- *)

let run ?(progress = fun _ _ -> ()) cfg =
  let plan = enumerate cfg in
  let schedules = schedules_of_plan cfg plan in
  let reference = lazy (reference cfg) in
  let total = List.length schedules in
  (* Per-phase RTO aggregation: every victim's restore.* timers are merged
     bucket-wise (Histogram.merge) into one histogram per name — the raw
     per-schedule samples are never re-observed. *)
  let rto_acc : (string, Histogram.t) Hashtbl.t = Hashtbl.create 16 in
  let results =
    List.mapi
      (fun i point ->
        progress i total;
        let r, rto_timers = run_schedule ~reference cfg point in
        List.iter
          (fun (name, h) ->
            let acc =
              match Hashtbl.find_opt rto_acc name with
              | Some a -> a
              | None ->
                let a = Histogram.create () in
                Hashtbl.add rto_acc name a;
                a
            in
            Histogram.merge ~into:acc h)
          rto_timers;
        r)
      schedules
  in
  let failed = List.filter (fun r -> not (outcome_is_pass r.outcome)) results in
  {
    config = cfg;
    commit_points = plan.last_point - plan.first_point;
    site_hits = plan.site_hits;
    results;
    commit_schedules =
      List.length (List.filter (fun r -> match r.point with Commit _ -> true | _ -> false) results);
    passed = List.length results - List.length failed;
    failed;
    rto_stats =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) rto_acc []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b);
  }

(* A restore-site schedule whose site is never reached passes without a
   second cut, having tested nothing that its [Op_crash] twin does not. *)
let restore_cuts sweep =
  List.map
    (fun site ->
      let mine =
        List.filter
          (fun r -> match r.point with Restore_site (s, _, _) -> s = site | _ -> false)
          sweep.results
      in
      (site, List.length mine, List.length (List.filter (fun r -> r.recovery_cut) mine)))
    restore_sites

(* ---- shrinking -------------------------------------------------------- *)

(* Minimal reproducer by prefix truncation: find the shortest [ops] prefix
   under which the schedule still fires and still fails.  Sound because
   every candidate is re-verified end to end; commit-point numbering under
   a shorter prefix is unchanged for the prefix itself (the trace is a
   prefix-closed determinism domain).  A prefix too short to reach the
   crash point replays as [Did_not_fire]: it does not reproduce. *)
let shrink cfg point =
  let fails k =
    if k >= cfg.ops then true
    else
      let cfg' : config = { cfg with ops = k } in
      match run_one cfg' point with Passed | Did_not_fire -> false | _ -> true
  in
  let lo = ref 0 and hi = ref cfg.ops in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if fails mid then hi := mid else lo := mid + 1
  done;
  { cfg with ops = !hi }
