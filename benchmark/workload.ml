(* The benchmark's four workloads, driven through the library's public
   functions only.  Each pass builds a fresh system from the seed, so the
   virtual-clock results of a pass depend on the seed and the scale alone;
   the host clock times the pass from outside. *)

module System = Treesls.System
module Manager = Treesls_ckpt.Manager
module Report = Treesls_ckpt.Report
module Drain = Treesls_ckpt.Drain
module State = Treesls_ckpt.State
module Tenant = Treesls_serve.Tenant
module Kv_app = Treesls_apps.Kv_app
module Ycsb = Treesls_workloads.Ycsb
module Crashtest = Treesls_crashtest.Crashtest
module Kernel = Treesls_kernel.Kernel
module Store = Treesls_nvm.Store
module Clock = Treesls_sim.Clock
module Probe = Treesls_obs.Probe
module Metrics = Treesls_obs.Metrics
module Rtrace = Treesls_obs.Rtrace
module Wearmap = Treesls_obs.Wearmap
module Rto = Treesls_obs.Rto
module Stats = Treesls_util.Stats
module Histogram = Treesls_util.Histogram
module Rng = Treesls_util.Rng
module Zipf = Treesls_util.Zipf

type scale = Smoke | Full

(* One timed chunk of a measured part: [ops] operations in [secs] of host
   time, and the reference loop's time taken right after it. *)
type chunk = { ops : int; secs : float; ref_s : float }

type pass = {
  setup_s : float;  (** host seconds to build the workload's initial state *)
  setup_ref_s : float;  (** reference loop time taken just before the set-up *)
  host_s : float;  (** host seconds of the measured part *)
  chunks : chunk list;
  attempted : int;  (** requests, or crash schedules *)
  failed : int;
  values : (string * float) list;  (** metric name (and ["<name>.n"] counts) -> value *)
  failures : string list;  (** failed correctness and validity checks *)
  spans : Spans.t option;  (** present on a traced pass *)
}

let secs_since h0 = float_of_int (Spans.host_now () - h0) /. 1e9
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let mib bytes = float_of_int bytes /. 1048576.0
let mean st = if Stats.is_empty st then 0.0 else Stats.mean st

let stats_of l =
  let st = Stats.create () in
  List.iter (fun x -> Stats.add st (float_of_int x)) l;
  st

(* [name] and its sample count [name.n] for percentile [p] of [st], divided
   by [div]; 0 when there are no samples *)
let pct ?(div = 1.0) name st p =
  let n = Stats.count st in
  [ (name, if n = 0 then 0.0 else Stats.percentile st p /. div); (name ^ ".n", float_of_int n) ]

(* The measured part is timed in chunks of at least half a second, each
   followed by one reference loop that the chunk's time leaves out. *)
let chunk_ns = 500_000_000

type chunker = { mutable n : int; mutable last : int; mutable done_ : chunk list }

let chunker () = { n = 0; last = Spans.host_now (); done_ = [] }

let restart c =
  c.n <- 0;
  c.last <- Spans.host_now ()

let close_chunk c =
  let now = Spans.host_now () in
  if c.n > 0 then begin
    let secs = float_of_int (now - c.last) /. 1e9 in
    c.done_ <- { ops = c.n; secs; ref_s = Reference.time () } :: c.done_
  end;
  restart c

let count_op c =
  c.n <- c.n + 1;
  if Spans.host_now () - c.last >= chunk_ns then close_chunk c

(* [f ()] timed as a set-up, after a reference loop *)
let timed_setup f =
  let ref_s = Reference.time () in
  let h0 = Spans.host_now () in
  let r = f () in
  (r, secs_since h0, ref_s)

(* ---- span-derived per-layer numbers (traced passes) -------------------- *)

let host_of tr kinds =
  List.fold_left (fun acc k -> Stats.merge acc (Spans.host_samples tr k)) (Stats.create ()) kinds

let host_share tr kinds ~host_s =
  100.0 *. List.fold_left (fun a k -> a +. Spans.host_total_ns tr k) 0.0 kinds /. (host_s *. 1e9)

let serve_span_values tr ~host_s =
  let step = Spans.host_samples tr Spans.Serve_step in
  let ticks = host_of tr [ Spans.Ckpt_capture; Spans.Ckpt_deadline ] in
  pct ~div:1e3 "serve.step_host_us.p50" step 50.0
  @ pct ~div:1e3 "serve.step_host_us.p99" step 99.0
  @ [ ("serve.step_vus.mean", mean (Spans.virt_samples tr Spans.Serve_step) /. 1e3) ]
  @ pct ~div:1e3 "ckpt.tick_host_us.p50" ticks 50.0
  @ pct ~div:1e3 "ckpt.tick_host_us.p99" ticks 99.0
  @ [
      ("ckpt.host_share_pct", host_share tr [ Spans.Ckpt_capture; Spans.Ckpt_deadline ] ~host_s);
      ("drain.host_share_pct", host_share tr [ Spans.Drain_step ] ~host_s);
    ]

(* ---- serving ---------------------------------------------------------- *)

let interval_us = 500
let keys = 1_000
let reads_per_tenant = 4
let late_limit_us = float_of_int interval_us

type serve_cfg = {
  tenants : int;
  zipf : bool;  (** tenant of each arrival: Zipf (theta 0.99) or round-robin *)
  mix : Ycsb.workload;
  value_size : int;
  drain_batch : int option;
      (** [Some b]: async drain on top of the incremental walk, Lazy policy,
          [b] backlog pages per step; [None]: eager commit *)
  gap_ns : int;  (** open loop: one request due every [gap_ns] *)
  open_n : int;  (** open-loop requests, when there are no power cuts *)
  closed_n : int;  (** closed-loop requests after the open loop *)
  cuts : (int * int) option;
      (** [Some (n, k)]: the open loop is [n] epochs, each ended by a power
          cut and a recovery, of 1/2 k to 3/2 k requests drawn from the seed *)
  nvm_pages : int;
}

(* Kernel fault and IPC counters restart with every recovered kernel, so
   they are summed per kernel epoch. *)
type kernel_count = { mutable faults : int; mutable cow_faults : int; mutable ipc : int }

let kernel_mark sys =
  let k = System.stats sys in
  { faults = k.Kernel.page_faults; cow_faults = k.Kernel.cow_faults; ipc = k.Kernel.ipc_calls }

let kernel_add acc ~since sys =
  let now = kernel_mark sys in
  acc.faults <- acc.faults + now.faults - since.faults;
  acc.cow_faults <- acc.cow_faults + now.cow_faults - since.cow_faults;
  acc.ipc <- acc.ipc + now.ipc - since.ipc

(* The serving load generator.  Per tenant it keeps a FIFO of the due times of
   replies not yet visible, popped as the tenant's persistent delivered
   count advances. *)
type serve = {
  cfg : serve_cfg;
  sys : System.t;
  tenants : Tenant.t array;
  rng : Rng.t;
  due : int Queue.t array;
  open_left : int array;  (** open-loop entries still queued, per tenant *)
  seen : int array;  (** delivered replies accounted, per tenant *)
  mutable ver : int;  (** committed version at the last poll *)
  mutable req : int;  (** requests issued, resends included *)
  mutable shed : int;
  mutable resent : int;  (** replies lost to a power cut and sent again *)
  mutable mid_drain : int;  (** power cuts that found a staged drain window *)
  lat : Stats.t;  (** open loop: due -> visible, ns *)
  late : Stats.t;  (** open loop: issue - due, ns *)
  mutable captures : Report.t list;  (** checkpoints taken while measuring, newest first *)
  mutable backlog_max : int;
  mutable restores : Rto.record list;
  kernel : kernel_count;  (** fault and IPC counts of finished kernel epochs *)
  mutable epoch : kernel_count;  (** counts when the current kernel's epoch began *)
  tr : Spans.t option;
  mutable errors : string list;
}

let fail st fmt = Printf.ksprintf (fun m -> st.errors <- m :: st.errors) fmt

let boot_serve cfg ~seed =
  let features =
    { (State.default_features ()) with State.async_drain = cfg.drain_batch <> None }
  in
  let sys = System.boot ~interval_us ~features ~nvm_pages:cfg.nvm_pages () in
  Option.iter
    (fun batch ->
      Manager.set_drain_policy (System.manager sys) Drain.Lazy;
      Manager.set_drain_batch (System.manager sys) batch)
    cfg.drain_batch;
  let rng = Rng.create (Int64.of_int seed) in
  let tcfg = { Tenant.default_cfg with Tenant.keys; value_size = cfg.value_size; mix = cfg.mix } in
  let tenants =
    Array.init cfg.tenants (fun idx -> Tenant.create sys ~idx ~seed:(Rng.int64 rng) tcfg)
  in
  (* rebind the tenants inside recover, so ring reattachment is charged to
     the recovery it belongs to; the setup also runs once at registration *)
  let live = ref false in
  System.add_service sys ~name:"bench.tenants" ~setup:(fun _ ->
      if !live then Array.iter Tenant.refresh tenants else live := true);
  (* settle the preload burst before anything is measured *)
  ignore (System.checkpoint sys);
  System.drain_settle sys;
  (sys, tenants, rng)

(* Reading a ring's persistent delivered count goes through the simulated
   kernel; the benchmark only observes, so its reads charge no time. *)
let delivered st tn = Store.with_sink (System.store st.sys) Store.Off (fun () -> Tenant.delivered tn)

(* Called after every call that can commit: a new committed version means
   replies may have become visible. *)
let poll st =
  let v = System.version st.sys in
  if v <> st.ver then begin
    st.ver <- v;
    let now = System.now_ns st.sys in
    Array.iteri
      (fun i tn ->
        let d = delivered st tn in
        while st.seen.(i) < d do
          (match Queue.take_opt st.due.(i) with
          | None -> fail st "%s: more replies delivered than sent" (Tenant.name tn)
          | Some due ->
            if st.open_left.(i) > 0 then begin
              st.open_left.(i) <- st.open_left.(i) - 1;
              Stats.add st.lat (float_of_int (now - due))
            end);
          st.seen.(i) <- st.seen.(i) + 1
        done)
      st.tenants
  end

let note_capture st r =
  st.captures <- r :: st.captures;
  st.backlog_max <- max st.backlog_max (System.drain_backlog st.sys)

(* Manager.tick, inside a span only when its deadline has passed; a tick
   before the deadline does nothing but is still made, so traced and
   untraced passes make the same calls. *)
let tick st kind ~parent ~req =
  let m = System.manager st.sys in
  let fires =
    match Manager.next_deadline m with Some d -> System.now_ns st.sys >= d | None -> false
  in
  let r =
    if fires then Spans.wrap st.tr kind ~parent ~req (fun () -> Manager.tick m) else Manager.tick m
  in
  Option.iter (note_capture st) r;
  poll st

(* Let virtual time pass up to [target], firing checkpoint deadlines on
   time: a pause starts at its deadline, not at the next request. *)
let advance_to st ~parent ~req target =
  let clock = System.clock st.sys in
  let rec loop () =
    let now = System.now_ns st.sys in
    if now < target then begin
      (match Manager.next_deadline (System.manager st.sys) with
      | Some d when d <= target ->
        if now < d then Clock.advance clock (d - now);
        tick st Spans.Ckpt_deadline ~parent ~req
      | Some _ | None -> Clock.advance clock (target - now));
      loop ()
    end
  in
  loop ()

(* One request on tenant [i], due at [due]: in the open loop wait for the
   due time; then the op, and the op boundary's drain step and tick. *)
let issue st i ~due ~open_ =
  st.req <- st.req + 1;
  let req = st.req in
  Spans.wrap st.tr Spans.Request ~parent:(-1) ~req (fun () ->
      let parent = match st.tr with Some t -> t.Spans.seq - 1 | None -> -1 in
      if open_ then begin
        advance_to st ~parent ~req due;
        Stats.add st.late (float_of_int (System.now_ns st.sys - due))
      end;
      let tn = st.tenants.(i) in
      let shed0 = Tenant.shed tn in
      Spans.wrap st.tr Spans.Serve_step ~parent ~req (fun () -> Tenant.step tn);
      if Tenant.shed tn > shed0 then st.shed <- st.shed + 1
      else begin
        Queue.add due st.due.(i);
        if open_ then st.open_left.(i) <- st.open_left.(i) + 1
      end;
      if Manager.drain_pending_version (System.manager st.sys) <> None then begin
        Spans.wrap st.tr Spans.Drain_step ~parent ~req (fun () -> System.drain_tick st.sys);
        poll st
      end;
      tick st Spans.Ckpt_capture ~parent ~req)

(* Make everything issued so far visible: settle a pending window, capture
   once more and settle that window too. *)
let release_all st =
  System.drain_settle st.sys;
  poll st;
  note_capture st (System.checkpoint st.sys);
  System.drain_settle st.sys;
  poll st

let read_samples st =
  Array.iter
    (fun tn ->
      for _ = 1 to reads_per_tenant do
        let k = Rng.int st.rng keys in
        let prefix = Printf.sprintf "v%08d-" k in
        match Kv_app.get_i (Tenant.app tn) k with
        | Some v
          when String.length v = st.cfg.value_size
               && String.sub v 0 (String.length prefix) = prefix -> ()
        | Some v -> fail st "%s: key %d read back %S" (Tenant.name tn) k v
        | None -> fail st "%s: key %d missing" (Tenant.name tn) k
      done)
    st.tenants

(* Power cut and recovery.  Every tenant's persistent delivered count must
   come back equal to the count seen at the last commit before the cut.
   The replies still queued were never visible: their clients send again,
   keeping the original due times. *)
let crash_and_recover st =
  kernel_add st.kernel ~since:st.epoch st.sys;
  if Manager.drain_pending_version (System.manager st.sys) <> None then
    st.mid_drain <- st.mid_drain + 1;
  ignore
    (Spans.wrap st.tr Spans.Restore_recover ~parent:(-1) ~req:st.req (fun () ->
         System.crash_and_recover st.sys));
  st.epoch <- kernel_mark st.sys;
  st.ver <- System.version st.sys;
  Array.iteri
    (fun i tn ->
      let d = delivered st tn in
      if d <> st.seen.(i) then
        fail st "%s: delivered %d after recovery, %d at the last commit" (Tenant.name tn) d
          st.seen.(i))
    st.tenants;
  read_samples st;
  (match System.last_recovery st.sys with
  | Some r -> st.restores <- r :: st.restores
  | None -> fail st "recovery %d left no RTO record" (List.length st.restores + 1));
  Array.iteri
    (fun i _ ->
      let lost = List.of_seq (Queue.to_seq st.due.(i)) in
      Queue.clear st.due.(i);
      st.open_left.(i) <- 0;
      List.iter
        (fun due ->
          st.resent <- st.resent + 1;
          issue st i ~due ~open_:false)
        lost)
    st.tenants

(* Counters read at the start and end of the measured part. *)
type counters = {
  c_nvm_settled : int;  (** NVM bytes of committed checkpoints *)
  c_wear : int;  (** all NVM bytes written *)
  c_subsys : (string * int) list;
  c_drained : int;
  c_drain_cow : int;
  c_drain_ns : int;
  c_drain_windows : int;
}

let counters sys =
  let m = Probe.metrics (System.obs sys) in
  let wm = System.wearmap sys in
  let drain = Metrics.histogram m "ckpt.drain_ns" in
  {
    c_nvm_settled = Metrics.counter_value m "ckpt.nvm.bytes";
    c_wear = Wearmap.total_bytes wm;
    c_subsys = List.map (fun (n, _, b) -> (n, b)) (Wearmap.subsystems wm);
    c_drained = Metrics.counter_value m "ckpt.drain.pages";
    c_drain_cow = Metrics.counter_value m "ckpt.drain.cow_faults";
    c_drain_ns = (match drain with Some h -> Histogram.total h | None -> 0);
    c_drain_windows = (match drain with Some h -> Histogram.count h | None -> 0);
  }

let delta a b =
  {
    c_nvm_settled = a.c_nvm_settled - b.c_nvm_settled;
    c_wear = a.c_wear - b.c_wear;
    c_subsys =
      List.map
        (fun (n, x) -> (n, x - Option.value ~default:0 (List.assoc_opt n b.c_subsys)))
        a.c_subsys;
    c_drained = a.c_drained - b.c_drained;
    c_drain_cow = a.c_drain_cow - b.c_drain_cow;
    c_drain_ns = a.c_drain_ns - b.c_drain_ns;
    c_drain_windows = a.c_drain_windows - b.c_drain_windows;
  }

(* Count and virtual-clock metrics of a serving pass; [d] holds the
   counter deltas over the measured part. *)
let serve_values st d (k : kernel_count) ~requests ~vtput_kreq_s =
  let reports = List.rev st.captures in
  let commits = List.length reports in
  let sum f = List.fold_left (fun a r -> a + f r) 0 reports in
  let per_commit f = ratio (sum f) commits in
  let per_commit_us f = per_commit f /. 1e3 in
  let psz = (Kernel.cost (System.kernel st.sys)).Treesls_sim.Cost.page_size in
  let logical =
    psz
    * (sum (fun r -> r.Report.pages_protected)
      + sum (fun r -> r.Report.dram_dirty_copied)
      + d.c_drained)
  in
  let walked = sum (fun r -> r.Report.objects_walked) in
  let skipped = sum (fun r -> r.Report.objects_skipped) in
  let stw = stats_of (List.map (fun r -> r.Report.stw_ns) reports) in
  let subsys n = Option.value ~default:0 (List.assoc_opt n d.c_subsys) in
  let enq2vis = Rtrace.enq2vis_summary (Probe.rtrace (System.obs st.sys)) in
  pct ~div:1e3 "lat_p50_us" st.lat 50.0
  @ pct ~div:1e3 "lat_p99_us" st.lat 99.0
  @ [ ("vtput_kreq_s", vtput_kreq_s) ]
  @ pct ~div:1e3 "stw_p50_us" stw 50.0
  @ pct ~div:1e3 "stw_p99_us" stw 99.0
  @ [
      ("waf", ratio d.c_nvm_settled logical);
      ("ckpt_nvm_mb", mib (Manager.checkpoint_bytes (System.manager st.sys)));
      ("kernel.page_faults_per_req", ratio k.faults requests);
      ("kernel.cow_faults_per_req", ratio k.cow_faults requests);
      ("kernel.ipc_calls_per_req", ratio k.ipc requests);
      ("ckpt.objects_walked", per_commit (fun r -> r.Report.objects_walked));
      ("ckpt.objects_skipped", per_commit (fun r -> r.Report.objects_skipped));
      ("ckpt.visit_useful_pct", 100.0 *. ratio walked (walked + skipped));
      ("ckpt.captree_us.mean", per_commit_us (fun r -> r.Report.captree_ns));
      ("ckpt.ipi_us.mean", per_commit_us (fun r -> r.Report.ipi_ns));
      ("ckpt.others_us.mean", per_commit_us (fun r -> r.Report.others_ns));
      ("ckpt.hybrid_us.mean", per_commit_us (fun r -> r.Report.hybrid_ns));
      ("ckpt.pages_protected", per_commit (fun r -> r.Report.pages_protected));
      ("ckpt.dram_dirty_copied", per_commit (fun r -> r.Report.dram_dirty_copied));
      ("active_list.cached_pages", per_commit (fun r -> r.Report.cached_pages));
      ("active_list.migrated_in", per_commit (fun r -> r.Report.migrated_in));
      ("active_list.migrated_out", per_commit (fun r -> r.Report.migrated_out));
      ("drain.pages", ratio d.c_drained commits);
      ("drain.cow_faults", ratio d.c_drain_cow commits);
      ("drain.us.mean", ratio d.c_drain_ns d.c_drain_windows /. 1e3);
      ("drain.backlog_max", float_of_int st.backlog_max);
      ("nvm.bytes_per_req", ratio d.c_wear requests);
    ]
  @ List.map (fun n -> ("nvm." ^ n ^ "_bytes_per_req", ratio (subsys n) requests)) Spec.wear_subsystems
  @ [
      ("extsync.enq2vis_us.p99", float_of_int enq2vis.Rtrace.s_p99_ns /. 1e3);
      ("extsync.enq2vis_us.p99.n", float_of_int enq2vis.Rtrace.s_count);
      ("extsync.shed", float_of_int st.shed);
      ("extsync.delivered", float_of_int (Array.fold_left ( + ) 0 st.seen));
    ]
  @ pct ~div:1e3 "loadgen.late_us.p99" st.late 99.0

let restore_values (rs : Rto.record list) =
  let st f = stats_of (List.map f rs) in
  let phase p r = Option.value ~default:0 (List.assoc_opt p r.Rto.r_phases) in
  pct ~div:1e3 "downtime_p50_us" (st (fun r -> r.Rto.r_downtime_ns)) 50.0
  @ pct ~div:1e3 "downtime_p99_us" (st (fun r -> r.Rto.r_downtime_ns)) 99.0
  @ List.concat_map
      (fun p -> pct ~div:1e3 ("restore.phase." ^ p ^ "_us.p50") (st (phase p)) 50.0)
      Spec.restore_phases
  @ pct ~div:1e3 "restore.ttfr_us.p50" (st (fun r -> r.Rto.r_ttfr_ns)) 50.0
  @ [
      ("restore.objects", mean (st (fun r -> r.Rto.r_restored_objects)));
      ("restore.pages", mean (st (fun r -> r.Rto.r_pages_restored)));
    ]

let run_serve cfg ~seed ~trace =
  let (sys, tenants, rng), setup_s, setup_ref_s = timed_setup (fun () -> boot_serve cfg ~seed) in
  let n = cfg.tenants in
  let pick =
    if cfg.zipf then begin
      let z = Zipf.create ~theta:0.99 ~n (Rng.split rng) in
      fun () -> Zipf.next z
    end
    else begin
      let next = ref (-1) in
      fun () ->
        next := (!next + 1) mod n;
        !next
    end
  in
  let st =
    {
      cfg;
      sys;
      tenants;
      rng;
      due = Array.init n (fun _ -> Queue.create ());
      open_left = Array.make n 0;
      seen = Array.make n 0;
      ver = System.version sys;
      req = 0;
      shed = 0;
      resent = 0;
      mid_drain = 0;
      lat = Stats.create ();
      late = Stats.create ();
      captures = [];
      backlog_max = 0;
      restores = [];
      kernel = { faults = 0; cow_faults = 0; ipc = 0 };
      epoch = kernel_mark sys;
      tr = (if trace then Some (Spans.create ~vnow:(fun () -> System.now_ns sys)) else None);
      errors = [];
    }
  in
  Array.iteri (fun i tn -> st.seen.(i) <- delivered st tn) tenants;
  let c0 = counters sys in
  (* cumulative request counts at which a power cut falls *)
  let cut_at =
    match cfg.cuts with
    | None -> [||]
    | Some (n, k) ->
      let r = Rng.split rng in
      let total = ref 0 in
      Array.init n (fun _ ->
          total := !total + (k / 2) + Rng.int r (k + 1);
          !total)
  in
  let open_n = if cut_at = [||] then cfg.open_n else cut_at.(Array.length cut_at - 1) in
  let attempted = open_n + cfg.closed_n in
  let h1 = Spans.host_now () in
  let ck = chunker () in
  let t0 = System.now_ns sys in
  let next_cut = ref 0 in
  for j = 0 to open_n - 1 do
    issue st (pick ()) ~due:(t0 + (j * cfg.gap_ns)) ~open_:true;
    if !next_cut < Array.length cut_at && j + 1 = cut_at.(!next_cut) then begin
      crash_and_recover st;
      incr next_cut
    end;
    count_op ck
  done;
  let closed0 = System.now_ns sys in
  for _ = 1 to cfg.closed_n do
    issue st (pick ()) ~due:(System.now_ns sys) ~open_:false;
    count_op ck
  done;
  let closed_ns = System.now_ns sys - closed0 in
  release_all st;
  close_chunk ck;
  let host_s = secs_since h1 in
  kernel_add st.kernel ~since:st.epoch sys;
  let d = delta (counters sys) c0 in
  Array.iteri
    (fun i tn ->
      if not (Queue.is_empty st.due.(i)) then
        fail st "%s: %d replies never became visible" (Tenant.name tn) (Queue.length st.due.(i)))
    tenants;
  read_samples st;
  if List.length st.restores <> Array.length cut_at then
    fail st "%d recoveries, wanted %d" (List.length st.restores) (Array.length cut_at);
  let vtput_kreq_s = ratio cfg.closed_n closed_ns *. 1e6 in
  let traced =
    match st.tr with
    | None -> []
    | Some tr ->
      let r = Spans.host_samples tr Spans.Restore_recover in
      serve_span_values tr ~host_s
      @ pct ~div:1e6 "restore.host_ms.p50" r 50.0
      @ pct ~div:1e6 "restore.host_ms.p99" r 99.0
  in
  {
    setup_s;
    setup_ref_s;
    host_s;
    chunks = ck.done_;
    attempted;
    failed = st.shed;
    values =
      serve_values st d st.kernel ~requests:st.req ~vtput_kreq_s
      @ [
          ("extsync.resent", float_of_int st.resent);
          ("restore.mid_drain", float_of_int st.mid_drain);
          ("fail_pct", 100.0 *. ratio st.shed attempted);
        ]
      @ restore_values st.restores @ traced;
    failures = List.rev st.errors;
    spans = st.tr;
  }

(* ---- crash exploration ------------------------------------------------ *)

let drain_sites = [ "ckpt.drain.copied"; "ckpt.drain.settled"; "ckpt.cow_fault.resolved" ]

(* Full scale runs about 60 schedules over both sweeps.  Smoke runs one
   commit schedule: a schedule costs ~0.2 s of host time whatever its
   length, most of it booting the victim system. *)
let sweep_config ~trace_seed ~async = function
  | Full ->
    {
      Crashtest.default_config with
      seed = trace_seed;
      ops = 60;
      commit_cap = 3;
      per_site_cap = 2;
      op_cap = 2;
      async;
    }
  | Smoke ->
    {
      Crashtest.default_config with
      seed = trace_seed;
      ops = 60;
      phases = [ Treesls_nvm.Warea.Mid_apply ];
      commit_cap = 1;
      include_sites = false;
      include_op_crashes = false;
      async;
    }

(* Only the enumeration run: no kind of schedule enabled. *)
let enumeration_only cfg =
  { cfg with Crashtest.phases = []; include_sites = false; include_op_crashes = false }

(* One sweep; its set-up is the enumeration run, which ends where the
   first schedule starts. *)
let sweep ?(ck = chunker ()) tr cfg =
  let h0 = Spans.host_now () in
  let first = ref 0 and open_span = ref None in
  let close_span () = match tr with Some t -> Option.iter (Spans.exit t) !open_span | None -> () in
  let progress i _ =
    close_span ();
    if i = 0 then begin
      first := Spans.host_now ();
      restart ck
    end
    else count_op ck;
    Option.iter
      (fun t -> open_span := Some (Spans.enter t Spans.Crashtest_schedule ~parent:(-1) ~req:i))
      tr
  in
  let sw = Crashtest.run ~progress cfg in
  close_span ();
  if !first = 0 then first := Spans.host_now ()
  else begin
    count_op ck;
    close_chunk ck
  end;
  let h1 = Spans.host_now () in
  (sw, float_of_int (!first - h0) /. 1e9, float_of_int (h1 - !first) /. 1e9)

let hits_drain_sites (sw : Crashtest.sweep) =
  List.for_all (fun s -> List.mem_assoc s sw.Crashtest.site_hits) drain_sites

(* The sweep's trace comes from the seed, drawn again until the async
   trace reaches all three drain crash sites: a 60-op trace misses the CoW
   fault site for about a third of the seeds.  Part of making the input,
   so not timed as set-up. *)
let trace_seeds = Hashtbl.create 4

let trace_seed ~seed scale =
  let rec find k =
    if k = 64 then seed
    else
      let cand = seed + (k * 1_000_003) in
      let sw, _, _ = sweep None (enumeration_only (sweep_config ~trace_seed:cand ~async:true scale)) in
      if hits_drain_sites sw then cand else find (k + 1)
  in
  match Hashtbl.find_opt trace_seeds (seed, scale) with
  | Some s -> s
  | None ->
    let s = find 0 in
    Hashtbl.add trace_seeds (seed, scale) s;
    s

(* Full scale sweeps without and with the async drain; smoke only with it,
   since every schedule boots a system (~0.25 s of host time). *)
let sweep_modes = function Full -> [ false; true ] | Smoke -> [ true ]

let run_sweep ~seed ~scale ~trace =
  let trace_seed = trace_seed ~seed scale in
  let tr = if trace then Some (Spans.create ~vnow:(fun () -> 0)) else None in
  let ck = chunker () in
  let setup_ref_s = Reference.time () in
  let runs =
    List.map
      (fun async -> (async, sweep ~ck tr (sweep_config ~trace_seed ~async scale)))
      (sweep_modes scale)
  in
  let total f = List.fold_left (fun a (_, r) -> a +. f r) 0.0 runs in
  let sweeps = List.map (fun (_, (sw, _, _)) -> sw) runs in
  let count f = List.fold_left (fun a sw -> a + f sw) 0 sweeps in
  let schedules = count (fun sw -> List.length sw.Crashtest.results) in
  let failed_l = List.concat_map (fun sw -> sw.Crashtest.failed) sweeps in
  (* with zero failures every scheduled site fired, since a schedule whose
     crash never fires fails; so reaching a site in the enumeration run is
     what is left to check *)
  let failures =
    List.map
      (fun (r : Crashtest.result) ->
        Printf.sprintf "schedule %s: %s"
          (Crashtest.point_to_string r.Crashtest.point)
          (Crashtest.outcome_to_string r.Crashtest.outcome))
      failed_l
    @ List.filter_map
        (fun (async, (sw, _, _)) ->
          if (not async) || hits_drain_sites sw then None
          else Some (Printf.sprintf "async sweep (trace seed %d) missed a drain crash site" trace_seed))
        runs
  in
  let failed = List.length failed_l in
  let enum_s = total (fun (_, e, _) -> e) in
  let values =
    [
      ("fail_pct", 100.0 *. ratio failed schedules);
      ("crashtest.enum_host_s", enum_s);
      ("crashtest.schedules", float_of_int schedules);
      ("crashtest.commit_points", float_of_int (count (fun sw -> sw.Crashtest.commit_points)));
    ]
    @
    match tr with
    | Some t ->
      let s = Spans.host_samples t Spans.Crashtest_schedule in
      pct ~div:1e6 "crashtest.sched_host_ms.p50" s 50.0
      @ pct ~div:1e6 "crashtest.sched_host_ms.p99" s 99.0
    | None -> []
  in
  {
    setup_s = enum_s;
    setup_ref_s;
    host_s = total (fun (_, _, s) -> s);
    chunks = ck.done_;
    attempted = schedules;
    failed;
    values;
    failures;
    spans = tr;
  }

let sweep_setup ~seed scale =
  let trace_seed = trace_seed ~seed scale in
  let ref_s = Reference.time () in
  let enum_s =
    List.fold_left
      (fun acc async ->
        let _, enum_s, _ = sweep None (enumeration_only (sweep_config ~trace_seed ~async scale)) in
        acc +. enum_s)
      0.0 (sweep_modes scale)
  in
  (enum_s, ref_s)

let serve_setup cfg ~seed =
  let _, setup_s, ref_s = timed_setup (fun () -> boot_serve cfg ~seed) in
  (setup_s, ref_s)

type t = {
  name : string;
  run : seed:int -> scale -> trace:bool -> pass;
  setup : seed:int -> scale -> float * float;
      (** host seconds of one more set-up, and the reference loop time before it *)
  gates : (string -> float) -> string list;
      (** validity: the workload still exercises the layers it was chosen for *)
}

let gate cond fmt = Printf.ksprintf (fun m -> if cond then [] else [ m ]) fmt

let late_gate v =
  gate
    (v "loadgen.late_us.p99" < late_limit_us)
    "loadgen.late_us.p99 = %.1f us, not below the %.0f us interval: offered load not sustained"
    (v "loadgen.late_us.p99") late_limit_us

(* Smoke scale keeps each workload's configuration and validity gates but
   shrinks tenants and requests so that every workload, traced and
   untraced, runs in a few seconds in total. *)
let serve_skewed_cfg scale =
  let tenants, open_n, closed_n =
    match scale with Full -> (64, 120_000, 12_000) | Smoke -> (8, 3_000, 300)
  in
  {
    tenants;
    zipf = true;
    mix = Ycsb.B;
    value_size = 64;
    drain_batch = Some 16;
    gap_ns = 10_000;
    open_n;
    closed_n;
    cuts = None;
    nvm_pages = (if tenants > 16 then 1 lsl 17 else 1 lsl 16);
  }

let serve_write_cfg scale =
  let tenants, open_n, closed_n =
    match scale with Full -> (16, 200_000, 20_000) | Smoke -> (4, 3_000, 300)
  in
  {
    tenants;
    zipf = false;
    mix = Ycsb.A;
    value_size = 1024;
    drain_batch = None;
    gap_ns = 10_000;
    open_n;
    closed_n;
    cuts = None;
    nvm_pages = 1 lsl 16;
  }

(* 1000 power cuts, one every 50 to 150 requests due 23 us apart.  An
   epoch of 100 requests spans 4.6 checkpoint intervals: pages get cached,
   dirtied and staged for the drain before the cut, and recovery plus the
   resent replies still fit in the epoch.  The random epoch lengths move
   the cut around the checkpoint cycle, and a 4-page drain batch keeps a
   staged window open for several requests, so some cuts fall inside one. *)
let recover_live_cfg scale =
  let tenants, crashes = match scale with Full -> (16, 1_000) | Smoke -> (2, 40) in
  {
    tenants;
    zipf = false;
    mix = Ycsb.A;
    value_size = 64;
    drain_batch = Some 4;
    gap_ns = 23_000;
    open_n = 0;
    closed_n = 0;
    cuts = Some (crashes, 100);
    nvm_pages = 1 lsl 16;
  }

let all =
  [
    {
      name = Spec.serve_skewed;
      run = (fun ~seed scale ~trace -> run_serve (serve_skewed_cfg scale) ~seed ~trace);
      setup = (fun ~seed scale -> serve_setup (serve_skewed_cfg scale) ~seed);
      gates =
        (fun v ->
          gate (v "ckpt.visit_useful_pct" <= 10.0) "ckpt.visit_useful_pct = %.2f, above 10"
            (v "ckpt.visit_useful_pct")
          @ gate (v "drain.pages" > 0.0) "drain.pages = 0: the async drain never ran"
          @ late_gate v);
    };
    {
      name = Spec.serve_write;
      run = (fun ~seed scale ~trace -> run_serve (serve_write_cfg scale) ~seed ~trace);
      setup = (fun ~seed scale -> serve_setup (serve_write_cfg scale) ~seed);
      gates =
        (fun v ->
          gate (v "drain.pages" = 0.0) "drain.pages = %.2f: eager commit drained pages"
            (v "drain.pages")
          @ gate (v "active_list.migrated_in" > 0.0) "active_list.migrated_in = 0: no page cached"
          @ gate (v "ckpt.dram_dirty_copied" > 0.0) "ckpt.dram_dirty_copied = 0: no hybrid copy"
          @ late_gate v);
    };
    {
      name = Spec.recover_live;
      run = (fun ~seed scale ~trace -> run_serve (recover_live_cfg scale) ~seed ~trace);
      setup = (fun ~seed scale -> serve_setup (recover_live_cfg scale) ~seed);
      gates =
        (fun v ->
          gate (v "drain.pages" > 0.0) "drain.pages = 0: the async drain never ran"
          @ gate (v "restore.mid_drain" > 0.0)
              "restore.mid_drain = 0: no power cut found a staged drain window");
    };
    {
      name = Spec.crash_sweep;
      run = (fun ~seed scale ~trace -> run_sweep ~seed ~scale ~trace);
      setup = sweep_setup;
      gates = (fun _ -> []);
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
