(* Visible-latency observatory: checkpoint interval vs the enqueue->visible
   delay that external synchrony imposes on every reply (ISSUE 3 tentpole;
   companion to Figures 11/12).

   An open-loop Memcached SET stream arrives at a fixed gap; every reply is
   parked in the network server's persistent ring and released by the next
   checkpoint commit.  The request tracer (Rtrace, via Probe) stamps each
   request's arrive/handled/enqueue/visible times and the commit version
   that released it, so this experiment reads percentiles straight from the
   probe instead of re-deriving them in the driver.

   Expected shape: a reply enqueues uniformly within a checkpoint interval,
   so enqueue->visible ~ interval/2 + STW at p50 and ~ interval at p99. *)

open Exp_common
module Net_server = Treesls_extsync.Net_server
module Rtrace = Treesls_obs.Rtrace
module Probe = Treesls_obs.Probe

let intervals_us () = if !smoke then [ 1000 ] else [ 500; 1000; 2000; 5000 ]
let n_ops () = if !smoke then 2_000 else 20_000
let gap_ns = 3_000
let keys = 10_000

let run_one ~interval_us =
  let sys = boot ~interval_us () in
  let rng = Rng.create 43L in
  let app = Kv_app.launch ~keys_hint:keys ~value_size:100 sys Kv_app.Memcached in
  for i = 0 to (keys / 4) - 1 do
    Kv_app.set_i app i
  done;
  let netdrv =
    match Kernel.find_process (System.kernel sys) ~name:"netdrv" with
    | Some p -> p
    | None -> failwith "netdrv missing"
  in
  let delivered = ref 0 in
  let deliver ~client:_ ~sent_ns:_ ~payload:_ = incr delivered in
  let net = Net_server.create (System.kernel sys) (System.manager sys) ~proc:netdrv ~deliver in
  (* settle past the boot-time full checkpoint before measuring *)
  ignore (System.checkpoint sys);
  let n = n_ops () in
  let t0 = System.now_ns sys in
  for i = 0 to n - 1 do
    ignore (System.advance_to sys (t0 + (i * gap_ns)));
    Kv_app.set_i app (Rng.int rng keys);
    ignore (Net_server.send net ~client:(i land 31) (Bytes.of_string "+OK"));
    ignore (System.tick sys)
  done;
  (* one more commit so the final partial interval's replies release too *)
  ignore (System.checkpoint sys);
  let rt = Probe.rtrace (System.obs sys) in
  let enq2vis = Rtrace.enq2vis_summary rt in
  let e2e = Rtrace.e2e_summary rt in
  (* acceptance: every released reply names the commit that released it *)
  let completed = Rtrace.completed rt in
  let unattributed =
    List.length
      (List.filter
         (fun r -> r.Rtrace.rq_outcome = Rtrace.Released && r.Rtrace.rq_commit_ver = 0)
         completed)
  in
  let commits = List.length (Rtrace.per_version rt) in
  let stw_us =
    match Manager.last_report (System.manager sys) with
    | Some r -> float_of_int r.Report.stw_ns /. 1e3
    | None -> 0.0
  in
  (sys, net, rt, enq2vis, e2e, unattributed, commits, stw_us, !delivered)

let run () =
  let rows =
    List.map
      (fun interval_us ->
        let _sys, net, rt, enq2vis, e2e, unattributed, commits, stw_us, delivered =
          run_one ~interval_us
        in
        let us v = float_of_int v /. 1e3 in
        emit_row
          ~config:
            [
              ("interval_us", string_of_int interval_us);
              ("ops", string_of_int (n_ops ()));
              ("gap_ns", string_of_int gap_ns);
            ]
          ~metrics:
            [
              ("enq2vis_p50_us", us enq2vis.Rtrace.s_p50_ns);
              ("enq2vis_p95_us", us enq2vis.Rtrace.s_p95_ns);
              ("enq2vis_p99_us", us enq2vis.Rtrace.s_p99_ns);
              ("enq2vis_mean_us", enq2vis.Rtrace.s_mean_ns /. 1e3);
              ("e2e_p50_us", us e2e.Rtrace.s_p50_ns);
              ("e2e_p99_us", us e2e.Rtrace.s_p99_ns);
              ("released", float_of_int (Rtrace.released_count rt));
              ("shed", float_of_int (Rtrace.shed_count rt));
              ("ring_dropped", float_of_int (Net_server.dropped net));
              ("delivered", float_of_int delivered);
              ("commits_attributed", float_of_int commits);
              ("unattributed", float_of_int unattributed);
              ("stw_us", stw_us);
            ];
        [
          string_of_int interval_us;
          string_of_int (Rtrace.released_count rt);
          f1 (us enq2vis.Rtrace.s_p50_ns);
          f1 (us enq2vis.Rtrace.s_p95_ns);
          f1 (us enq2vis.Rtrace.s_p99_ns);
          f1 (us e2e.Rtrace.s_p50_ns);
          f1 ((float_of_int interval_us /. 2.0) +. stw_us);
          string_of_int commits;
          string_of_int unattributed;
        ])
      (intervals_us ())
  in
  Table.print
    ~title:
      (Printf.sprintf "External-synchrony visible latency (open loop, %d ops, %dns gap)"
         (n_ops ()) gap_ns)
    ~header:
      [
        "Interval (us)";
        "Released";
        "E2V p50 (us)";
        "E2V p95";
        "E2V p99";
        "E2E p50";
        "~iv/2+stw";
        "Commits";
        "Unattrib";
      ]
    rows;
  if List.exists (fun row -> List.nth row 8 <> "0") rows then begin
    Printf.eprintf "extsync_lat: released replies without a commit version\n";
    exit 2
  end
