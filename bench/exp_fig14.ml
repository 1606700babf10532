(* Figure 14: RocksDB with the Facebook Prefix_dist workload.
   TreeSLS runs the LSM app on the persistent microkernel (WAL disabled:
   persistence is transparent); Aurora configurations run on the two-tier
   DRAM+NVMe baseline simulator. Reported: throughput, P50 and P99 write
   latency.

   Each config is driven open-loop at ~85% of its own saturation rate
   (measured by a calibration pass), so stop-the-world pauses and journal
   barriers queue requests and surface in the tail percentiles, as in the
   paper's client-server setup. *)

open Exp_common
module Prefix_dist = Treesls_workloads.Prefix_dist
module Aurora = Treesls_baselines.Aurora
module Machine = Treesls_baselines.Machine

let n_ops = 40_000
let calib_ops = 10_000

type driver = {
  op : Prefix_dist.op -> unit;  (** run one op, charging its clock *)
  now : unit -> int;
  idle_to : int -> unit;  (** advance the clock to an arrival time *)
  is_write : Prefix_dist.op -> bool;
}

let drive d gen =
  (* warm up (cold faults, first checkpoints), then calibrate the mean
     service time on steady state *)
  for _ = 1 to calib_ops do
    d.op (Prefix_dist.next gen)
  done;
  let t0 = d.now () in
  for _ = 1 to calib_ops do
    d.op (Prefix_dist.next gen)
  done;
  let mean_ns = max 1 ((d.now () - t0) / calib_ops) in
  (* 40% headroom: enough for queues to drain between flush/pause bursts *)
  let gap = mean_ns * 140 / 100 in
  let h = Histogram.create () in
  let t1 = d.now () in
  for i = 0 to n_ops - 1 do
    let arrival = t1 + (i * gap) in
    if d.now () < arrival then d.idle_to arrival;
    let o = Prefix_dist.next gen in
    d.op o;
    if d.is_write o then Histogram.add h (d.now () - arrival)
  done;
  let sim_ns = d.now () - t1 in
  let tput = float_of_int n_ops /. (float_of_int sim_ns /. 1e9) /. 1e3 in
  ( tput,
    float_of_int (Histogram.percentile h 50.0) /. 1e3,
    float_of_int (Histogram.percentile h 99.0) /. 1e3 )

let is_write = function Prefix_dist.Put _ -> true | Prefix_dist.Get _ -> false

let run_treesls ~interval_us =
  let features =
    if interval_us = 0 then features State.Off
    else full_features ()
  in
  let sys = boot ~interval_us:(max 1000 interval_us) ~features () in
  if interval_us = 0 then System.set_interval_us sys None;
  let rng = Rng.create 41L in
  let gen = Prefix_dist.create rng in
  let app = Lsm.launch ~wal:false ~memtable_kb:4096 sys Lsm.Rocksdb in
  let d =
    {
      op =
        (fun o ->
          (match o with
          | Prefix_dist.Put { key; value } -> Lsm.put app ~key ~value
          | Prefix_dist.Get { key } -> ignore (Lsm.get app ~key));
          ignore (System.tick sys));
      now = (fun () -> System.now_ns sys);
      idle_to =
        (fun t ->
          (* idle time still takes periodic checkpoints *)
          let rec go () =
            if System.now_ns sys < t then begin
              (match Manager.next_deadline (System.manager sys) with
              | Some dl when dl <= t ->
                if System.now_ns sys < dl then
                  Clock.advance (System.clock sys) (dl - System.now_ns sys);
                ignore (System.tick sys)
              | Some _ | None -> Clock.advance (System.clock sys) (t - System.now_ns sys));
              go ()
            end
          in
          go ());
      is_write;
    }
  in
  drive d gen

let run_aurora mode =
  let a = Aurora.create mode in
  let m = Aurora.machine a in
  let rng = Rng.create 41L in
  let gen = Prefix_dist.create rng in
  let d =
    {
      op =
        (fun o ->
          match o with
          | Prefix_dist.Put { key; value } -> Aurora.put a ~key ~value
          | Prefix_dist.Get { key } -> ignore (Aurora.get a ~key));
      now = (fun () -> Machine.now m);
      idle_to = (fun t -> if Machine.now m < t then Machine.charge m (t - Machine.now m));
      is_write;
    }
  in
  drive d gen

let run () =
  let configs =
    [
      ("TreeSLS-base", `T 0);
      ("TreeSLS-5ms", `T 5000);
      ("TreeSLS-1ms", `T 1000);
      ("Aurora-base", `A Aurora.Base);
      ("Aurora-5ms", `A (Aurora.Ckpt 5_000_000));
      ("Aurora-API", `A Aurora.Api);
      ("Aurora-base-WAL", `A Aurora.Base_wal);
    ]
  in
  let rows =
    List.map
      (fun (name, cfg) ->
        let tput, p50, p99 =
          match cfg with `T us -> run_treesls ~interval_us:us | `A mode -> run_aurora mode
        in
        [ name; f1 tput; f2 p50; f2 p99 ])
      configs
  in
  Table.print ~title:"Figure 14: RocksDB with Facebook Prefix_dist"
    ~header:[ "Config"; "Throughput (Kops/s)"; "P50 write (us)"; "P99 write (us)" ]
    rows
