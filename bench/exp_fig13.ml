(* Figure 13: YCSB on Redis. Four configurations:
   TreeSLS-base (no persistence), TreeSLS-1ms (transparent checkpoints),
   Linux-base (no persistence), Linux-WAL (Redis AOF on Ext4-DAX). *)

open Exp_common
module Ycsb = Treesls_workloads.Ycsb
module Linux_redis = Treesls_baselines.Linux_redis
module Machine = Treesls_baselines.Machine

let keys = 20_000
let n_ops = 25_000
let value_size = 1024

let run_treesls ~ckpt workload =
  let features =
    if ckpt then full_features () else features State.Off
  in
  let sys = boot ~interval_us:1000 ~features () in
  let rng = Rng.create 37L in
  let app = Kv_app.launch ~keys_hint:(keys * 2) ~value_size sys Kv_app.Redis in
  for i = 0 to keys - 1 do
    Kv_app.set_i app i
  done;
  let gen = Ycsb.create workload ~keys rng in
  let t0 = System.now_ns sys in
  for _ = 1 to n_ops do
    (match Ycsb.next gen with
    | Ycsb.Read k -> ignore (Kv_app.get_i app k)
    | Ycsb.Update k | Ycsb.Insert k -> Kv_app.set_i app k);
    ignore (System.tick sys)
  done;
  let sim_s = float_of_int (System.now_ns sys - t0) /. 1e9 in
  float_of_int n_ops /. sim_s /. 1e3

let run_linux mode workload =
  let lx = Linux_redis.create mode in
  Linux_redis.load lx ~keys ~value_size;
  let rng = Rng.create 37L in
  let gen = Ycsb.create workload ~keys rng in
  Machine.reset_measurement (Linux_redis.machine lx);
  for _ = 1 to n_ops do
    Linux_redis.do_op lx ~value_size (Ycsb.next gen)
  done;
  Machine.throughput_kops (Linux_redis.machine lx)

let run () =
  let rows =
    List.map
      (fun w ->
        [
          Ycsb.name w;
          f1 (run_treesls ~ckpt:false w);
          f1 (run_treesls ~ckpt:true w);
          f1 (run_linux Linux_redis.Base w);
          f1 (run_linux Linux_redis.Wal w);
        ])
      Ycsb.all
  in
  Table.print ~title:"Figure 13: YCSB on Redis, throughput (KTPS)"
    ~header:[ "Workload"; "TreeSLS-base"; "TreeSLS-1ms"; "Linux-base"; "Linux-WAL" ]
    rows
