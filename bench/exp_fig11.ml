(* Figure 11: Memcached SET/GET latency (P50/P95) under different
   checkpoint intervals. Requests arrive open-loop, so a request landing
   in (or queued behind) a stop-the-world pause pays for it — the paper's
   client-observed latency. Baseline = checkpointing disabled. *)

open Exp_common

let intervals_ms = [ 1; 5; 10; 50 ]
let n_ops = 30_000

(* Arrival gaps push the server close to saturation, like the paper's
   8-threaded closed-loop client: queueing makes STW pauses visible in
   the tail percentiles. *)
let gap_ns_for = function `Set -> 4_200 | `Get -> 2_600

let run_one ~interval_us ~op =
  let features =
    if interval_us = 0 then features State.Off
    else full_features ()
  in
  let sys = boot ~interval_us:(max 1000 interval_us) ~features () in
  if interval_us = 0 then System.set_interval_us sys None
  else System.set_interval_us sys (Some interval_us);
  let rng = Rng.create 29L in
  let app = Kv_app.launch ~keys_hint:40_000 ~value_size:100 sys Kv_app.Memcached in
  for i = 0 to 19_999 do
    Kv_app.set_i app i
  done;
  run_ops sys ~n:2_000 (fun () -> Kv_app.set_i app (Rng.int rng 20_000));
  let step _i =
    let k = Rng.int rng 20_000 in
    match op with `Set -> Kv_app.set_i app k | `Get -> ignore (Kv_app.get_i app k)
  in
  open_loop sys ~n:n_ops ~gap_ns:(gap_ns_for op) step

let run () =
  let table op label =
    let baseline = run_one ~interval_us:0 ~op in
    let emit ~interval r =
      emit_row
        ~config:[ ("op", label); ("interval", interval) ]
        ~metrics:
          [ ("p50_us", r.p50_us); ("p95_us", r.p95_us); ("tput_kops", r.tput_kops) ]
    in
    emit ~interval:"baseline" baseline;
    let rows =
      List.map
        (fun ms ->
          let r = run_one ~interval_us:(ms * 1000) ~op in
          emit ~interval:(Printf.sprintf "%dms" ms) r;
          [ Printf.sprintf "%d ms" ms; f1 r.p50_us; f1 r.p95_us ])
        intervals_ms
      @ [ [ "baseline (no ckpt)"; f1 baseline.p50_us; f1 baseline.p95_us ] ]
    in
    Table.print
      ~title:(Printf.sprintf "Figure 11(%s): Memcached %s latency vs checkpoint interval" label label)
      ~header:[ "Checkpoint interval"; "P50 (us)"; "P95 (us)" ]
      rows
  in
  table `Set "SET";
  table `Get "GET"
