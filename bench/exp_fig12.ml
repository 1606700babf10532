(* Figure 12: Redis SET benchmark with and without external synchrony.
   50 clients each keep a batch of 32 requests outstanding (window 1600).
   With external synchrony, replies are parked in the network server's
   persistent ring and only released when a checkpoint commits: latency
   grows by about one checkpoint interval and the blocked clients cap
   throughput at window/interval. *)

open Exp_common
module Net_server = Treesls_extsync.Net_server

(* 50 clients x batch 16: the batch is scaled with our (lower) simulated
   service rate so client blocking binds at the same interval ratio as the
   paper's 50 x 32 against its faster testbed. *)
let window = 50 * 16
let n_ops = 60_000

type mode = Baseline | Ckpt_only | Ext_sync

let mode_name = function
  | Baseline -> "Baseline"
  | Ckpt_only -> "TreeSLS"
  | Ext_sync -> "TreeSLS-ExtSync"

let run_one mode ~interval_ms =
  let features =
    match mode with
    | Baseline -> features State.Off
    | Ckpt_only | Ext_sync -> full_features ()
  in
  let sys = boot ~interval_us:(interval_ms * 1000) ~features () in
  let rng = Rng.create 31L in
  let app = Kv_app.launch ~keys_hint:30_000 ~value_size:1024 sys Kv_app.Redis in
  for i = 0 to 9_999 do
    Kv_app.set_i app i
  done;
  match mode with
  | Baseline | Ckpt_only ->
    let r = closed_loop_lat sys ~n:n_ops (fun _ -> Kv_app.set_i app (Rng.int rng 30_000)) in
    (r.p50_us /. 1e3, r.tput_kops)
  | Ext_sync ->
    let h = Histogram.create () in
    let outstanding = ref 0 and done_ops = ref 0 in
    let netdrv =
      match Kernel.find_process (System.kernel sys) ~name:"netdrv" with
      | Some p -> p
      | None -> failwith "netdrv missing"
    in
    let deliver ~client:_ ~sent_ns ~payload:_ =
      Histogram.add h (System.now_ns sys - sent_ns);
      decr outstanding;
      incr done_ops
    in
    let net = Net_server.create (System.kernel sys) (System.manager sys) ~proc:netdrv ~deliver in
    let t0 = System.now_ns sys in
    while !done_ops < n_ops do
      if !outstanding >= window then
        (* all client credits consumed: idle until the next checkpoint
           releases the replies *)
        ignore (System.advance_to sys (System.now_ns sys + 50_000))
      else begin
        Kv_app.set_i app (Rng.int rng 30_000);
        if Net_server.send net ~client:(Rng.int rng 50) (Bytes.of_string "+OK") then
          incr outstanding
        else ignore (System.advance_to sys (System.now_ns sys + 50_000));
        ignore (System.tick sys)
      end
    done;
    let sim_ns = System.now_ns sys - t0 in
    let r = lat_of_histogram h ~ops:!done_ops ~sim_ns in
    (r.p50_us /. 1e3, r.tput_kops)

let run () =
  let rows =
    List.concat_map
      (fun interval_ms ->
        List.map
          (fun mode ->
            let p50_ms, tput = run_one mode ~interval_ms in
            emit_row
              ~config:
                [ ("interval_ms", string_of_int interval_ms); ("mode", mode_name mode) ]
              ~metrics:[ ("p50_ms", p50_ms); ("tput_kops", tput) ];
            [
              Printf.sprintf "%d ms" interval_ms;
              mode_name mode;
              Printf.sprintf "%.2f" p50_ms;
              f1 tput;
            ])
          [ Baseline; Ckpt_only; Ext_sync ])
      [ 1; 5; 10 ]
  in
  Table.print ~title:"Figure 12: Redis SET with/without external synchrony"
    ~header:[ "Ckpt interval"; "Config"; "P50 latency (ms)"; "Throughput (Kops/s)" ]
    rows
