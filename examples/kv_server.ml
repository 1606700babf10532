(* A Memcached-style cache server made durable with zero persistence code,
   plus transparent external synchrony: replies are released only when the
   state they acknowledge has been checkpointed, so a client never sees an
   acknowledgement for data a crash can lose.

     dune exec examples/kv_server.exe
*)

module System = Treesls.System
module Kernel = Treesls_kernel.Kernel
module Kv_app = Treesls_apps.Kv_app
module Net_server = Treesls_extsync.Net_server

let () =
  let sys = System.boot ~interval_us:1000 () in
  let app = Kv_app.launch ~keys_hint:10_000 sys Kv_app.Memcached in

  (* The network driver parks responses in a persistent ring until the
     next checkpoint commit (delayed external visibility, paper §5). *)
  let acked = ref [] in
  let netdrv = Option.get (Kernel.find_process (System.kernel sys) ~name:"netdrv") in
  let net =
    Net_server.create (System.kernel sys) (System.manager sys) ~proc:netdrv
      ~deliver:(fun ~client ~sent_ns ~payload ->
        acked := Bytes.to_string payload :: !acked;
        Printf.printf "  -> client %d acked %S (delayed %.0f us)\n" client
          (Bytes.to_string payload)
          (float_of_int (System.now_ns sys - sent_ns) /. 1e3))
  in

  (* Serve some SET requests; each reply is queued, not sent. *)
  List.iteri
    (fun i key ->
      Kv_app.set app ~key ~value:(Printf.sprintf "value-%d" i);
      ignore (Net_server.send net ~client:i (Bytes.of_string key)))
    [ "user:alice"; "user:bob"; "user:carol" ];
  Printf.printf "3 SETs processed, %d replies pending (none visible yet)\n"
    (Net_server.pending net);

  (* Simulated time passes; the 1 ms checkpoint fires and releases them. *)
  ignore (System.advance_to sys (System.now_ns sys + 1_500_000));
  Printf.printf "after checkpoint: %d replies delivered\n" (List.length !acked);

  (* Now a request is processed but power fails before its checkpoint. *)
  Kv_app.set app ~key:"user:mallory" ~value:"lost";
  ignore (Net_server.send net ~client:9 (Bytes.of_string "user:mallory"));
  Printf.printf "4th SET processed; crashing before its checkpoint...\n";
  System.crash sys;
  ignore (System.recover sys);
  Kv_app.refresh app;
  let netdrv = Option.get (Kernel.find_process (System.kernel sys) ~name:"netdrv") in
  let _net =
    Net_server.reattach (System.kernel sys) (System.manager sys) ~proc:netdrv
      ~deliver:(fun ~client:_ ~sent_ns:_ ~payload ->
        acked := Bytes.to_string payload :: !acked)
  in

  (* Every acknowledged key is present; the unacknowledged one is gone —
     and its client was never told otherwise. *)
  List.iter
    (fun key ->
      match Kv_app.get app ~key with
      | Some v -> Printf.printf "  %-14s -> %S (acked, survived)\n" key v
      | None -> Printf.printf "  %-14s -> MISSING\n" key)
    !acked;
  assert (List.for_all (fun key -> Kv_app.get app ~key <> None) !acked);
  assert (not (List.mem "user:mallory" !acked));
  assert (Kv_app.get app ~key:"user:mallory" = None);
  Printf.printf "unacked key rolled back, was never acknowledged: OK\n"
