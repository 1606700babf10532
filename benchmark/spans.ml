(* Spans recorded by the benchmark around each call it makes into a library
   layer.  Every span carries both clocks (host ns from the monotonic clock,
   virtual ns from the simulator), its parent span and the request id it
   belongs to.  The most recent [capacity] spans are kept in flat arrays
   for export; every span's durations also feed per-kind sample sets, from
   which the per-layer table is aggregated. *)

module Stats = Treesls_util.Stats

type kind =
  | Request  (** one client request: the root of its op-boundary spans *)
  | Serve_step
  | Drain_step
  | Ckpt_capture  (** a checkpoint fired by the tick after a request *)
  | Ckpt_deadline  (** a checkpoint fired while the load generator waited for a due time *)
  | Restore_recover
  | Crashtest_schedule

let kinds =
  [ Request; Serve_step; Drain_step; Ckpt_capture; Ckpt_deadline; Restore_recover; Crashtest_schedule ]

let index = function
  | Request -> 0
  | Serve_step -> 1
  | Drain_step -> 2
  | Ckpt_capture -> 3
  | Ckpt_deadline -> 4
  | Restore_recover -> 5
  | Crashtest_schedule -> 6

let name = function
  | Request -> "serve.request"
  | Serve_step -> "serve.step"
  | Drain_step -> "drain.step"
  | Ckpt_capture -> "ckpt.capture"
  | Ckpt_deadline -> "ckpt.deadline"
  | Restore_recover -> "restore.recover"
  | Crashtest_schedule -> "crashtest.schedule"

let capacity = 65_536
let host_now () = Int64.to_int (Monotonic_clock.now ())

type t = {
  vnow : unit -> int;
  kind : int array;
  h0 : int array;
  h1 : int array;
  v0 : int array;
  v1 : int array;
  parent : int array;  (** sequence number of the parent span, -1 for roots *)
  req : int array;
  mutable seq : int;  (** spans opened so far; span [s] lives in slot [s mod capacity] *)
  host_ns : Stats.t array;  (** per kind: host duration of every span *)
  virt_ns : Stats.t array;  (** per kind: virtual duration of every span *)
}

let create ~vnow =
  let arr () = Array.make capacity 0 in
  {
    vnow;
    kind = arr ();
    h0 = arr ();
    h1 = arr ();
    v0 = arr ();
    v1 = arr ();
    parent = arr ();
    req = arr ();
    seq = 0;
    host_ns = Array.init (List.length kinds) (fun _ -> Stats.create ());
    virt_ns = Array.init (List.length kinds) (fun _ -> Stats.create ());
  }

let enter t kind ~parent ~req =
  let s = t.seq in
  let i = s mod capacity in
  t.seq <- s + 1;
  t.kind.(i) <- index kind;
  t.parent.(i) <- parent;
  t.req.(i) <- req;
  t.v0.(i) <- t.vnow ();
  t.h0.(i) <- host_now ();
  s

let exit t s =
  let h1 = host_now () in
  let i = s mod capacity in
  t.h1.(i) <- h1;
  t.v1.(i) <- t.vnow ();
  let k = t.kind.(i) in
  Stats.add t.host_ns.(k) (float_of_int (h1 - t.h0.(i)));
  Stats.add t.virt_ns.(k) (float_of_int (t.v1.(i) - t.v0.(i)))

(* [wrap tr kind ~parent ~req f]: run [f], inside a span when tracing. *)
let wrap tr kind ~parent ~req f =
  match tr with
  | None -> f ()
  | Some t ->
    let s = enter t kind ~parent ~req in
    let r = f () in
    exit t s;
    r

let host_samples t kind = t.host_ns.(index kind)
let virt_samples t kind = t.virt_ns.(index kind)

let host_total_ns t kind =
  let st = host_samples t kind in
  if Stats.is_empty st then 0.0 else Stats.total st

(* Chrome trace_event JSON of the retained spans, on the host clock; the
   virtual interval, parent and request id ride in [args]. *)
let to_chrome_json t =
  let b = Buffer.create (1 lsl 20) in
  let first = max 0 (t.seq - capacity) in
  let origin = if t.seq = 0 then 0 else t.h0.(first mod capacity) in
  Buffer.add_string b "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  for s = first to t.seq - 1 do
    let i = s mod capacity in
    if s > first then Buffer.add_char b ',';
    Printf.bprintf b
      "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%d,\"parent\":%d,\"req\":%d,\"vt0_ns\":%d,\"vt1_ns\":%d}}"
      (name (List.nth kinds t.kind.(i)))
      (float_of_int (t.h0.(i) - origin) /. 1e3)
      (float_of_int (t.h1.(i) - t.h0.(i)) /. 1e3)
      s t.parent.(i) t.req.(i) t.v0.(i) t.v1.(i)
  done;
  Buffer.add_string b "]}\n";
  Buffer.contents b
