module Histogram = Treesls_util.Histogram

type outcome = Pending | Internal | Released | Shed | Dropped

let outcome_name = function
  | Pending -> "pending"
  | Internal -> "internal"
  | Released -> "released"
  | Shed -> "shed"
  | Dropped -> "dropped"

type req = {
  rq_id : int;
  rq_origin : string;
  rq_arrive_ns : int;
  mutable rq_handled_ns : int;
  mutable rq_enqueued_ns : int;
  mutable rq_visible_ns : int;
  mutable rq_commit_ver : int;
  mutable rq_ipc_calls : int;
  mutable rq_outcome : outcome;
}

(* completed-request records kept for [completed]/CLI inspection *)
let done_cap = 1024

type t = {
  done_buf : req option array;
  mutable done_total : int; (* completed requests ever; write index = total mod cap *)
  live : (int, req) Hashtbl.t;
  mutable next_id : int;
  mutable current : int; (* 0 = no ambient request *)
  enq2vis : Histogram.t;
  e2e : Histogram.t;
  (* Per-origin latency breakdown: origin -> (enq2vis, e2e).  Fed on
     release only, like the global pair; bounded by the origin vocabulary
     (op name, optionally prefixed by tenant). *)
  by_origin : (string, Histogram.t * Histogram.t) Hashtbl.t;
  mutable released : int;
  mutable internal : int;
  mutable shed : int;
  mutable dropped : int;
  mutable last_commit : (int * int * int) option; (* version, stw begin, stw end *)
  mutable per_version : (int * int) list; (* newest first: version -> released *)
}

let per_version_keep = 64

let create () =
  {
    done_buf = Array.make done_cap None;
    done_total = 0;
    live = Hashtbl.create 256;
    next_id = 1;
    current = 0;
    enq2vis = Histogram.create ();
    e2e = Histogram.create ();
    by_origin = Hashtbl.create 16;
    released = 0;
    internal = 0;
    shed = 0;
    dropped = 0;
    last_commit = None;
    per_version = [];
  }

let finish t rq =
  (match rq.rq_outcome with
  | Released -> t.released <- t.released + 1
  | Internal -> t.internal <- t.internal + 1
  | Shed -> t.shed <- t.shed + 1
  | Dropped -> t.dropped <- t.dropped + 1
  | Pending -> ());
  Hashtbl.remove t.live rq.rq_id;
  if t.current = rq.rq_id then t.current <- 0;
  t.done_buf.(t.done_total mod done_cap) <- Some rq;
  t.done_total <- t.done_total + 1

let arrive t ~now ~origin =
  (* A still-current request that never reached an extsync ring is purely
     internal: close its timeline so the live table stays bounded by the
     ring capacity (enqueued requests wait for their releasing commit). *)
  (match Hashtbl.find_opt t.live t.current with
  | Some prev when prev.rq_outcome = Pending && prev.rq_enqueued_ns < 0 ->
    prev.rq_outcome <- Internal;
    finish t prev
  | Some _ | None -> ());
  let id = t.next_id in
  t.next_id <- id + 1;
  let rq =
    {
      rq_id = id;
      rq_origin = origin;
      rq_arrive_ns = now;
      rq_handled_ns = -1;
      rq_enqueued_ns = -1;
      rq_visible_ns = -1;
      rq_commit_ver = 0;
      rq_ipc_calls = 0;
      rq_outcome = Pending;
    }
  in
  Hashtbl.replace t.live id rq;
  t.current <- id;
  id

let current_id t = t.current
let find_live t id = Hashtbl.find_opt t.live id

let handled t ~now =
  match Hashtbl.find_opt t.live t.current with
  | Some rq -> if rq.rq_handled_ns < 0 then rq.rq_handled_ns <- now
  | None -> ()

let note_ipc t =
  match Hashtbl.find_opt t.live t.current with
  | Some rq -> rq.rq_ipc_calls <- rq.rq_ipc_calls + 1
  | None -> ()

let enqueued t ~now =
  match Hashtbl.find_opt t.live t.current with
  | Some rq when rq.rq_outcome = Pending ->
    if rq.rq_enqueued_ns < 0 then rq.rq_enqueued_ns <- now;
    rq.rq_id
  | Some _ | None -> 0

let released t ~now ~id ~version =
  match Hashtbl.find_opt t.live id with
  | Some rq when rq.rq_outcome = Pending && rq.rq_enqueued_ns >= 0 ->
    rq.rq_visible_ns <- now;
    rq.rq_commit_ver <- version;
    rq.rq_outcome <- Released;
    Histogram.add t.enq2vis (now - rq.rq_enqueued_ns);
    Histogram.add t.e2e (now - rq.rq_arrive_ns);
    let o_enq2vis, o_e2e =
      match Hashtbl.find_opt t.by_origin rq.rq_origin with
      | Some pair -> pair
      | None ->
        let pair = (Histogram.create (), Histogram.create ()) in
        Hashtbl.replace t.by_origin rq.rq_origin pair;
        pair
    in
    Histogram.add o_enq2vis (now - rq.rq_enqueued_ns);
    Histogram.add o_e2e (now - rq.rq_arrive_ns);
    (t.per_version <-
      (match t.per_version with
      | (v, n) :: rest when v = version -> (v, n + 1) :: rest
      | l ->
        let l = if List.length l >= per_version_keep then List.filteri (fun i _ -> i < per_version_keep - 1) l else l in
        (version, 1) :: l));
    finish t rq;
    Some rq
  | Some _ | None -> None

let shed t ~id =
  match Hashtbl.find_opt t.live id with
  | Some rq when rq.rq_outcome = Pending ->
    rq.rq_outcome <- Shed;
    finish t rq;
    true
  | Some _ | None -> false

let drop t ~id =
  match Hashtbl.find_opt t.live id with
  | Some rq when rq.rq_outcome = Pending ->
    rq.rq_outcome <- Dropped;
    finish t rq;
    true
  | Some _ | None -> false

(* A power failure rolls back every request that was not yet released: its
   sender will re-issue it after recovery (external synchrony's contract). *)
let on_crash t =
  let pending = Hashtbl.fold (fun id _ acc -> id :: acc) t.live [] in
  List.iter
    (fun id ->
      match Hashtbl.find_opt t.live id with
      | Some rq when rq.rq_outcome = Pending ->
        rq.rq_outcome <- Dropped;
        finish t rq
      | Some _ | None -> ())
    pending

let on_commit t ~version ~stw_t0 ~stw_t1 = t.last_commit <- Some (version, stw_t0, stw_t1)
let last_commit t = t.last_commit

let live_count t = Hashtbl.length t.live

(* Burst-pressure signal for the adaptive interval controller: requests
   whose reply is parked on a ring awaiting the next commit. *)
let pending_enqueued t =
  Hashtbl.fold
    (fun _ rq acc -> if rq.rq_outcome = Pending && rq.rq_enqueued_ns >= 0 then acc + 1 else acc)
    t.live 0
let released_count t = t.released
let internal_count t = t.internal
let shed_count t = t.shed
let dropped_count t = t.dropped
let completed_total t = t.done_total

let completed t =
  let n = min t.done_total done_cap in
  let first = t.done_total - n in
  List.init n (fun i ->
      match t.done_buf.((first + i) mod done_cap) with
      | Some rq -> rq
      | None -> assert false)
  |> List.rev

let per_version t = t.per_version

type summary = {
  s_count : int;
  s_p50_ns : int;
  s_p95_ns : int;
  s_p99_ns : int;
  s_mean_ns : float;
  s_max_ns : int;
}

let summarize h =
  {
    s_count = Histogram.count h;
    s_p50_ns = Histogram.percentile h 50.0;
    s_p95_ns = Histogram.percentile h 95.0;
    s_p99_ns = Histogram.percentile h 99.0;
    s_mean_ns = Histogram.mean h;
    s_max_ns = Histogram.max_value h;
  }

let enq2vis_summary t = summarize t.enq2vis
let e2e_summary t = summarize t.e2e

let origins t =
  Hashtbl.fold (fun o _ acc -> o :: acc) t.by_origin [] |> List.sort String.compare

(* Merge every origin matching [prefix] into one (enq2vis, e2e) pair —
   the serving harness tags origins "t<i>/kv.<op>" and asks per tenant. *)
let summaries_prefix t ~prefix =
  let is_prefix o =
    String.length o >= String.length prefix
    && String.sub o 0 (String.length prefix) = prefix
  in
  let acc_enq2vis = Histogram.create () and acc_e2e = Histogram.create () in
  Hashtbl.iter
    (fun o (h_enq2vis, h_e2e) ->
      if is_prefix o then begin
        Histogram.merge ~into:acc_enq2vis h_enq2vis;
        Histogram.merge ~into:acc_e2e h_e2e
      end)
    t.by_origin;
  (summarize acc_enq2vis, summarize acc_e2e)

let pp_req ppf rq =
  let us v = float_of_int v /. 1e3 in
  let rel v = if v < 0 then "-" else Printf.sprintf "+%.1fus" (us (v - rq.rq_arrive_ns)) in
  Format.fprintf ppf "req %-6d %-10s arrive=%10.1fus handled=%-10s enq=%-10s visible=%-10s %s%s%s"
    rq.rq_id rq.rq_origin (us rq.rq_arrive_ns) (rel rq.rq_handled_ns) (rel rq.rq_enqueued_ns)
    (rel rq.rq_visible_ns) (outcome_name rq.rq_outcome)
    (if rq.rq_commit_ver > 0 then Printf.sprintf " commit=v%d" rq.rq_commit_ver else "")
    (if rq.rq_ipc_calls > 0 then Printf.sprintf " ipc=%d" rq.rq_ipc_calls else "")
