module Histogram = Treesls_util.Histogram

type outcome = Pending | Internal | Released | Shed | Dropped

let outcome_name = function
  | Pending -> "pending"
  | Internal -> "internal"
  | Released -> "released"
  | Shed -> "shed"
  | Dropped -> "dropped"

(* An origin's latency pair is fed on release only, like the global pair;
   an origin whose pair is still empty has released nothing. *)
type origin = { o_name : string; o_enq2vis : Histogram.t; o_e2e : Histogram.t }

type req = {
  rq_id : int;
  rq_origin : origin;
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
  (* Live requests by id: a ring of [slots] covering ids [base, next_id),
     where [base] is at or below the oldest live id; a finished request's
     slot holds [none].  It doubles when a new id would wrap onto a live
     one. *)
  mutable slots : req array;
  mutable base : int;
  mutable nlive : int;
  mutable parked : int; (* live requests with a reply on a ring *)
  mutable next_id : int;
  none : req; (* the ambient request when there is none: id 0, never live *)
  mutable current : req;
  enq2vis : Histogram.t;
  e2e : Histogram.t;
  (* Every origin resolved so far, by name: bounded by the origin
     vocabulary (op name, optionally prefixed by tenant). *)
  origins : (string, origin) Hashtbl.t;
  mutable released : int;
  mutable internal : int;
  mutable shed : int;
  mutable dropped : int;
  mutable last_commit : (int * int * int) option; (* version, stw begin, stw end *)
  mutable per_version : (int * int) list; (* newest first: version -> released *)
}

let per_version_keep = 64

let new_origin name =
  { o_name = name; o_enq2vis = Histogram.create (); o_e2e = Histogram.create () }

let create () =
  let none =
    {
      rq_id = 0;
      rq_origin = new_origin "";
      rq_arrive_ns = -1;
      rq_handled_ns = -1;
      rq_enqueued_ns = -1;
      rq_visible_ns = -1;
      rq_commit_ver = 0;
      rq_ipc_calls = 0;
      rq_outcome = Internal;
    }
  in
  {
    done_buf = Array.make done_cap None;
    done_total = 0;
    slots = Array.make 256 none;
    base = 1;
    nlive = 0;
    parked = 0;
    next_id = 1;
    none;
    current = none;
    enq2vis = Histogram.create ();
    e2e = Histogram.create ();
    origins = Hashtbl.create 16;
    released = 0;
    internal = 0;
    shed = 0;
    dropped = 0;
    last_commit = None;
    per_version = [];
  }

let origin t name =
  match Hashtbl.find_opt t.origins name with
  | Some o -> o
  | None ->
    let o = new_origin name in
    Hashtbl.replace t.origins name o;
    o

let origin_name o = o.o_name

let finish t rq =
  (match rq.rq_outcome with
  | Released -> t.released <- t.released + 1
  | Internal -> t.internal <- t.internal + 1
  | Shed -> t.shed <- t.shed + 1
  | Dropped -> t.dropped <- t.dropped + 1
  | Pending -> ());
  if rq.rq_enqueued_ns >= 0 then t.parked <- t.parked - 1;
  t.slots.(rq.rq_id land (Array.length t.slots - 1)) <- t.none;
  t.nlive <- t.nlive - 1;
  if t.current == rq then t.current <- t.none;
  t.done_buf.(t.done_total mod done_cap) <- Some rq;
  t.done_total <- t.done_total + 1

let find_live t id =
  if id < t.base || id >= t.next_id then None
  else
    let rq = t.slots.(id land (Array.length t.slots - 1)) in
    if rq == t.none then None else Some rq

(* Room in the ring for id [next_id]: move [base] past finished ids, then
   double the ring if the oldest live id still sits in the new id's slot. *)
let make_room t =
  let mask = Array.length t.slots - 1 in
  while t.base < t.next_id && t.slots.(t.base land mask) == t.none do
    t.base <- t.base + 1
  done;
  if t.next_id - t.base > mask then begin
    let slots = Array.make (2 * Array.length t.slots) t.none in
    let mask' = Array.length slots - 1 in
    for id = t.base to t.next_id - 1 do
      slots.(id land mask') <- t.slots.(id land mask)
    done;
    t.slots <- slots
  end

let arrive t ~now ~origin =
  (* A still-current request that never reached an extsync ring is purely
     internal: close its timeline so the live table stays bounded by the
     ring capacity (enqueued requests wait for their releasing commit). *)
  let prev = t.current in
  if prev.rq_outcome = Pending && prev.rq_enqueued_ns < 0 then begin
    prev.rq_outcome <- Internal;
    finish t prev
  end;
  make_room t;
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
  t.slots.(id land (Array.length t.slots - 1)) <- rq;
  t.nlive <- t.nlive + 1;
  t.current <- rq;
  id

let current_id t = t.current.rq_id

let handled t ~now =
  let rq = t.current in
  if rq != t.none && rq.rq_handled_ns < 0 then rq.rq_handled_ns <- now

let note_ipc t =
  let rq = t.current in
  if rq != t.none then rq.rq_ipc_calls <- rq.rq_ipc_calls + 1

let enqueued t ~now =
  let rq = t.current in
  if rq.rq_outcome = Pending then begin
    if rq.rq_enqueued_ns < 0 then begin
      rq.rq_enqueued_ns <- now;
      t.parked <- t.parked + 1
    end;
    rq.rq_id
  end
  else 0

let released t ~now ~id ~version =
  match find_live t id with
  | Some rq when rq.rq_outcome = Pending && rq.rq_enqueued_ns >= 0 ->
    rq.rq_visible_ns <- now;
    rq.rq_commit_ver <- version;
    rq.rq_outcome <- Released;
    Histogram.add t.enq2vis (now - rq.rq_enqueued_ns);
    Histogram.add t.e2e (now - rq.rq_arrive_ns);
    Histogram.add rq.rq_origin.o_enq2vis (now - rq.rq_enqueued_ns);
    Histogram.add rq.rq_origin.o_e2e (now - rq.rq_arrive_ns);
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
  match find_live t id with
  | Some rq when rq.rq_outcome = Pending ->
    rq.rq_outcome <- Shed;
    finish t rq;
    true
  | Some _ | None -> false

let drop t ~id =
  match find_live t id with
  | Some rq when rq.rq_outcome = Pending ->
    rq.rq_outcome <- Dropped;
    finish t rq;
    true
  | Some _ | None -> false

(* A power failure rolls back every request that was not yet released: its
   sender will re-issue it after recovery (external synchrony's contract).
   They are dropped oldest first, so the newest completed record is the
   newest request lost. *)
let on_crash t =
  for id = t.base to t.next_id - 1 do
    match find_live t id with
    | Some rq when rq.rq_outcome = Pending ->
      rq.rq_outcome <- Dropped;
      finish t rq
    | Some _ | None -> ()
  done

let on_commit t ~version ~stw_t0 ~stw_t1 = t.last_commit <- Some (version, stw_t0, stw_t1)
let last_commit t = t.last_commit

let live_count t = t.nlive

(* Burst-pressure signal for the adaptive interval controller: requests
   whose reply is parked on a ring awaiting the next commit. *)
let pending_enqueued t = t.parked
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

let released_from o = Histogram.count o.o_e2e > 0

let origins t =
  Hashtbl.fold (fun name o acc -> if released_from o then name :: acc else acc) t.origins []
  |> List.sort String.compare

(* Merge every origin matching [prefix] into one (enq2vis, e2e) pair —
   the serving harness tags origins "t<i>/kv.<op>" and asks per tenant. *)
let summaries_prefix t ~prefix =
  let is_prefix o =
    String.length o >= String.length prefix
    && String.sub o 0 (String.length prefix) = prefix
  in
  let acc_enq2vis = Histogram.create () and acc_e2e = Histogram.create () in
  Hashtbl.iter
    (fun name o ->
      if released_from o && is_prefix name then begin
        Histogram.merge ~into:acc_enq2vis o.o_enq2vis;
        Histogram.merge ~into:acc_e2e o.o_e2e
      end)
    t.origins;
  (summarize acc_enq2vis, summarize acc_e2e)

let pp_req ppf rq =
  let us v = float_of_int v /. 1e3 in
  let rel v = if v < 0 then "-" else Printf.sprintf "+%.1fus" (us (v - rq.rq_arrive_ns)) in
  Format.fprintf ppf "req %-6d %-10s arrive=%10.1fus handled=%-10s enq=%-10s visible=%-10s %s%s%s"
    rq.rq_id rq.rq_origin.o_name (us rq.rq_arrive_ns) (rel rq.rq_handled_ns) (rel rq.rq_enqueued_ns)
    (rel rq.rq_visible_ns) (outcome_name rq.rq_outcome)
    (if rq.rq_commit_ver > 0 then Printf.sprintf " commit=v%d" rq.rq_commit_ver else "")
    (if rq.rq_ipc_calls > 0 then Printf.sprintf " ipc=%d" rq.rq_ipc_calls else "")
