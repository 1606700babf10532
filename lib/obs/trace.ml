type phase = Complete | Instant | Flow_start | Flow_end | Counter

type event = {
  seq : int;
  name : string;
  cat : string;
  ph : phase;
  ts_ns : int;
  dur_ns : int;
  id : int;
  parent : int;
  args : (string * string) list;
}

type open_span = {
  os_id : int;
  os_name : string;
  os_t0 : int;
  os_parent : int;
  os_args : (string * string) list;
}

type t = {
  cap : int;
  buf : event option array;
  mutable total : int; (* events ever recorded; write index = total mod cap *)
  mutable next_id : int;
  mutable stack : open_span list;
}

let create ?(capacity = 4096) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { cap = capacity; buf = Array.make capacity None; total = 0; next_id = 1; stack = [] }

let capacity t = t.cap
let total t = t.total
let length t = min t.total t.cap
let dropped t = if t.total > t.cap then t.total - t.cap else 0
let open_spans t = List.length t.stack

(* the category is the event-name prefix: "ckpt.captree" -> "ckpt" *)
let cat_of name = match String.index_opt name '.' with None -> name | Some i -> String.sub name 0 i

let record t ~name ~ph ~ts_ns ~dur_ns ~id ~parent ~args =
  t.buf.(t.total mod t.cap) <-
    Some { seq = t.total; name; cat = cat_of name; ph; ts_ns; dur_ns; id; parent; args };
  t.total <- t.total + 1

let current_parent t = match t.stack with [] -> 0 | s :: _ -> s.os_id

let begin_span t ~now ?(args = []) name =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.stack <- { os_id = id; os_name = name; os_t0 = now; os_parent = current_parent t; os_args = args } :: t.stack;
  id

let close_span t ~now ~extra_args s =
  record t ~name:s.os_name ~ph:Complete ~ts_ns:s.os_t0 ~dur_ns:(now - s.os_t0) ~id:s.os_id
    ~parent:s.os_parent ~args:(s.os_args @ extra_args)

let end_span t ~now ?(args = []) id =
  match List.partition (fun s -> s.os_id = id) t.stack with
  | [ s ], rest ->
    t.stack <- rest;
    close_span t ~now ~extra_args:args s
  | _, _ -> () (* unknown or double-ended span id: ignore *)

let instant t ~now ?(args = []) name =
  record t ~name ~ph:Instant ~ts_ns:now ~dur_ns:0 ~id:0 ~parent:(current_parent t) ~args

let complete t ?(args = []) name ~ts_ns ~dur_ns =
  let id = t.next_id in
  t.next_id <- id + 1;
  record t ~name ~ph:Complete ~ts_ns ~dur_ns ~id ~parent:(current_parent t) ~args

(* Flow events carry the caller's correlation id (e.g. a request id) in
   [id]; the viewer binds each end to the enclosing slice by timestamp. *)
let flow_start t ?(args = []) ~flow_id name ~ts_ns =
  record t ~name ~ph:Flow_start ~ts_ns ~dur_ns:0 ~id:flow_id ~parent:0 ~args

let flow_end t ?(args = []) ~flow_id name ~ts_ns =
  record t ~name ~ph:Flow_end ~ts_ns ~dur_ns:0 ~id:flow_id ~parent:0 ~args

(* Counter samples ([ph:"C"]) render as stacked counter tracks in the
   Perfetto UI; values are stored stringified but exported as raw numbers
   (the viewer requires numeric args for counters). *)
let counter t ~now name ~values =
  record t ~name ~ph:Counter ~ts_ns:now ~dur_ns:0 ~id:0 ~parent:0
    ~args:(List.map (fun (k, v) -> (k, string_of_int v)) values)

let abort_open t ~now =
  List.iter (fun s -> close_span t ~now ~extra_args:[ ("aborted", "true") ] s) t.stack;
  t.stack <- []

let events t =
  let n = length t in
  let first = t.total - n in
  List.init n (fun i ->
      match t.buf.((first + i) mod t.cap) with
      | Some e -> e
      | None -> assert false (* slots below [length] are always filled *))

let clear t =
  Array.fill t.buf 0 t.cap None;
  t.total <- 0;
  t.stack <- []

(* ------------------------------------------------------------------ *)
(* Chrome/Perfetto trace_event JSON export. *)

module Json = Treesls_util.Json

(* trace_event timestamps are in microseconds; keep ns precision with a
   fractional part *)
let us ns = Json.fixed 3 (float_of_int ns /. 1e3)

let event_json ~pid ~tid e =
  let ph, extra =
    match e.ph with
    | Complete -> ("X", [ ("dur", us e.dur_ns) ])
    | Instant -> ("i", [ ("s", Json.Str "t") ])
    | Flow_start -> ("s", [ ("id", Json.int e.id) ])
    (* "bp":"e" binds the arrow to the enclosing slice rather than the
       next slice on the track — required to land on ckpt.stw itself *)
    | Flow_end -> ("f", [ ("id", Json.int e.id); ("bp", Json.Str "e") ])
    | Counter -> ("C", [])
  in
  let args =
    match e.ph with
    (* counter args must be raw numbers for the viewer to build tracks *)
    | Counter -> List.map (fun (k, v) -> (k, Json.Num v)) e.args
    | Complete | Instant | Flow_start | Flow_end ->
      let is_flow = match e.ph with Flow_start | Flow_end -> true | _ -> false in
      [ ("seq", string_of_int e.seq) ]
      @ (if e.id <> 0 && not is_flow then [ ("span", string_of_int e.id) ] else [])
      @ (if e.parent <> 0 then [ ("parent", string_of_int e.parent) ] else [])
      @ e.args
      |> List.map (fun (k, v) -> (k, Json.Str v))
  in
  Json.Obj
    ([
       ("name", Json.Str e.name);
       ("cat", Json.Str e.cat);
       ("ph", Json.Str ph);
       ("ts", us e.ts_ns);
       ("pid", Json.int pid);
       ("tid", Json.int tid);
     ]
    @ extra
    @ [ ("args", Json.Obj args) ])

(* The file frame every Perfetto export shares: "ph":"M" metadata events
   name the process and each thread track (without them every track
   shows a bare pid/tid number), then the events. *)
let perfetto_file ~pid ~tracks events =
  let meta name ids value =
    Json.Obj
      ((("name", Json.Str name) :: ("ph", Json.Str "M") :: ids)
      @ [ ("args", Json.Obj [ ("name", Json.Str value) ]) ])
  in
  let pid_f = ("pid", Json.int pid) in
  let tracks =
    List.map (fun (tid, name) -> meta "thread_name" [ pid_f; ("tid", Json.int tid) ] name) tracks
  in
  Json.to_string
    (Json.Obj
       [
         ("displayTimeUnit", Json.Str "ns");
         ("traceEvents", Json.Arr ((meta "process_name" [ pid_f ] "treesls" :: tracks) @ events));
       ])

let to_perfetto_json ?(pid = 1) ?(tid = 1) t =
  let evs = events t in
  (* request-causality events get their own named track so the rtrace
     timeline is separable from the checkpoint pipeline in the UI *)
  let has_req = List.exists (fun e -> e.cat = "req") evs in
  let req_tid = tid + 1 in
  perfetto_file ~pid
    ~tracks:((tid, "kernel") :: (if has_req then [ (req_tid, "requests") ] else []))
    (List.map (fun e -> event_json ~pid ~tid:(if e.cat = "req" then req_tid else tid) e) evs)

let pp_event ppf e =
  let args =
    match e.args with
    | [] -> ""
    | l -> " " ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) l)
  in
  match e.ph with
  | Complete ->
    Format.fprintf ppf "[%8d] %10.3fus +%10.3fus %-20s%s" e.seq
      (float_of_int e.ts_ns /. 1e3) (float_of_int e.dur_ns /. 1e3) e.name args
  | Instant ->
    Format.fprintf ppf "[%8d] %10.3fus %12s %-20s%s" e.seq (float_of_int e.ts_ns /. 1e3) "" e.name
      args
  | Flow_start ->
    Format.fprintf ppf "[%8d] %10.3fus %12s %-20s id=%d%s" e.seq (float_of_int e.ts_ns /. 1e3)
      "flow>" e.name e.id args
  | Flow_end ->
    Format.fprintf ppf "[%8d] %10.3fus %12s %-20s id=%d%s" e.seq (float_of_int e.ts_ns /. 1e3)
      ">flow" e.name e.id args
  | Counter ->
    Format.fprintf ppf "[%8d] %10.3fus %12s %-20s%s" e.seq (float_of_int e.ts_ns /. 1e3)
      "counter" e.name args
