(* Crash-surviving metrics time-series ("black box").

   A ring of fixed-width samples, one per committed checkpoint: each
   sample carries a monotone sequence number, the committed version, the
   commit timestamp, and one integer cell per registered column.  The
   recorder has eternal-PMO semantics (like the trace ring and the
   wearmap): nothing in the crash/restore path ever resets it, so the
   sampled history — and the monotone seq/version spine — survives every
   power cut, and the backing PMO reserved via the probe prices the NVM
   residency of exactly [slot_bytes * capacity] bytes.

   Samples are recorded only after a checkpoint commit, which gives the
   torn-write-free invariant the crashtest sweep checks: sequence numbers
   are consecutive, timestamps nondecreasing, and versions strictly
   increasing — a torn, duplicated, or reordered sample is impossible to
   miss. *)

module Json = Treesls_util.Json

type sample = {
  sp_seq : int;  (* monotone across crashes; never reset *)
  sp_version : int;  (* committed checkpoint version *)
  sp_ts_ns : int;
  sp_values : int array;  (* cell per column id; width = columns at record time *)
}

let absent = min_int

type t = {
  cap : int;
  max_cols : int;
  buf : sample option array;
  mutable total : int;  (* samples ever recorded; write index = total mod cap *)
  col_ids : (string, int) Hashtbl.t;
  mutable col_names : string array;  (* id -> name; grows up to max_cols *)
  mutable n_cols : int;
  mutable cols_dropped : int;  (* interning attempts past max_cols *)
}

let default_capacity = 1024
let default_max_cols = 125

(* Fixed-width slot accounting for the eternal backing PMO: seq, version
   and timestamp plus one 8-byte cell per column budget slot. *)
let slot_bytes ~max_cols = 8 * (3 + max_cols)

let create ?(capacity = default_capacity) ?(max_cols = default_max_cols) () =
  if capacity <= 0 then invalid_arg "Tseries.create: capacity must be positive";
  if max_cols <= 0 then invalid_arg "Tseries.create: max_cols must be positive";
  {
    cap = capacity;
    max_cols;
    buf = Array.make capacity None;
    total = 0;
    col_ids = Hashtbl.create 64;
    col_names = Array.make 16 "";
    n_cols = 0;
    cols_dropped = 0;
  }

let capacity t = t.cap
let total t = t.total
let length t = min t.total t.cap
let dropped t = if t.total > t.cap then t.total - t.cap else 0
let backing_bytes t = t.cap * slot_bytes ~max_cols:t.max_cols
let cols_dropped t = t.cols_dropped

(* Column id of [name], interned on first use; -1 once the budget is
   spent (the caller counts the drop). *)
let intern t name =
  match Hashtbl.find_opt t.col_ids name with
  | Some id -> id
  | None ->
    if t.n_cols >= t.max_cols then -1
    else begin
      let id = t.n_cols in
      if id >= Array.length t.col_names then begin
        let bigger = Array.make (2 * Array.length t.col_names) "" in
        Array.blit t.col_names 0 bigger 0 (Array.length t.col_names);
        t.col_names <- bigger
      end;
      t.col_names.(id) <- name;
      Hashtbl.replace t.col_ids name id;
      t.n_cols <- id + 1;
      id
    end

let columns t = List.init t.n_cols (fun i -> t.col_names.(i))
let column_count t = t.n_cols

type layout = {
  l_ids : int array;  (* column id per name, -1 past the budget *)
  l_over : int;  (* names past the budget *)
}

let layout t names =
  let ids = Array.map (intern t) names in
  { l_ids = ids; l_over = Array.fold_left (fun n id -> if id < 0 then n + 1 else n) 0 ids }

(* Every name past the budget counts as one dropped interning per sample,
   as if each sample interned its names afresh.  On duplicate names the
   later value wins. *)
let record_values t l ~ts_ns ~version values =
  let cells = Array.make t.n_cols absent in
  for i = 0 to Array.length l.l_ids - 1 do
    let id = l.l_ids.(i) and v = values.(i) in
    if id >= 0 then cells.(id) <- (if v = absent then v + 1 else v)
  done;
  t.cols_dropped <- t.cols_dropped + l.l_over;
  t.buf.(t.total mod t.cap) <-
    Some { sp_seq = t.total; sp_version = version; sp_ts_ns = ts_ns; sp_values = cells };
  t.total <- t.total + 1

let record t ~ts_ns ~version values =
  let l = layout t (Array.of_list (List.map fst values)) in
  record_values t l ~ts_ns ~version (Array.of_list (List.map snd values))

(* The retained sample with sequence number [seq]. *)
let slot t seq =
  match t.buf.(seq mod t.cap) with
  | Some s -> s
  | None -> assert false (* slots below [length] are always filled *)

(* A window is the newest [n] retained samples: sequence numbers
   [first_of t ~n] to [total - 1]. *)
let first_of t ~n = t.total - max 0 (min n (length t))

let window t ~n =
  let first = first_of t ~n in
  List.init (t.total - first) (fun i -> slot t (first + i))

let samples t = window t ~n:(length t)
let latest t = if t.total = 0 then None else t.buf.((t.total - 1) mod t.cap)

let value t s name =
  match Hashtbl.find_opt t.col_ids name with
  | None -> None
  | Some id ->
    if id >= Array.length s.sp_values then None
    else begin
      let v = s.sp_values.(id) in
      if v = absent then None else Some v
    end

(* ------------------------------------------------------------------ *)
(* Query layer: every query runs over the newest [n] retained samples.
   [series] resolves the column once and reads only those [n] ring
   slots, so a query costs O(n), whatever the retained history. *)

let series t name ~n =
  match Hashtbl.find_opt t.col_ids name with
  | None -> []
  | Some id ->
    let acc = ref [] in
    for seq = t.total - 1 downto first_of t ~n do
      let s = slot t seq in
      if id < Array.length s.sp_values && s.sp_values.(id) <> absent then
        acc := (s, s.sp_values.(id)) :: !acc
    done;
    !acc

let delta t name ~n =
  match series t name ~n with
  | [] | [ _ ] -> None
  | (_, first) :: rest ->
    let _, last = List.nth rest (List.length rest - 1) in
    Some (last - first)

let rate_per_s t name ~n =
  match series t name ~n with
  | [] | [ _ ] -> None
  | (s0, v0) :: rest ->
    let sn, vn = List.nth rest (List.length rest - 1) in
    let dt = sn.sp_ts_ns - s0.sp_ts_ns in
    if dt <= 0 then None else Some (float_of_int (vn - v0) *. 1e9 /. float_of_int dt)

let ewma t name ~alpha =
  match series t name ~n:(length t) with
  | [] -> None
  | (_, v0) :: rest ->
    Some (List.fold_left (fun acc (_, v) -> (alpha *. float_of_int v) +. ((1.0 -. alpha) *. acc))
            (float_of_int v0) rest)

let percentile_over t name ~n ~p =
  match List.map snd (series t name ~n) with
  | [] -> None
  | vs ->
    let a = Array.of_list vs in
    Array.sort compare a;
    let k = Array.length a in
    let idx = int_of_float (Float.ceil (p /. 100.0 *. float_of_int k)) - 1 in
    let idx = if idx < 0 then 0 else if idx >= k then k - 1 else idx in
    Some a.(idx)

let mean_over t name ~n =
  match List.map snd (series t name ~n) with
  | [] -> None
  | vs -> Some (float_of_int (List.fold_left ( + ) 0 vs) /. float_of_int (List.length vs))

let max_over t name ~n =
  match List.map snd (series t name ~n) with
  | [] -> None
  | v :: vs -> Some (List.fold_left max v vs)

(* ------------------------------------------------------------------ *)
(* Exports. *)

let to_csv t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "seq,version,ts_ns";
  List.iter (fun c -> Buffer.add_char b ','; Buffer.add_string b c) (columns t);
  Buffer.add_char b '\n';
  List.iter
    (fun s ->
      Buffer.add_string b (Printf.sprintf "%d,%d,%d" s.sp_seq s.sp_version s.sp_ts_ns);
      for id = 0 to t.n_cols - 1 do
        Buffer.add_char b ',';
        if id < Array.length s.sp_values && s.sp_values.(id) <> absent then
          Buffer.add_string b (string_of_int s.sp_values.(id))
      done;
      Buffer.add_char b '\n')
    (samples t);
  Buffer.contents b

let to_json ?last t =
  let ss = match last with None -> samples t | Some n -> window t ~n in
  let cols = columns t in
  let sample s =
    let values =
      List.filter_map (fun c -> Option.map (fun v -> (c, Json.int v)) (value t s c)) cols
    in
    Json.Obj
      [
        ("seq", Json.int s.sp_seq);
        ("version", Json.int s.sp_version);
        ("ts_ns", Json.int s.sp_ts_ns);
        ("values", Json.Obj values);
      ]
  in
  Json.Obj
    [
      ("columns", Json.Arr (List.map (fun c -> Json.Str c) cols));
      ("capacity", Json.int t.cap);
      ("total", Json.int t.total);
      ("dropped", Json.int (dropped t));
      ("samples", Json.Arr (List.map sample ss));
    ]

(* Perfetto counter-track export: exactly one [ph:"C"] event per retained
   sample (the acceptance gate counts them against [total]), carrying the
   selected columns — default every registered column — as numeric args on
   a dedicated "tseries" track. *)
let to_perfetto_json ?(pid = 1) ?(tid = 9) ?cols t =
  let cols = match cols with Some c -> c | None -> columns t in
  let counter s =
    let args =
      List.filter_map (fun c -> Option.map (fun v -> (c, string_of_int v)) (value t s c)) cols
    in
    Trace.event_json ~pid ~tid
      {
        Trace.seq = s.sp_seq;
        name = "tseries";
        cat = "tseries";
        ph = Trace.Counter;
        ts_ns = s.sp_ts_ns;
        dur_ns = 0;
        id = 0;
        parent = 0;
        args;
      }
  in
  Trace.perfetto_file ~pid ~tracks:[ (tid, "tseries") ] (List.map counter (samples t))

let counter_points t = length t

let pp ?(last = 10) ppf t =
  Format.fprintf ppf "tseries: %d samples (%d recorded, %d dropped), %d columns@." (length t)
    t.total (dropped t) t.n_cols;
  let ss = window t ~n:last in
  List.iter
    (fun s ->
      Format.fprintf ppf "  [%6d] v%-6d %12.3fus" s.sp_seq s.sp_version
        (float_of_int s.sp_ts_ns /. 1e3);
      List.iter
        (fun c ->
          match value t s c with
          | Some v -> Format.fprintf ppf " %s=%d" c v
          | None -> ())
        [ "ckpt.stw_ns"; "ckpt.dirty_fraction_pct"; "ckpt.nvm.waf"; "req.enq2vis.p99_ns" ];
      Format.fprintf ppf "@.")
    ss
