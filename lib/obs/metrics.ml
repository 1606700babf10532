module Histogram = Treesls_util.Histogram
module Json = Treesls_util.Json

type t = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, int ref) Hashtbl.t;
  timers : (string, Histogram.t) Hashtbl.t;
}

let create () =
  { counters = Hashtbl.create 32; gauges = Hashtbl.create 16; timers = Hashtbl.create 16 }

let cell tbl name =
  match Hashtbl.find_opt tbl name with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.replace tbl name r;
    r

let add t name n =
  let r = cell t.counters name in
  r := !r + n

let set_gauge t name v =
  let r = cell t.gauges name in
  r := v

let timer t name =
  match Hashtbl.find_opt t.timers name with
  | Some h -> h
  | None ->
    let h = Histogram.create () in
    Hashtbl.replace t.timers name h;
    h

let observe t name ns = Histogram.add (timer t name) ns

let counter_value t name = match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0
let histogram t name = Hashtbl.find_opt t.timers name

let timer_names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.timers [] |> List.sort String.compare
let gauge_value t name = match Hashtbl.find_opt t.gauges name with Some r -> !r | None -> 0

type timer_summary = {
  tm_count : int;
  tm_total_ns : int;
  tm_mean_ns : float;
  tm_p50_ns : int;
  tm_p99_ns : int;
  tm_max_ns : int;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * int) list;
  timers : (string * timer_summary) list;
}

let sorted_bindings tbl f =
  Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let snapshot (t : t) =
  {
    counters = sorted_bindings t.counters (fun r -> !r);
    gauges = sorted_bindings t.gauges (fun r -> !r);
    timers =
      sorted_bindings t.timers (fun h ->
          {
            tm_count = Histogram.count h;
            tm_total_ns = Histogram.total h;
            tm_mean_ns = Histogram.mean h;
            tm_p50_ns = Histogram.percentile h 50.0;
            tm_p99_ns = Histogram.percentile h 99.0;
            tm_max_ns = Histogram.max_value h;
          });
  }

let reset (t : t) =
  Hashtbl.reset t.counters;
  Hashtbl.reset t.gauges;
  Hashtbl.reset t.timers

let pp_snapshot ppf s =
  Format.fprintf ppf "counters:@.";
  List.iter (fun (k, v) -> Format.fprintf ppf "  %-32s %d@." k v) s.counters;
  if s.gauges <> [] then begin
    Format.fprintf ppf "gauges:@.";
    List.iter (fun (k, v) -> Format.fprintf ppf "  %-32s %d@." k v) s.gauges
  end;
  if s.timers <> [] then begin
    Format.fprintf ppf "timers (us):@.";
    List.iter
      (fun (k, tm) ->
        Format.fprintf ppf "  %-32s n=%-8d mean=%-10.2f p50=%-10.2f p99=%-10.2f max=%.2f@." k
          tm.tm_count (tm.tm_mean_ns /. 1e3)
          (float_of_int tm.tm_p50_ns /. 1e3)
          (float_of_int tm.tm_p99_ns /. 1e3)
          (float_of_int tm.tm_max_ns /. 1e3))
      s.timers
  end

let snapshot_to_json s =
  let ints l = Json.Obj (List.map (fun (k, v) -> (k, Json.int v)) l) in
  let timer tm =
    Json.Obj
      [
        ("count", Json.int tm.tm_count);
        ("total_ns", Json.int tm.tm_total_ns);
        ("mean_ns", Json.fixed 1 tm.tm_mean_ns);
        ("p50_ns", Json.int tm.tm_p50_ns);
        ("p99_ns", Json.int tm.tm_p99_ns);
        ("max_ns", Json.int tm.tm_max_ns);
      ]
  in
  Json.Obj
    [
      ("counters", ints s.counters);
      ("gauges", ints s.gauges);
      ("timers", Json.Obj (List.map (fun (k, tm) -> (k, timer tm)) s.timers));
    ]
