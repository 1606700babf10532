module Histogram = Treesls_util.Histogram
module Json = Treesls_util.Json

type t = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, int ref) Hashtbl.t;
  timers : (string, Histogram.t) Hashtbl.t;
  mutable shape : int;  (* bumped on every new name and on reset *)
  mutable resets : int;  (* bumped on reset: handles re-resolve their name *)
}

let create () =
  {
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 16;
    timers = Hashtbl.create 16;
    shape = 0;
    resets = 0;
  }

let shape t = t.shape

let cell t tbl name =
  match Hashtbl.find_opt tbl name with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.replace tbl name r;
    t.shape <- t.shape + 1;
    r

let add t name n =
  let r = cell t t.counters name in
  r := !r + n

let set_gauge t name v =
  let r = cell t t.gauges name in
  r := v

let timer_hist t name =
  match Hashtbl.find_opt t.timers name with
  | Some h -> h
  | None ->
    let h = Histogram.create () in
    Hashtbl.replace t.timers name h;
    t.shape <- t.shape + 1;
    h

let observe t name ns = Histogram.add (timer_hist t name) ns

(* A handle caches its name's cell, resolved by the first sample after its
   creation or after a reset (resolving is what registers the name), so a
   sample through it is one compare and one store. *)
type counter = { c_reg : t; c_name : string; mutable c_cell : int ref; mutable c_resets : int }

let counter t name = { c_reg = t; c_name = name; c_cell = ref 0; c_resets = -1 }

let count c n =
  let t = c.c_reg in
  if c.c_resets <> t.resets then begin
    c.c_cell <- cell t t.counters c.c_name;
    c.c_resets <- t.resets
  end;
  c.c_cell := !(c.c_cell) + n

type gauge = { g_reg : t; g_name : string; mutable g_cell : int ref; mutable g_resets : int }

let gauge t name = { g_reg = t; g_name = name; g_cell = ref 0; g_resets = -1 }

let set g v =
  let t = g.g_reg in
  if g.g_resets <> t.resets then begin
    g.g_cell <- cell t t.gauges g.g_name;
    g.g_resets <- t.resets
  end;
  g.g_cell := v

type timer = { t_reg : t; t_name : string; mutable t_hist : Histogram.t; mutable t_resets : int }

let timer t name = { t_reg = t; t_name = name; t_hist = Histogram.create (); t_resets = -1 }

let record tm ns =
  let t = tm.t_reg in
  if tm.t_resets <> t.resets then begin
    tm.t_hist <- timer_hist t tm.t_name;
    tm.t_resets <- t.resets
  end;
  Histogram.add tm.t_hist ns

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

(* A registry timer only ever gains samples, and [reset] drops it along
   with the readers built on it, so its p99 can change only when its count
   does: each reader recomputes it only then. *)
let p99_reader h =
  let seen = ref (-1) and p99 = ref 0 in
  fun () ->
    let n = Histogram.count h in
    if n <> !seen then begin
      seen := n;
      p99 := Histogram.percentile h 99.0
    end;
    !p99

let columns (t : t) =
  let read r () = !r in
  List.map (fun (k, r) -> (k, read r)) (sorted_bindings t.counters Fun.id)
  @ List.map (fun (k, r) -> (k, read r)) (sorted_bindings t.gauges Fun.id)
  @ List.concat_map
      (fun (k, h) -> [ (k ^ ".n", fun () -> Histogram.count h); (k ^ ".p99_ns", p99_reader h) ])
      (sorted_bindings t.timers Fun.id)

let reset (t : t) =
  Hashtbl.reset t.counters;
  Hashtbl.reset t.gauges;
  Hashtbl.reset t.timers;
  t.shape <- t.shape + 1;
  t.resets <- t.resets + 1

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
