(* The repository benchmark.

     run.exe --seed N --out DIR [--trace] [--scale smoke|full]
       every workload once; prints "workload metric value unit" for each
       end-to-end metric (and each per-layer metric with --trace) and
       writes DIR/results.tsv, DIR/results.json and, with --trace,
       DIR/trace_<workload>.json
     run.exe --workload NAME --seed N --seconds S --trace 0|1
       one workload, repeated for S seconds; the last line of stdout is a
       JSON object with the BENCHMARK.json metrics of that kind
     run.exe --emit-spec
       print BENCHMARK.json

   Every run checks the outputs; any failed check exits 1. *)

module Stats = Treesls_util.Stats

let median l =
  let st = Stats.create () in
  List.iter (Stats.add st) l;
  Stats.percentile st 50.0

let base_name n =
  if Filename.check_suffix n ".n" then Filename.chop_suffix n ".n" else n

let reproducible (x : Spec.metric) = x.Spec.clock <> Spec.Host

(* What one workload produced: the values of every metric it declares
   (with their [.n] sample counts), and the outcome of every check. *)
type result = {
  workload : string;
  values : (string * float) list;
  attempted : int;
  failed : int;
  failures : string list;
  spans : Spans.t option;
}

(* Untraced passes until [seconds] of host time are spent (at least one),
   then one traced pass when asked; set-up is repeated until there are at
   least five samples for its median (one at smoke scale). *)

let measure (w : Workload.t) ~seed ~scale ~seconds ~trace =
  Reference.warm ();
  let start = Spans.host_now () in
  let rec untraced acc =
    let p = w.Workload.run ~seed scale ~trace:false in
    let acc = p :: acc in
    let spent = Workload.secs_since start in
    if spent +. (spent /. float_of_int (List.length acc)) <= seconds then untraced acc
    else List.rev acc
  in
  let passes = untraced [] in
  let traced = if trace then Some (w.Workload.run ~seed scale ~trace:true) else None in
  let extra_setups =
    let min_setups = match scale with Workload.Full -> 5 | Workload.Smoke -> 1 in
    List.init (max 0 (min_setups - List.length passes)) (fun _ -> w.Workload.setup ~seed scale)
  in
  let declared = Spec.declared_on w.Workload.name in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  (* a pass may measure more than its workload declares (the serving
     engine is shared); keep the declared metrics, and refuse names the
     spec does not know *)
  let keep kind (p : Workload.pass) =
    List.iter (fun m -> fail "%s pass: %s" kind m) p.Workload.failures;
    let values =
      List.filter
        (fun (n, _) ->
          match Spec.find (base_name n) with
          | Some x -> List.mem w.Workload.name x.Spec.on
          | None ->
            fail "%s pass emitted unknown metric %s" kind n;
            false)
        p.Workload.values
    in
    { p with Workload.values }
  in
  let passes = List.map (keep "untraced") passes in
  let first = List.hd passes in
  let traced = Option.map (keep "traced") traced in
  (* virtual-clock and count metrics must repeat exactly: across passes,
     and between the untraced and the traced pass *)
  let same_as (p : Workload.pass) what =
    List.iter
      (fun (n, v) ->
        match Spec.find (base_name n) with
        | Some x when reproducible x -> (
          match List.assoc_opt n p.Workload.values with
          | Some v' when Float.equal v v' -> ()
          | Some v' -> fail "%s: %s = %.17g, first pass %.17g" what n v' v
          | None -> fail "%s: %s missing" what n)
        | Some _ | None -> ())
      first.Workload.values
  in
  List.iteri
    (fun i p -> if i > 0 then same_as p (Printf.sprintf "untraced pass %d" (i + 1)))
    passes;
  Option.iter (fun p -> same_as p "traced pass") traced;
  (* host times at reference speed (see Reference): each chunk's seconds
     are scaled by the reference loop timed right after it *)
  let ref_secs (c : Workload.chunk) =
    c.Workload.secs *. Reference.nominal_s /. c.Workload.ref_s
  in
  let rate secs chunks =
    let sum f = List.fold_left (fun a c -> a +. f c) 0.0 chunks in
    sum (fun (c : Workload.chunk) -> float_of_int c.Workload.ops) /. sum secs
  in
  let chunks = List.concat_map (fun (p : Workload.pass) -> p.Workload.chunks) passes in
  let setups =
    List.map (fun (p : Workload.pass) -> (p.Workload.setup_s, p.Workload.setup_ref_s)) passes
    @ extra_setups
  in
  let host_rate = rate ref_secs chunks in
  let values =
    [
      ("setup_s", median (List.map (fun (s, r) -> s *. Reference.nominal_s /. r) setups));
      ("host_ops_per_s", host_rate);
      ( "host_mem_mb",
        float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0 );
      ("bench.setup_raw_s", median (List.map fst setups));
      ("bench.host_ops_raw_per_s", rate (fun (c : Workload.chunk) -> c.Workload.secs) chunks);
      ( "bench.ref_loop_ms",
        1e3
        *. median
             (List.map snd setups
             @ List.map (fun (c : Workload.chunk) -> c.Workload.ref_s) chunks) );
    ]
    @ first.Workload.values
    @
    match traced with
    | None -> []
    | Some p ->
      List.filter (fun (n, _) -> not (List.mem_assoc n first.Workload.values)) p.Workload.values
      @ [
          ( "bench.trace_overhead_pct",
            100.0 *. ((host_rate /. rate ref_secs p.Workload.chunks) -. 1.0) );
        ]
  in
  List.iter (fun m -> fail "validity: %s" m) (w.Workload.gates (fun n -> List.assoc n values));
  List.iter
    (fun (x : Spec.metric) ->
      if (trace || not x.Spec.traced) && not (List.mem_assoc x.Spec.name values) then
        fail "declared metric %s not emitted" x.Spec.name)
    declared;
  let sum f = List.fold_left (fun a p -> a + f p) 0 passes in
  {
    workload = w.Workload.name;
    values;
    attempted = sum (fun p -> p.Workload.attempted);
    failed = sum (fun p -> p.Workload.failed);
    failures = List.rev !failures;
    spans = Option.bind traced (fun p -> p.Workload.spans);
  }

(* Printed forms: every digit for the machine-read outputs, fewer for people. *)
let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* Without --trace only end-to-end metrics are printed. *)
let printed (x : Spec.metric) ~trace = trace || ((not x.Spec.traced) && Spec.is_end_to_end x)

(* (name, value, unit) of the workload's printed metrics, each followed by
   its sample count when it has one *)
let rows r ~trace =
  List.concat_map
    (fun (x : Spec.metric) ->
      let n = x.Spec.name in
      match List.assoc_opt n r.values with
      | Some v when List.mem r.workload x.Spec.on && printed x ~trace -> (
        (n, v, x.Spec.unit_)
        :: (match List.assoc_opt (n ^ ".n") r.values with
           | Some c -> [ (n ^ ".n", c, "count") ]
           | None -> []))
      | Some _ | None -> [])
    Spec.metrics

let report_failures r =
  List.iter (fun m -> Printf.eprintf "%s: FAIL %s\n%!" r.workload m) r.failures

let write_file path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let run_all ~seed ~scale ~trace ~out =
  (try Unix.mkdir out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let results =
    List.map
      (fun (w : Workload.t) ->
        let r = measure w ~seed ~scale ~seconds:0.0 ~trace in
        List.iter
          (fun (n, v, u) -> Printf.printf "%s %s %s %s\n%!" r.workload n (num v) u)
          (rows r ~trace);
        report_failures r;
        Option.iter
          (fun sp ->
            write_file
              (Filename.concat out ("trace_" ^ r.workload ^ ".json"))
              (Spans.to_chrome_json sp))
          r.spans;
        r)
      Workload.all
  in
  let tsv = Buffer.create 4096 in
  Buffer.add_string tsv "workload\tmetric\tvalue\tunit\n";
  List.iter
    (fun r ->
      List.iter
        (fun (n, v, u) -> Printf.bprintf tsv "%s\t%s\t%s\t%s\n" r.workload n (num v) u)
        (rows r ~trace))
    results;
  write_file (Filename.concat out "results.tsv") (Buffer.contents tsv);
  let json = Buffer.create 4096 in
  Printf.bprintf json "{\"seed\": %d, \"scale\": %S, \"trace\": %b, \"workloads\": {" seed
    (match scale with Workload.Full -> "full" | Workload.Smoke -> "smoke")
    trace;
  List.iteri
    (fun i r ->
      Printf.bprintf json
        "%s\n  %s: {\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"failures\": [%s], \"metrics\": {"
        (if i > 0 then "," else "")
        (Spec.json_string r.workload) (r.failures = []) r.attempted r.failed
        (String.concat ", " (List.map Spec.json_string r.failures));
      List.iteri
        (fun j (n, v, u) ->
          Printf.bprintf json "%s%s: {\"value\": %s, \"unit\": %s}"
            (if j > 0 then ", " else "")
            (Spec.json_string n) (num v) (Spec.json_string u))
        (rows r ~trace);
      Buffer.add_string json "}}")
    results;
  Buffer.add_string json "\n}}\n";
  write_file (Filename.concat out "results.json") (Buffer.contents json);
  if List.exists (fun r -> r.failures <> []) results then exit 1

(* One workload, repeated for [seconds]: the last line of stdout is the JSON
   result, holding the headline metrics, or with tracing every other one
   (0 for the layers this workload does not run). *)
let run_one (w : Workload.t) ~seed ~seconds ~trace =
  let r = measure w ~seed ~scale:Workload.Full ~seconds ~trace in
  report_failures r;
  let wanted =
    List.filter
      (fun (x : Spec.metric) -> trace = (x.Spec.kind <> Spec.Headline))
      Spec.metrics
  in
  let value (x : Spec.metric) = Option.value ~default:0.0 (List.assoc_opt x.Spec.name r.values) in
  List.iter
    (fun (x : Spec.metric) ->
      Printf.printf "%s %s %s %s\n" r.workload x.Spec.name (num (value x)) x.Spec.unit_)
    wanted;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.failures = []) r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (x : Spec.metric) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Spec.json_string x.Spec.name)
              (num (value x)) (Spec.json_string x.Spec.unit_))
          wanted));
  if r.failures <> [] then exit 1

let usage () =
  prerr_endline
    "usage: run.exe --seed N --out DIR [--trace] [--scale smoke|full]\n\
    \       run.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       run.exe --emit-spec";
  exit 2

let () =
  let seed = ref None and out = ref None and workload = ref None and seconds = ref None in
  let trace = ref false and scale = ref Workload.Full and emit = ref false in
  let rec parse = function
    | [] -> ()
    | "--seed" :: n :: rest when int_of_string_opt n <> None ->
      seed := int_of_string_opt n;
      parse rest
    | "--seconds" :: s :: rest when float_of_string_opt s <> None ->
      seconds := float_of_string_opt s;
      parse rest
    | "--out" :: d :: rest ->
      out := Some d;
      parse rest
    | "--workload" :: w :: rest ->
      workload := Some w;
      parse rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
      trace := v = "1";
      parse rest
    | "--trace" :: rest ->
      trace := true;
      parse rest
    | "--scale" :: (("smoke" | "full") as s) :: rest ->
      scale := if s = "smoke" then Workload.Smoke else Workload.Full;
      parse rest
    | "--emit-spec" :: rest ->
      emit := true;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!emit, !workload, !out, !seed) with
  | true, _, _, _ -> print_string (Spec.to_benchmark_json ())
  | _, Some name, None, Some seed -> (
    match (Workload.find name, !seconds) with
    | Some w, Some seconds -> run_one w ~seed ~seconds ~trace:!trace
    | None, _ ->
      prerr_endline ("unknown workload " ^ name);
      exit 2
    | _, None -> usage ())
  | _, None, Some out, Some seed -> run_all ~seed ~scale:!scale ~trace:!trace ~out
  | _ -> usage ()
