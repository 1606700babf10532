(* bench_diff: compare freshly generated BENCH_<exp>.json files against the
   committed copies and print per-metric deltas (what `make bench-diff` and
   `make ci` run).

     bench_diff.exe FRESH_DIR COMMITTED_DIR

   For every BENCH_*.json in FRESH_DIR, rows are keyed by their config
   (sorted key=value pairs); each metric present on both sides is printed
   with its absolute and relative change, and rows or metrics present on
   only one side are called out.  The report is informational — drift is
   expected as the simulator evolves — so the exit code only reflects
   usage/parse errors (1), never metric movement.  Files are read with the
   strict parser of [Treesls_util.Json], the module that writes them.

   Metrics with a [host] word in their name ([sched_host_ms_p50]) are
   measured on the host clock and move on every run.  They are labelled
   as such and counted apart from the deterministic (virtual-time and
   count) metrics; a change inside a +-30% band is called noise, one
   outside it flagged drift. *)

module Json = Treesls_util.Json

(* --- BENCH_<exp>.json shape -> (config key, metric assoc) rows --------- *)

let fields = function Some (Json.Obj l) -> l | _ -> []
let items = function Some (Json.Arr l) -> l | _ -> []

(* one row's identity: the experiment's config, rendered canonically *)
let config_key config =
  List.filter_map
    (fun (k, v) ->
      match (v, Json.to_float v) with
      | Json.Str s, _ -> Some (k, s)
      | _, Some f -> Some (k, Printf.sprintf "%g" f)
      | _ -> None)
    config
  |> List.sort compare
  |> List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v)
  |> String.concat " "

let rows_of_file path =
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let top = try Json.parse contents with Json.Parse_error m -> failwith (path ^ ": " ^ m) in
  match Json.member "experiments" top with
  | Some (Json.Arr exps) ->
    List.concat_map
      (fun e ->
        let name = match Json.member "name" e with Some (Json.Str s) -> s | _ -> "?" in
        List.map
          (fun row ->
            let metrics =
              List.filter_map
                (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.to_float v))
                (fields (Json.member "metrics" row))
            in
            (name, config_key (fields (Json.member "config" row)), metrics))
          (items (Json.member "rows" e)))
      exps
  | _ -> failwith (path ^ ": no experiments array")

(* --- diff --------------------------------------------------------------- *)

let host_noise_band = 0.30

let is_host_metric k = List.mem "host" (String.split_on_char '_' k)

let diff_file ~fresh ~committed name =
  Printf.printf "== %s ==\n" name;
  if not (Sys.file_exists committed) then begin
    Printf.printf "  (new: no committed %s yet)\n" (Filename.basename committed);
    List.iter (fun (_, cfg, _) -> Printf.printf "  + %s\n" cfg) (rows_of_file fresh)
  end
  else begin
    let fresh_rows = rows_of_file fresh in
    let base_rows = rows_of_file committed in
    let changed = ref 0 and rows = ref 0 and host_noise = ref 0 and host_drift = ref 0 in
    List.iter
      (fun (_, cfg, metrics) ->
        match List.find_opt (fun (_, c, _) -> c = cfg) base_rows with
        | None -> Printf.printf "  + row %s (not in committed copy)\n" cfg
        | Some (_, _, base_metrics) ->
          incr rows;
          List.iter
            (fun (k, fresh_v) ->
              match List.assoc_opt k base_metrics with
              | None -> Printf.printf "  %s: + %s = %g (new metric)\n" cfg k fresh_v
              | Some base_v ->
                if fresh_v <> base_v then begin
                  let rel =
                    if base_v = 0.0 then None else Some ((fresh_v -. base_v) /. Float.abs base_v)
                  in
                  let pct =
                    match rel with
                    | None -> "n/a"
                    | Some r -> Printf.sprintf "%+.1f%%" (r *. 100.0)
                  in
                  let label =
                    if not (is_host_metric k) then (
                      incr changed;
                      "")
                    else
                      match rel with
                      | Some r when Float.abs r <= host_noise_band ->
                        incr host_noise;
                        " [host clock: noise]"
                      | Some _ | None ->
                        incr host_drift;
                        " [host clock: DRIFT]"
                  in
                  Printf.printf "  %s: %s %g -> %g (%s)%s\n" cfg k base_v fresh_v pct label
                end)
            metrics;
          List.iter
            (fun (k, _) ->
              if not (List.mem_assoc k metrics) then
                Printf.printf "  %s: - %s (metric dropped)\n" cfg k)
            base_metrics)
      fresh_rows;
    List.iter
      (fun (_, cfg, _) ->
        if not (List.exists (fun (_, c, _) -> c = cfg) fresh_rows) then
          Printf.printf "  - row %s (only in committed copy)\n" cfg)
      base_rows;
    let host =
      if !host_noise + !host_drift = 0 then ""
      else
        Printf.sprintf "; host clock: %d within +-%.0f%% noise, %d flagged drift" !host_noise
          (host_noise_band *. 100.0) !host_drift
    in
    if !changed = 0 then Printf.printf "  %d rows, no metric changes%s\n" !rows host
    else Printf.printf "  %d rows, %d metric changes%s\n" !rows !changed host
  end

let () =
  match Array.to_list Sys.argv with
  | [ _; fresh_dir; committed_dir ] ->
    if not (Sys.is_directory fresh_dir) then begin
      Printf.eprintf "bench_diff: %s is not a directory\n" fresh_dir;
      exit 1
    end;
    let files =
      Sys.readdir fresh_dir |> Array.to_list
      |> List.filter (fun f ->
             String.length f > 6
             && String.sub f 0 6 = "BENCH_"
             && Filename.check_suffix f ".json")
      |> List.sort compare
    in
    if files = [] then Printf.printf "bench_diff: no BENCH_*.json in %s\n" fresh_dir;
    (try
       List.iter
         (fun f ->
           diff_file ~fresh:(Filename.concat fresh_dir f) ~committed:(Filename.concat committed_dir f)
             f)
         files
     with Failure msg ->
       Printf.eprintf "bench_diff: %s\n" msg;
       exit 1)
  | argv0 :: _ ->
    Printf.eprintf "usage: %s FRESH_DIR COMMITTED_DIR\n" (Filename.basename argv0);
    exit 1
  | [] -> exit 1
