(* compare.exe BASE_DIR NEW_DIR

   Compares two sets of benchmark runs.  Each set is every results.tsv in
   the directory and in its immediate subdirectories, one file per run
   (run.exe --out).  For each (workload, metric) it prints both sides'
   median and quartiles, the share of paired runs (i-th with i-th, in file
   name order) the new side wins, and a verdict against the bound in Spec:

   - regressed: the new median is worse than the base median by more than
     the bound;
   - improved: the new side wins at least nine pairs in ten and its median
     is better by more than the base side's quartile distance;
   - unresolved: the base side's own spread (quartile distance over the
     median) is wider than the bound, unless every new run is better than
     every base run;
   - unchanged: none of the above.

   Exits 1 if anything regressed. *)

(* Python's statistics.quantiles(data, n=4): the 'exclusive' method. *)
let quartiles l =
  let a = Array.of_list (List.sort compare l) in
  let len = Array.length a in
  if len = 0 then (nan, nan, nan)
  else if len = 1 then (a.(0), a.(0), a.(0))
  else
    let m = len + 1 in
    let q i =
      let j = max 1 (min (len - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let median l =
  let a = Array.of_list (List.sort compare l) in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let results_files dir =
  let file d = Filename.concat d "results.tsv" in
  let subs =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.map (Filename.concat dir)
    |> List.filter Sys.is_directory
  in
  List.filter Sys.file_exists (file dir :: List.map file subs)

(* (workload, metric) -> value, one table per run *)
let read_run file =
  In_channel.with_open_text file In_channel.input_lines
  |> List.filter_map (fun line ->
         match String.split_on_char '\t' line with
         | [ w; m; v; _ ] when not (Filename.check_suffix m ".n") ->
           Option.map (fun v -> ((w, m), v)) (float_of_string_opt v)
         | _ -> None)

type verdict = Improved | Regressed | Unresolved | Unchanged

let verdict_name = function
  | Improved -> "improved"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"
  | Unchanged -> "unchanged"

let verdict (x : Spec.metric) ~base ~fresh =
  (* [gain a b]: how much better [b] reads than [a] *)
  let gain a b = match x.Spec.better with Spec.Higher -> b -. a | Spec.Lower -> a -. b in
  let mb = median base and mn = median fresh in
  let q1, _, q3 = quartiles base in
  let scale = Float.abs mb in
  let k = min (List.length base) (List.length fresh) in
  let first l = List.filteri (fun i _ -> i < k) l in
  let pairs = List.combine (first base) (first fresh) in
  let wins = List.length (List.filter (fun (b, n) -> gain b n > 0.0) pairs) in
  let win_share = if pairs = [] then 0.0 else float_of_int wins /. float_of_int (List.length pairs) in
  let all_better = List.for_all (fun n -> List.for_all (fun b -> gain b n > 0.0) base) fresh in
  let spread = if scale = 0.0 then 0.0 else (q3 -. q1) /. scale in
  let v =
    if scale = 0.0 then
      if gain mb mn < 0.0 then Regressed else if gain mb mn > 0.0 && win_share >= 0.9 then Improved else Unchanged
    else if gain mb mn < -.(x.Spec.bound *. scale) then Regressed
    else if spread > x.Spec.bound && not all_better then Unresolved
    else if win_share >= 0.9 && gain mb mn > q3 -. q1 then Improved
    else Unchanged
  in
  (v, win_share)

let () =
  match Array.to_list Sys.argv with
  | [ _; base_dir; new_dir ] ->
    let load dir =
      match results_files dir with
      | [] ->
        prerr_endline ("no results.tsv under " ^ dir);
        exit 2
      | files -> List.map read_run files
    in
    let base = load base_dir and fresh = load new_dir in
    let values runs key = List.filter_map (List.assoc_opt key) runs in
    let keys = List.sort_uniq compare (List.concat_map (List.map fst) base) in
    Printf.printf "%d base runs, %d new runs\n" (List.length base) (List.length fresh);
    Printf.printf "%-13s %-30s %12s %25s %12s %25s %5s %s\n" "workload" "metric" "base" "[q1, q3]" "new" "[q1, q3]" "wins" "verdict";
    let regressed = ref false in
    List.iter
      (fun ((w, m) as key) ->
        match (Spec.find m, values base key, values fresh key) with
        | Some x, (_ :: _ as b), (_ :: _ as n) ->
          let v, wins = verdict x ~base:b ~fresh:n in
          if v = Regressed then regressed := true;
          let q1b, _, q3b = quartiles b and q1n, _, q3n = quartiles n in
          Printf.printf "%-13s %-30s %12.6g %25s %12.6g %25s %5.2f %s\n" w m (median b)
            (Printf.sprintf "[%.6g, %.6g]" q1b q3b)
            (median n)
            (Printf.sprintf "[%.6g, %.6g]" q1n q3n)
            wins (verdict_name v)
        | _ -> ())
      keys;
    if !regressed then exit 1
  | _ ->
    prerr_endline "usage: compare.exe BASE_DIR NEW_DIR";
    exit 2
