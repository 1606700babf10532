(* Symbolise pcprof.so samples into folded stacks ("outer;...;leaf N" per
   line, most frequent first), the input of flame-graph tools, and print
   the top frames by self samples (the interrupted PC) to stderr.

     folded.exe EXE SAMPLES > OUT.folded

   EXE is the profiled executable: its addresses are resolved with
   [nm -n], relative to where the samples' memory map says it was loaded;
   addresses in shared libraries are labelled [library]. *)

type map = { lo : int; hi : int; path : string }

let hex s = int_of_string ("0x" ^ s)

(* "S pc f0 f1 ..." and "M <a /proc/self/maps line>" *)
let read_samples path =
  let samples = ref [] and maps = ref [] in
  In_channel.with_open_text path (fun ic ->
      let rec loop () =
        match In_channel.input_line ic with
        | None -> ()
        | Some line ->
          (match String.split_on_char ' ' line with
          | "S" :: pc :: frames ->
            samples := (int_of_string pc, List.map int_of_string frames) :: !samples
          | "M" :: range :: _ :: _ :: _ :: _ :: rest -> (
            (* the vsyscall page lies above max_int: skipped *)
            match (String.split_on_char '-' range, List.filter (( <> ) "") rest) with
            | [ lo; hi ], [ path ] -> (
              match (int_of_string_opt ("0x" ^ lo), int_of_string_opt ("0x" ^ hi)) with
              | Some lo, Some hi -> maps := { lo; hi; path } :: !maps
              | _ -> ())
            | _ -> ())
          | _ -> ());
          loop ()
      in
      loop ());
  (List.rev !samples, !maps)

(* Text symbols of [exe], sorted by address, OCaml names shortened:
   [camlTreesls_kernel__Kernel.find_123] reads [Treesls_kernel__Kernel.find]. *)
let symbols exe =
  let short name =
    let name =
      if String.starts_with ~prefix:"caml" name && String.contains name '.' then
        String.sub name 4 (String.length name - 4)
      else name
    in
    match String.rindex_opt name '_' with
    | Some i
      when i + 1 < String.length name
           && String.for_all (function '0' .. '9' -> true | _ -> false)
                (String.sub name (i + 1) (String.length name - i - 1)) ->
      String.sub name 0 i
    | Some _ | None -> name
  in
  let ic = Unix.open_process_args_in "nm" [| "nm"; "-n"; "--defined-only"; exe |] in
  let syms = ref [] in
  (try
     while true do
       match String.split_on_char ' ' (input_line ic) with
       | [ addr; ("T" | "t"); name ] -> syms := (hex addr, short name) :: !syms
       | _ -> ()
     done
   with End_of_file -> ());
  ignore (Unix.close_process_in ic);
  Array.of_list (List.rev !syms)

let () =
  let exe, samples_path =
    match Sys.argv with
    | [| _; exe; samples |] -> (exe, samples)
    | _ ->
      prerr_endline "usage: folded.exe EXE SAMPLES";
      exit 2
  in
  let samples, maps = read_samples samples_path in
  let syms = symbols exe in
  let exe_id = (Unix.stat exe).Unix.st_ino in
  let is_exe m = try (Unix.stat m.path).Unix.st_ino = exe_id with Unix.Unix_error _ -> false in
  (* a position-independent executable's lowest mapping is its load base *)
  let base = List.fold_left (fun b m -> if is_exe m then min b m.lo else b) max_int maps in
  let name addr =
    match List.find_opt (fun m -> addr >= m.lo && addr < m.hi) maps with
    | Some m when is_exe m ->
      let a = addr - base in
      (* the last symbol at or below [a] *)
      let rec search lo hi = if hi - lo <= 1 then lo else
          let mid = (lo + hi) / 2 in
          if fst syms.(mid) <= a then search mid hi else search lo mid
      in
      if Array.length syms = 0 || fst syms.(0) > a then "[?]"
      else snd syms.(search 0 (Array.length syms))
    | Some m -> "[" ^ Filename.basename m.path ^ "]"
    | None -> "[?]"
  in
  let stacks = Hashtbl.create 1024 and self = Hashtbl.create 256 in
  let bump tbl key = Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key)) in
  List.iter
    (fun (pc, frames) ->
      (* frames run handler, signal trampoline, then the interrupted PC and
         its callers' return addresses (one past their call: look up
         [addr - 1]) *)
      let rec callers = function [] -> [] | f :: rest -> if f = pc then rest else callers rest in
      let leaf = name pc in
      let path = List.rev_map (fun ra -> name (ra - 1)) (callers frames) @ [ leaf ] in
      bump stacks (String.concat ";" path);
      bump self leaf)
    samples;
  let sorted tbl = List.sort (fun (_, a) (_, b) -> compare b a) (List.of_seq (Hashtbl.to_seq tbl)) in
  List.iter (fun (stack, n) -> Printf.printf "%s %d\n" stack n) (sorted stacks);
  let total = List.length samples in
  Printf.eprintf "%d samples; top frames by self samples:\n" total;
  List.iteri
    (fun i (leaf, n) ->
      if i < 25 then
        Printf.eprintf "  %5.1f%% %6d  %s\n"
          (100. *. float_of_int n /. float_of_int (max 1 total))
          n leaf)
    (sorted self)
