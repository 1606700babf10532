(* Symbolise pcprof.so samples into folded stacks ("outer;...;leaf N" per
   line, most frequent first), the input of flame-graph tools, and print
   two tables to stderr: the top frames by self samples (the interrupted
   PC), and the top library frames by inclusive samples (stacks holding
   the frame at least once).

     folded.exe EXE SAMPLES [--outside FRAME]... > OUT.folded

   EXE is the profiled executable: its addresses are resolved with
   [nm -n], relative to where the samples' memory map says it was loaded;
   addresses in shared libraries are labelled [library].  The folded
   output holds every sample; the tables count only the samples whose
   stack holds none of the [--outside] frames, so work the measurement
   leaves out (a harness's own calibration, say) does not rank.  A frame
   is named as its symbol reads, or by its last module path components
   ([Reference.time] matches [Dune__exe__Reference.time]).  A library
   frame is one of a dune library's modules: neither the executable's
   own ([Dune__exe__]) nor the standard library's.

   A sample whose stack holds one of the OCaml collector's entry points
   ([collector]) was spent collecting; the frames above it only
   allocated the block that triggered the collection.  The tables say how
   many measured samples that is, in all and for each library frame. *)

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

let matches frame name =
  frame = name || String.ends_with ~suffix:("__" ^ name) frame

(* whether [s] holds "__" at or after [i], before index [stop] *)
let rec mangled s i stop =
  i + 1 < stop && ((s.[i] = '_' && s.[i + 1] = '_') || mangled s (i + 1) stop)

let is_library frame =
  (match String.index_opt frame '.' with Some dot -> mangled frame 0 dot | None -> false)
  && not
       (String.starts_with ~prefix:"Stdlib__" frame
       || String.starts_with ~prefix:"Dune__exe__" frame)

(* minor collections, major slices, major-heap allocation and the
   remembered set's growth; the rest of the collector runs below these *)
let collector =
  [ "caml_empty_minor_heap"; "caml_minor_collection"; "caml_major_collection_slice";
    "caml_alloc_shr"; "caml_realloc_ref_table" ]

let in_collector path =
  List.exists (fun f -> List.exists (fun c -> String.starts_with ~prefix:c f) collector) path

let usage () =
  prerr_endline "usage: folded.exe EXE SAMPLES [--outside FRAME]...";
  exit 2

let () =
  let exe, samples_path, outside =
    match Array.to_list Sys.argv with
    | _ :: exe :: samples :: rest ->
      let rec frames = function
        | "--outside" :: f :: rest -> f :: frames rest
        | [] -> []
        | _ -> usage ()
      in
      (exe, samples, frames rest)
    | _ -> usage ()
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
  let stacks = Hashtbl.create 1024 and self = Hashtbl.create 256 and incl = Hashtbl.create 256 in
  let incl_gc = Hashtbl.create 256 and collecting = ref 0 in
  let bump tbl key = Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key)) in
  let measured = ref 0 in
  List.iter
    (fun (pc, frames) ->
      (* frames run handler, signal trampoline, then the interrupted PC and
         its callers' return addresses (one past their call: look up
         [addr - 1]) *)
      let rec callers = function [] -> [] | f :: rest -> if f = pc then rest else callers rest in
      let leaf = name pc in
      let path = List.rev_map (fun ra -> name (ra - 1)) (callers frames) @ [ leaf ] in
      bump stacks (String.concat ";" path);
      if not (List.exists (fun f -> List.exists (matches f) outside) path) then begin
        incr measured;
        bump self leaf;
        let libs = List.sort_uniq compare (List.filter is_library path) in
        List.iter (bump incl) libs;
        if in_collector path then begin
          incr collecting;
          List.iter (bump incl_gc) libs
        end
      end)
    samples;
  let sorted tbl = List.sort (fun (_, a) (_, b) -> compare b a) (List.of_seq (Hashtbl.to_seq tbl)) in
  List.iter (fun (stack, n) -> Printf.printf "%s %d\n" stack n) (sorted stacks);
  let total = List.length samples and measured = !measured in
  let pct n = 100. *. float_of_int n /. float_of_int (max 1 measured) in
  let table ?gc title tbl =
    Printf.eprintf "top frames by %s samples%s:\n" title
      (if gc = None then "" else " (then those in the collector)");
    List.iteri
      (fun i (frame, n) ->
        if i < 25 then
          match gc with
          | None -> Printf.eprintf "  %5.1f%% %6d  %s\n" (pct n) n frame
          | Some g ->
            let c = Option.value ~default:0 (Hashtbl.find_opt g frame) in
            Printf.eprintf "  %5.1f%% %6d  %5.1f%% %6d  %s\n" (pct n) n (pct c) c frame)
      (sorted tbl)
  in
  Printf.eprintf "%d samples, %d (%.1f%%) outside the frames %s; the tables count those.\n" total
    measured
    (100. *. float_of_int measured /. float_of_int (max 1 total))
    (match outside with [] -> "(none)" | l -> String.concat ", " l);
  Printf.eprintf "%d measured samples (%.1f%%) in the collector (%s*).\n" !collecting
    (pct !collecting) (String.concat "*, " collector);
  table "self" self;
  table ~gc:incl_gc "inclusive library" incl
