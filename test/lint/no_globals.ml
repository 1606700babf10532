(* Fail when a toplevel binding in an .ml file under the given directories
   is a mutable container: a [ref] cell, a [Hashtbl]/[Queue]/[Stack]/
   [Buffer]/[Weak] created at module initialisation, or an [Atomic]/
   [Mutex].  Such a value is shared by every system in the process; per-
   system state belongs to the system's own store instead.

   A toplevel binding is a [let]/[and] at column 0 that binds a plain
   name (optionally type-annotated) without parameters; its right-hand
   side runs until the next line that starts at column 0.

   Usage: no_globals.exe DIR...  (prints FILE:LINE for each offender) *)

let constructors =
  [
    "ref";
    "Hashtbl.create";
    "Queue.create";
    "Stack.create";
    "Buffer.create";
    "Weak.create";
    "Atomic.make";
    "Mutex.create";
  ]

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

let drop k s = String.sub s k (String.length s - k)

(* Skip [i] past characters satisfying [p]. *)
let rec skip p s i = if i < String.length s && p s.[i] then skip p s (i + 1) else i

(* The constructor [rhs] opens with, skipping blanks and parentheses. *)
let constructor_of rhs =
  let i = skip (fun c -> c = ' ' || c = '\n' || c = '(') rhs 0 in
  let j = skip (fun c -> is_ident_char c || c = '.') rhs i in
  let w = String.sub rhs i (j - i) in
  if List.mem w constructors then Some w else None

(* [Some (name, rest_of_line_after_=)] when [line] opens a toplevel
   binding of a plain value rather than a function. *)
let binding line =
  let opens prefix = String.starts_with ~prefix line in
  if not (opens "let " || opens "and ") then None
  else
    let rest = String.trim (drop 4 line) in
    let rest = if String.starts_with ~prefix:"rec " rest then drop 4 rest else rest in
    let e = skip is_ident_char rest 0 in
    if e = 0 || not (match rest.[0] with 'a' .. 'z' | '_' -> true | _ -> false) then None
    else
      let name = String.sub rest 0 e in
      let after = String.trim (drop e rest) in
      if String.starts_with ~prefix:"=" after then Some (name, drop 1 after)
      else if String.starts_with ~prefix:":" after then
        Option.map (fun k -> (name, drop (k + 1) after)) (String.index_opt after '=')
      else None

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec loop acc =
        match input_line ic with l -> loop (l :: acc) | exception End_of_file -> List.rev acc
      in
      Array.of_list (loop []))

let check_file path =
  let lines = read_lines path in
  let n = Array.length lines in
  let found = ref [] in
  Array.iteri
    (fun i line ->
      match binding line with
      | None -> ()
      | Some (name, rhs) -> (
        (* continuation lines: blank or indented *)
        let b = Buffer.create 64 in
        Buffer.add_string b rhs;
        let j = ref (i + 1) in
        while !j < n && (lines.(!j) = "" || lines.(!j).[0] = ' ') do
          Buffer.add_char b '\n';
          Buffer.add_string b lines.(!j);
          incr j
        done;
        match constructor_of (Buffer.contents b) with
        | Some c ->
          found :=
            Printf.sprintf "%s:%d: toplevel mutable value %s (%s)" path (i + 1) name c :: !found
        | None -> ()))
    lines;
  List.rev !found

let rec ml_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let p = Filename.concat dir f in
         if Sys.is_directory p then ml_files p
         else if Filename.check_suffix p ".ml" then [ p ]
         else [])

let () =
  let dirs = List.tl (Array.to_list Sys.argv) in
  let offenders = List.concat_map (fun d -> List.concat_map check_file (ml_files d)) dirs in
  List.iter print_endline offenders;
  if offenders <> [] then begin
    Printf.printf "%d toplevel mutable value(s); keep per-system state in the system's store\n"
      (List.length offenders);
    exit 1
  end
