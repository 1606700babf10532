type t =
  | Null
  | Bool of bool
  | Num of string
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let int n = Num (string_of_int n)
let fixed digits f = Num (Printf.sprintf "%.*f" digits f)

(* --- printer ------------------------------------------------------- *)

let escape b s =
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Num s -> Buffer.add_string b s
  | Str s ->
    Buffer.add_char b '"';
    escape b s;
    Buffer.add_char b '"'
  | Arr l ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        write b v)
      l;
    Buffer.add_char b ']'
  | Obj l ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        write b (Str k);
        Buffer.add_char b ':';
        write b v)
      l;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 1024 in
  write b v;
  Buffer.contents b

(* --- parser -------------------------------------------------------- *)

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let eat c = if peek () = Some c then incr pos else fail (Printf.sprintf "expected '%c'" c) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      incr pos;
      skip_ws ()
    | _ -> ()
  in
  let literal word v =
    String.iter eat word;
    v
  in
  let digits () =
    let start = !pos in
    while match peek () with Some '0' .. '9' -> true | _ -> false do
      incr pos
    done;
    if !pos = start then fail "bad number"
  in
  (* RFC 8259's number: '-'? int frac? exp?, with no leading zeros; the
     text is kept verbatim *)
  let number () =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    (match peek () with
    | Some '0' -> incr pos
    | Some '1' .. '9' -> digits ()
    | _ -> fail "bad number");
    if peek () = Some '.' then (incr pos; digits ());
    (match peek () with
    | Some ('e' | 'E') ->
      incr pos;
      (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
      digits ()
    | _ -> ());
    Num (String.sub s start (!pos - start))
  in
  let hex4 () =
    let h = if !pos + 4 <= n then String.sub s !pos 4 else "" in
    let hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
    if h = "" || not (String.for_all hex h) then fail "bad \\u escape";
    pos := !pos + 4;
    int_of_string ("0x" ^ h)
  in
  let code_point () =
    match hex4 () with
    | hi when hi >= 0xD800 && hi <= 0xDBFF ->
      if not (!pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u') then fail "lone surrogate";
      pos := !pos + 2;
      let lo = hex4 () in
      if lo < 0xDC00 || lo > 0xDFFF then fail "lone surrogate";
      0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
    | cp when cp >= 0xDC00 && cp <= 0xDFFF -> fail "lone surrogate"
    | cp -> cp
  in
  let string () =
    eat '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> incr pos
      | Some '\\' ->
        incr pos;
        let c = match peek () with Some c -> c | None -> fail "unterminated string" in
        incr pos;
        (match c with
        | '"' | '\\' | '/' -> Buffer.add_char b c
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' -> Buffer.add_utf_8_uchar b (Uchar.of_int (code_point ()))
        | _ -> decr pos; fail "bad escape");
        go ()
      | Some c when Char.code c < 0x20 -> fail "raw control byte in string"
      | Some c ->
        Buffer.add_char b c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents b
  in
  (* [items close item] parses "item (, item)* close" after the opener *)
  let items close item =
    skip_ws ();
    if peek () = Some close then (incr pos; [])
    else
      let rec more acc =
        let acc = item () :: acc in
        skip_ws ();
        match peek () with
        | Some ',' -> incr pos; more acc
        | Some c when c = close -> incr pos; List.rev acc
        | _ -> fail (Printf.sprintf "expected ',' or '%c'" close)
      in
      more []
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      incr pos;
      Obj
        (items '}' (fun () ->
             skip_ws ();
             let k = string () in
             skip_ws ();
             eat ':';
             (k, value ())))
    | Some '[' ->
      incr pos;
      Arr (items ']' value)
    | Some '"' -> Str (string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> number ()
    | None -> fail "unexpected end of input"
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* --- accessors ----------------------------------------------------- *)

let member name = function Obj l -> List.assoc_opt name l | _ -> None
let to_float = function Num s -> float_of_string_opt s | _ -> None
