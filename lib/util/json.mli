(** The one JSON encoding behind every export, BENCH file and reader in
    the repository: a value type, a compact printer and a strict parser.

    Numbers keep their literal text, so each producer picks its own
    number format ({!int}, {!fixed}) and a parsed document prints back
    byte for byte. *)

type t =
  | Null
  | Bool of bool
  | Num of string  (** a number's literal text, e.g. ["1.250"] *)
  | Str of string  (** raw bytes; non-ASCII passes through unescaped *)
  | Arr of t list
  | Obj of (string * t) list  (** fields in print order *)

val int : int -> t

val fixed : int -> float -> t
(** [fixed digits f] is [f] with [digits] decimals (["%.*f"]); [f] must be
    finite, as JSON has no NaN or infinity. *)

val to_string : t -> string
(** Compact: no whitespace.  ['"'], ['\\'] and control bytes are escaped
    ([\n], [\r], [\t] by name, the others as [\u00XX]). *)

exception Parse_error of string

val parse : string -> t
(** Strict RFC 8259 parse of one document (whitespace around it allowed);
    [\u] escapes, surrogate pairs included, decode to UTF-8.  Raises
    {!Parse_error} (message names the byte offset) on trailing garbage,
    an unterminated string, a bad escape, a raw control byte in a string
    or a number outside the JSON grammar. *)

val member : string -> t -> t option
(** First field [name] of an object; [None] if absent or not an object. *)

val to_float : t -> float option
(** The value of a [Num]; [None] for any other constructor. *)
