(** Sample collection and summary statistics for experiment results. *)

type t
(** A growable collection of float samples. *)

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val is_empty : t -> bool
val total : t -> float
val mean : t -> float
val stddev : t -> float
val min : t -> float
val max : t -> float

val percentile : t -> float -> float
(** [percentile t p] with [p] in [\[0,100\]]; linear interpolation between
    order statistics. Raises [Invalid_argument] on an empty collection. *)

val percentile_opt : t -> float -> float option
(** Like {!percentile} but [None] on an empty collection, so reporting
    code can print "n/a" instead of crashing a whole experiment run. *)

val min_opt : t -> float option
val max_opt : t -> float option
(** Non-raising variants of {!min} / {!max}; [None] when empty. *)

val p50 : t -> float

val merge : t -> t -> t
(** Union of two sample sets (neither input is mutated). *)

val clear : t -> unit
