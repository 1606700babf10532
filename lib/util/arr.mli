(** Growing the arrays that tables indexed by a dense key keep. *)

val grow : 'a array -> int -> 'a -> 'a array
(** [grow a i fill]: a copy of [a] twice as long, or [i + 1] long if that
    is longer, padded with [fill]: what [a] becomes once [i] must index it. *)
