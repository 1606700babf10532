(* Offends with Atomic.make: an annotated binding. *)
let next_id : int Atomic.t = Atomic.make 0
