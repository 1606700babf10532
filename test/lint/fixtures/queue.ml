(* Offends with Queue.create behind a parenthesis. *)
let pending = (Queue.create ())
