(* Offends with Weak.create. *)
let cache = Weak.create 32
