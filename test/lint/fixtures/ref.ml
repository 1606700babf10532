(* Offends with ref. *)
let counter = ref 0
