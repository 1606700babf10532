(* Offends with Stack.create. *)
let frames = Stack.create ()
