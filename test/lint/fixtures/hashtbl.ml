(* Offends with Hashtbl.create, its right-hand side on the next line;
   the function that creates a table per call is fine. *)
let fresh () = Hashtbl.create 16

let registry =
  Hashtbl.create 64
