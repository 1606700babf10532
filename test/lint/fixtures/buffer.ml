(* Offends with Buffer.create; the function below it is fine. *)
let render b s = Buffer.add_string b s

let scratch = Buffer.create 256
