(* Offends with Mutex.create, bound with [and]. *)
let limit = 8
and lock = Mutex.create ()
