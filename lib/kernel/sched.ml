module Kobj = Treesls_cap.Kobj

type t = { queue : Kobj.thread Queue.t }

let create () = { queue = Queue.create () }

let enqueue t th = Queue.add th t.queue

let rec pick t =
  match Queue.take_opt t.queue with
  | None -> None
  | Some th -> ( match th.Kobj.th_state with Kobj.Ready -> Some th | _ -> pick t)

let ready_count t = Queue.length t.queue
let clear t = Queue.clear t.queue

let rebuild t threads =
  clear t;
  List.iter (fun th -> if th.Kobj.th_state = Kobj.Ready then enqueue t th) threads
