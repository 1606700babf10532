module Kernel = Treesls_kernel.Kernel
module System = Treesls.System
module Ipc = Treesls_kernel.Ipc

let make_proc sys ~name ~threads ~ipcs ~notifs ~extra_pmos =
  let k = System.kernel sys in
  let proc = Kernel.create_process k ~name ~threads ~prio:5 in
  let fs =
    match Kernel.find_process k ~name:"fsmgr" with
    | Some p -> p
    | None -> proc (* degenerate boots without services: self-connect *)
  in
  for _ = 1 to ipcs do
    ignore (Ipc.create_conn k ~client:proc ~server:fs)
  done;
  for _ = 1 to notifs do
    ignore (Kernel.create_notification k proc)
  done;
  for _ = 1 to extra_pmos do
    ignore (Kernel.grow_heap k proc ~pages:1)
  done;
  proc

let find_proc sys ~name =
  match Kernel.find_process (System.kernel sys) ~name with
  | Some p -> p
  | None -> raise Not_found
