module Kobj = Treesls_cap.Kobj
module Cost = Treesls_sim.Cost
module Probe = Treesls_obs.Probe
module Store = Treesls_nvm.Store

type handler = Bytes.t -> Bytes.t

let create_conn k ~client ~server =
  let conn = Kobj.make_ipc_conn ~id:(Treesls_cap.Id_gen.next (Kernel.ids k)) in
  conn.Kobj.ic_server <- (match server.Kernel.threads with th :: _ -> Some th | [] -> None);
  let shared =
    Kobj.make_pmo
      ~id:(Treesls_cap.Id_gen.next (Kernel.ids k))
      ~pages:1 ~kind:Kobj.Pmo_normal
  in
  conn.Kobj.ic_shared <- Some shared;
  let cap = { Kobj.target = Kobj.Ipc_conn conn; rights = Treesls_cap.Rights.full } in
  ignore (Kobj.install (Kernel.dirty_log k) client.Kernel.cg cap);
  ignore (Kobj.install (Kernel.dirty_log k) server.Kernel.cg cap);
  conn

let register_handler k conn h = Kernel.register_ipc_handler k ~conn_id:conn.Kobj.ic_id h
let has_handler k conn = Option.is_some (Kernel.ipc_handler k ~conn_id:conn.Kobj.ic_id)

let call k conn payload =
  match Kernel.ipc_handler k ~conn_id:conn.Kobj.ic_id with
  | None -> invalid_arg "Ipc.call: no handler registered (service not recovered?)"
  | Some h ->
    (* two crossings: call into the server, return to the client *)
    let c = Kernel.cost k in
    let probe = Store.probe (Kernel.store k) in
    let req = Probe.req_current probe in
    let tok =
      Probe.enter_v probe "ipc.call"
        ~args:(fun () ->
          ("conn", string_of_int conn.Kobj.ic_id)
          :: (if req <> 0 then [ ("req", string_of_int req) ] else []))
    in
    Kernel.syscall k ~work_ns:c.Cost.syscall_ns;
    Kernel.note_ipc_call k;
    Probe.req_ipc probe;
    conn.Kobj.ic_calls <- conn.Kobj.ic_calls + 1;
    Kobj.touch (Kernel.dirty_log k) (Kobj.Ipc_conn conn);
    let reply = h payload in
    Probe.req_handled probe;
    Probe.exit probe tok;
    reply

let notify k n =
  Kernel.syscall k ~work_ns:0;
  (match n.Kobj.nt_waiters with
  | [] -> n.Kobj.nt_count <- n.Kobj.nt_count + 1
  | tid :: rest ->
    n.Kobj.nt_waiters <- rest;
    (* wake the blocked thread *)
    List.iter
      (fun p ->
        List.iter
          (fun th ->
            if th.Kobj.th_id = tid then begin
              th.Kobj.th_state <- Kobj.Ready;
              Kobj.touch (Kernel.dirty_log k) (Kobj.Thread th);
              Sched.enqueue (Kernel.sched k) th
            end)
          p.Kernel.threads)
      (Kernel.processes k));
  Kobj.touch (Kernel.dirty_log k) (Kobj.Notification n)

let wait k n th =
  Kernel.syscall k ~work_ns:0;
  if n.Kobj.nt_count > 0 then begin
    n.Kobj.nt_count <- n.Kobj.nt_count - 1;
    Kobj.touch (Kernel.dirty_log k) (Kobj.Notification n);
    true
  end
  else begin
    th.Kobj.th_state <- Kobj.Blocked_notif n.Kobj.nt_id;
    Kobj.touch (Kernel.dirty_log k) (Kobj.Thread th);
    n.Kobj.nt_waiters <- n.Kobj.nt_waiters @ [ th.Kobj.th_id ];
    Kobj.touch (Kernel.dirty_log k) (Kobj.Notification n);
    false
  end
