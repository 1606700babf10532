type kind = Cap_group_k | Thread_k | Vmspace_k | Pmo_k | Ipc_conn_k | Notification_k | Irq_k

type t =
  | Cap_group of cap_group
  | Thread of thread
  | Vmspace of vmspace
  | Pmo of pmo
  | Ipc_conn of ipc_conn
  | Notification of notification
  | Irq_notification of irq_notification

and cap = { target : t; rights : Rights.t }

and cap_group = {
  cg_id : int;
  cg_name : string;
  mutable cg_slots : cap option array;
  mutable cg_used : int;
  mutable cg_gen : int;
}

and thread_state = Ready | Blocked_notif of int | Exited

and thread = {
  th_id : int;
  mutable th_regs : int array;
  mutable th_state : thread_state;
  mutable th_prio : int;
  mutable th_cursor : int;
  mutable th_gen : int;
}

and vm_region = { vr_vpn : int; vr_pages : int; vr_pmo : pmo; vr_writable : bool }

and vmspace = { vs_id : int; mutable vs_regions : vm_region list; mutable vs_gen : int }

and pmo_kind = Pmo_normal | Pmo_eternal

and pmo = {
  pmo_id : int;
  pmo_pages : int;
  pmo_kind : pmo_kind;
  pmo_radix : Treesls_nvm.Paddr.t Radix.t;
  mutable pmo_gen : int;
}

and ipc_conn = {
  ic_id : int;
  mutable ic_server : thread option;
  mutable ic_shared : pmo option;
  mutable ic_calls : int;
  mutable ic_gen : int;
}

and notification = {
  nt_id : int;
  mutable nt_count : int;
  mutable nt_waiters : int list;
  mutable nt_gen : int;
}

and irq_notification = {
  irq_id : int;
  irq_line : int;
  mutable irq_pending : int;
  mutable irq_gen : int;
}

let id = function
  | Cap_group g -> g.cg_id
  | Thread th -> th.th_id
  | Vmspace vs -> vs.vs_id
  | Pmo p -> p.pmo_id
  | Ipc_conn c -> c.ic_id
  | Notification n -> n.nt_id
  | Irq_notification i -> i.irq_id

(* Generation epochs: every mutation of checkpointable object state bumps
   the object's generation through {!touch}.  The incremental walk compares
   an object's generation against the one recorded at its last checkpoint
   (ORoot-side) and skips snapshot/copy/charge when they match, so the
   bump must be placed on every state-mutating path — the constructors and
   cap-slot operations below, plus the kernel/IPC mutators. *)
let touch = function
  | Cap_group g -> g.cg_gen <- g.cg_gen + 1
  | Thread th -> th.th_gen <- th.th_gen + 1
  | Vmspace vs -> vs.vs_gen <- vs.vs_gen + 1
  | Pmo p -> p.pmo_gen <- p.pmo_gen + 1
  | Ipc_conn c -> c.ic_gen <- c.ic_gen + 1
  | Notification n -> n.nt_gen <- n.nt_gen + 1
  | Irq_notification i -> i.irq_gen <- i.irq_gen + 1

let gen = function
  | Cap_group g -> g.cg_gen
  | Thread th -> th.th_gen
  | Vmspace vs -> vs.vs_gen
  | Pmo p -> p.pmo_gen
  | Ipc_conn c -> c.ic_gen
  | Notification n -> n.nt_gen
  | Irq_notification i -> i.irq_gen

let kind = function
  | Cap_group _ -> Cap_group_k
  | Thread _ -> Thread_k
  | Vmspace _ -> Vmspace_k
  | Pmo _ -> Pmo_k
  | Ipc_conn _ -> Ipc_conn_k
  | Notification _ -> Notification_k
  | Irq_notification _ -> Irq_k

let kind_name = function
  | Cap_group_k -> "Cap Group"
  | Thread_k -> "Thread"
  | Vmspace_k -> "VM Space"
  | Pmo_k -> "PMO"
  | Ipc_conn_k -> "IPC"
  | Notification_k -> "Notification"
  | Irq_k -> "IRQ"

let all_kinds =
  [ Cap_group_k; Thread_k; Vmspace_k; Pmo_k; Ipc_conn_k; Notification_k; Irq_k ]

let regs_count = 34

let copy_bytes = function
  | Cap_group g -> 64 + (16 * Array.length g.cg_slots)
  | Thread _ -> 64 + (8 * regs_count)
  | Vmspace vs -> 48 + (40 * List.length vs.vs_regions)
  | Pmo _ -> 64
  | Ipc_conn _ -> 64
  | Notification n -> 48 + (8 * List.length n.nt_waiters)
  | Irq_notification _ -> 48

(* Constructors start at generation 1 (never 0): a fresh object can never
   compare equal to an ORoot whose recorded generation was zeroed. *)
let make_cap_group ~id ~name =
  { cg_id = id; cg_name = name; cg_slots = Array.make 8 None; cg_used = 0; cg_gen = 1 }

let make_thread ~id ~prio =
  {
    th_id = id;
    th_regs = Array.make regs_count 0;
    th_state = Ready;
    th_prio = prio;
    th_cursor = 0;
    th_gen = 1;
  }

let make_vmspace ~id = { vs_id = id; vs_regions = []; vs_gen = 1 }

let make_pmo ~id ~pages ~kind =
  assert (pages > 0);
  { pmo_id = id; pmo_pages = pages; pmo_kind = kind; pmo_radix = Radix.create (); pmo_gen = 1 }

let make_ipc_conn ~id = { ic_id = id; ic_server = None; ic_shared = None; ic_calls = 0; ic_gen = 1 }
let make_notification ~id = { nt_id = id; nt_count = 0; nt_waiters = []; nt_gen = 1 }
let make_irq_notification ~id ~line = { irq_id = id; irq_line = line; irq_pending = 0; irq_gen = 1 }

let install g cap =
  let len = Array.length g.cg_slots in
  let rec find i = if i >= len then -1 else if g.cg_slots.(i) = None then i else find (i + 1) in
  let slot = find 0 in
  let slot =
    if slot >= 0 then slot
    else begin
      let bigger = Array.make (2 * len) None in
      Array.blit g.cg_slots 0 bigger 0 len;
      g.cg_slots <- bigger;
      len
    end
  in
  g.cg_slots.(slot) <- Some cap;
  g.cg_used <- g.cg_used + 1;
  touch (Cap_group g);
  slot

let install_at g slot cap =
  if slot < 0 then invalid_arg "Kobj.install_at: negative slot";
  let len = Array.length g.cg_slots in
  if slot >= len then begin
    let bigger = Array.make (max (slot + 1) (2 * len)) None in
    Array.blit g.cg_slots 0 bigger 0 len;
    g.cg_slots <- bigger
  end;
  if g.cg_slots.(slot) <> None then invalid_arg "Kobj.install_at: slot occupied";
  g.cg_slots.(slot) <- Some cap;
  g.cg_used <- g.cg_used + 1;
  touch (Cap_group g)

let lookup g slot =
  if slot < 0 || slot >= Array.length g.cg_slots then None else g.cg_slots.(slot)

let revoke g slot =
  match lookup g slot with
  | None -> invalid_arg "Kobj.revoke: empty slot"
  | Some _ ->
    g.cg_slots.(slot) <- None;
    g.cg_used <- g.cg_used - 1;
    touch (Cap_group g)

let iter_caps f g =
  Array.iteri (fun i slot -> match slot with Some c -> f i c | None -> ()) g.cg_slots

let caps_count g = g.cg_used
let slots_len g = Array.length g.cg_slots

let iter_tree ~root f =
  let seen = Hashtbl.create 256 in
  let rec visit obj =
    let oid = id obj in
    if not (Hashtbl.mem seen oid) then begin
      Hashtbl.add seen oid ();
      f obj;
      match obj with
      | Cap_group g -> iter_caps (fun _ c -> visit c.target) g
      | Vmspace vs -> List.iter (fun r -> visit (Pmo r.vr_pmo)) vs.vs_regions
      | Ipc_conn c -> (
        (match c.ic_server with Some th -> visit (Thread th) | None -> ());
        match c.ic_shared with Some p -> visit (Pmo p) | None -> ())
      | Thread _ | Pmo _ | Notification _ | Irq_notification _ -> ()
    end
  in
  visit (Cap_group root)
