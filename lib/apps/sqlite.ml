module System = Treesls.System
module Kernel = Treesls_kernel.Kernel
module Rng = Treesls_util.Rng
module Cost = Treesls_sim.Cost

type t = {
  sys : System.t;
  mutable proc : Kernel.process;
  mutable kv : Kvstore.t;
  kv_vpn : int;
  journal_vpn : int;
  journal_pages : int;
  mutable journal_cursor : int;
  mutable next_row : int;
}

type op = Read | Insert | Update | Delete

let psz sys = (Kernel.cost (System.kernel sys)).Cost.page_size

(* the store is sized for this many rows *)
let rows_hint = 50_000

(* Table 2 row B: +1 CG, +4 threads, +3 IPC, +0 notifications, +14 PMOs
   (= code + 4 stacks + 3 IPC buffers + store + journal + 4 heap), +1 VMS. *)
let launch sys =
  let proc = Launchpad.make_proc sys ~name:"sqlite" ~threads:4 ~ipcs:3 ~notifs:0 ~extra_pmos:4 in
  let k = System.kernel sys in
  let bytes = (rows_hint * 180) + (rows_hint * 8) + (2 * psz sys) in
  let pages = (bytes / psz sys) + 2 in
  let kv = Kvstore.create k proc ~buckets:rows_hint ~pages in
  let journal_pages = 64 in
  let journal_vpn = Kernel.grow_heap k proc ~pages:journal_pages in
  {
    sys;
    proc;
    kv;
    kv_vpn = Kvstore.base_vpn kv;
    journal_vpn;
    journal_pages;
    journal_cursor = 0;
    next_row = 0;
  }

let refresh t =
  t.proc <- Launchpad.find_proc t.sys ~name:"sqlite";
  t.kv <- Kvstore.attach (System.kernel t.sys) t.proc ~vpn:t.kv_vpn;
  (* rows inserted after the restored checkpoint are gone; resync *)
  t.next_row <- Kvstore.count t.kv

let key i = Printf.sprintf "row%08d" i
let payload i tag = Printf.sprintf "%s-%08d-%s" tag i (String.make 100 'd')

(* Rollback journal: write the pre-image of the modified page before the
   change (one extra dirty page per write op). *)
let journal_write t =
  let k = System.kernel t.sys in
  let p = psz t.sys in
  let total = t.journal_pages * p in
  if t.journal_cursor + 256 > total then t.journal_cursor <- 0;
  Kernel.write_bytes k t.proc
    ~vaddr:((t.journal_vpn * p) + t.journal_cursor)
    (Bytes.make 256 'j');
  t.journal_cursor <- t.journal_cursor + 256

let op_step t op i =
  match op with
  | Read -> ignore (Kvstore.get t.kv ~key:(key i))
  | Insert ->
    journal_write t;
    Kvstore.put t.kv ~key:(key t.next_row) ~value:(payload t.next_row "ins");
    t.next_row <- t.next_row + 1
  | Update ->
    journal_write t;
    Kvstore.put t.kv ~key:(key i) ~value:(payload i "upd")
  | Delete ->
    journal_write t;
    ignore (Kvstore.delete t.kv ~key:(key i))

let step t rng =
  let live = max 1 t.next_row in
  let i = Rng.int rng live in
  match Rng.int rng 4 with
  | 0 -> op_step t Read i
  | 1 -> op_step t Insert i
  | 2 -> op_step t Update i
  | _ -> op_step t Delete i

let rows t = Kvstore.count t.kv
