module Int_tbl = Treesls_util.Int_tbl

type pte = { mutable paddr : Treesls_nvm.Paddr.t; mutable writable : bool; mutable dirty : bool }

type t = { entries : pte Int_tbl.t; mutable dirty : int list; mutable dirty_n : int }

let create () = { entries = Int_tbl.create 64; dirty = []; dirty_n = 0 }

let mark_dirty t vpn =
  t.dirty <- vpn :: t.dirty;
  t.dirty_n <- t.dirty_n + 1

let map t ~vpn ~paddr ~writable =
  (match Int_tbl.find_opt t.entries vpn with
  | Some _ -> invalid_arg "Pagetable.map: already mapped"
  | None -> ());
  Int_tbl.replace t.entries vpn { paddr; writable; dirty = false };
  if writable then mark_dirty t vpn

let unmap t ~vpn = Int_tbl.remove t.entries vpn

let lookup t ~vpn = Int_tbl.find_opt t.entries vpn

let protect t ~vpn =
  match Int_tbl.find_opt t.entries vpn with
  | None -> ()
  | Some pte -> pte.writable <- false

(* Drop CoW protection without entering the dirty-tracking list: the drain
   uses this to reopen pages whose copy is already banked, where
   [make_writable] would wrongly nominate them for the next protect pass. *)
let unprotect t ~vpn =
  match Int_tbl.find_opt t.entries vpn with
  | None -> ()
  | Some pte -> pte.writable <- true

let make_writable t ~vpn =
  match Int_tbl.find_opt t.entries vpn with
  | None -> invalid_arg "Pagetable.make_writable: unmapped"
  | Some pte ->
    if not pte.writable then begin
      pte.writable <- true;
      mark_dirty t vpn
    end

let remap t ~vpn ~paddr =
  match Int_tbl.find_opt t.entries vpn with
  | None -> invalid_arg "Pagetable.remap: unmapped"
  | Some pte -> pte.paddr <- paddr

let dirty_count t = t.dirty_n

let protect_dirty t f =
  let n = ref 0 in
  List.iter
    (fun vpn ->
      match Int_tbl.find_opt t.entries vpn with
      | Some pte when pte.writable ->
        if f vpn pte then begin
          pte.writable <- false;
          incr n
        end
      | Some _ | None -> ())
    t.dirty;
  t.dirty <- [];
  t.dirty_n <- 0;
  !n

let mapped_count t = Int_tbl.length t.entries
