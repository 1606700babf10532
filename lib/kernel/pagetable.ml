type pte = { mutable paddr : Treesls_nvm.Paddr.t; mutable writable : bool; mutable dirty : bool }

(* Unmapped slots hold [absent]; the array grows to the highest vpn
   mapped, since a process carves its regions upward from vpn 16. *)
type t = { mutable entries : pte array; mutable dirty : int list; mutable dirty_n : int }

let absent = { paddr = Treesls_nvm.Paddr.nvm 0; writable = false; dirty = false }

let create () = { entries = [||]; dirty = []; dirty_n = 0 }

let find t ~vpn = if vpn >= 0 && vpn < Array.length t.entries then t.entries.(vpn) else absent

let lookup t ~vpn =
  let pte = find t ~vpn in
  if pte == absent then None else Some pte

let mark_dirty t vpn =
  t.dirty <- vpn :: t.dirty;
  t.dirty_n <- t.dirty_n + 1

let map t ~vpn ~paddr ~writable =
  if find t ~vpn != absent then invalid_arg "Pagetable.map: already mapped";
  if vpn >= Array.length t.entries then t.entries <- Treesls_util.Arr.grow t.entries vpn absent;
  t.entries.(vpn) <- { paddr; writable; dirty = false };
  if writable then mark_dirty t vpn

let protect t ~vpn =
  let pte = find t ~vpn in
  if pte != absent then pte.writable <- false

(* Drop CoW protection without entering the dirty-tracking list: the drain
   uses this to reopen pages whose copy is already banked, where
   [make_writable] would wrongly nominate them for the next protect pass. *)
let unprotect t ~vpn =
  let pte = find t ~vpn in
  if pte != absent then pte.writable <- true

let make_writable t ~vpn =
  let pte = find t ~vpn in
  if pte == absent then invalid_arg "Pagetable.make_writable: unmapped";
  if not pte.writable then begin
    pte.writable <- true;
    mark_dirty t vpn
  end

let remap t ~vpn ~paddr =
  let pte = find t ~vpn in
  if pte == absent then invalid_arg "Pagetable.remap: unmapped";
  pte.paddr <- paddr

let dirty_count t = t.dirty_n

let protect_dirty t f =
  let n = ref 0 in
  List.iter
    (fun vpn ->
      let pte = find t ~vpn in
      if pte.writable && f vpn pte then begin
        pte.writable <- false;
        incr n
      end)
    t.dirty;
  t.dirty <- [];
  t.dirty_n <- 0;
  !n

let mapped_count t = Array.fold_left (fun n pte -> if pte == absent then n else n + 1) 0 t.entries
