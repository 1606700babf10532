module Kobj = Treesls_cap.Kobj

(* Regions sorted by start vpn, so a lookup is a binary search instead of a
   scan of the whole region list (the protect pass resolves every dirty
   vpn, so this is on the STW path).  When regions overlap, the region
   list's first match wins; the index preserves that by remembering each
   region's list position and scanning left from the binary-search point
   while the running max end vpn still covers the query. *)
type t = {
  sorted : (Kobj.vm_region * int) array;  (* by vr_vpn, with list position *)
  max_end : int array;  (* max_end.(i) = max end vpn over sorted.(0..i) *)
}

let build vms =
  let arr = Array.of_list (List.mapi (fun i r -> (r, i)) vms.Kobj.vs_regions) in
  Array.sort
    (fun ((a : Kobj.vm_region), ia) (b, ib) ->
      match compare a.Kobj.vr_vpn b.Kobj.vr_vpn with 0 -> compare ia ib | c -> c)
    arr;
  let max_end = Array.make (Array.length arr) 0 in
  let run = ref 0 in
  Array.iteri
    (fun i ((r : Kobj.vm_region), _) ->
      run := max !run (r.Kobj.vr_vpn + r.Kobj.vr_pages);
      max_end.(i) <- !run)
    arr;
  { sorted = arr; max_end }

let resolve t vpn =
  let arr = t.sorted in
  let n = Array.length arr in
  (* rightmost entry starting at or before vpn *)
  let last = ref (-1) in
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let r, _ = arr.(mid) in
    if r.Kobj.vr_vpn <= vpn then begin
      last := mid;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  let best = ref None in
  let i = ref !last in
  while !i >= 0 && t.max_end.(!i) > vpn do
    let r, pos = arr.(!i) in
    if vpn < r.Kobj.vr_vpn + r.Kobj.vr_pages then begin
      match !best with
      | Some (_, best_pos) when best_pos <= pos -> ()
      | Some _ | None -> best := Some (r, pos)
    end;
    decr i
  done;
  match !best with
  | Some (r, _) -> Some (r.Kobj.vr_pmo, vpn - r.Kobj.vr_vpn)
  | None -> None
