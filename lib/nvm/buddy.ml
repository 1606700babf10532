type t = {
  area : Warea.t;
  base : int;
  total : int; (* pages; power of two *)
  tree : int; (* word offset of tree[1..2*total): each node's deficit *)
  orders : int; (* word offset of per-page alloc order (+1; 0 = none) *)
  used_count : int; (* word offset of the pages-in-use counter *)
}

(* Every word is stored relative to the all-free state, so an all-zero
   range is a formatted allocator: node [i] holds its deficit
   [node_size i - longest i], the counter holds pages in use. *)

let words_needed ~total_pages = (2 * total_pages) + total_pages + 1

let layout area ~base ~total_pages =
  if not (Treesls_util.Bits.is_power_of_two total_pages) then
    invalid_arg "Buddy: total_pages must be a power of two";
  {
    area;
    base;
    total = total_pages;
    tree = base;
    orders = base + (2 * total_pages);
    used_count = base + (2 * total_pages) + total_pages;
  }

(* The zeroed range already reads as all-free; the one-word commit keeps
   the format a journal commit point, so commit-point numbering (and every
   crash reproducer string) does not depend on the encoding. *)
let format area ~base ~total_pages =
  let t = layout area ~base ~total_pages in
  Warea.commit area ~desc:"buddy-format" [ (t.used_count, 0) ];
  t

let attach area ~base ~total_pages = layout area ~base ~total_pages

let total_pages t = t.total
let free_pages t = t.total - Warea.read t.area t.used_count

(* Largest free run below node [i], which covers [nsize] pages. *)
let longest txn t i ~nsize = nsize - Txn.read txn (t.tree + i)
let set_longest txn t i ~nsize v = Txn.write txn (t.tree + i) (nsize - v)

let alloc_txn txn t ~order =
  if order < 0 || 1 lsl order > t.total then invalid_arg "Buddy.alloc: bad order";
  let size = 1 lsl order in
  if longest txn t 1 ~nsize:t.total < size then None
  else begin
    (* Descend to a node of exactly [size] whose subtree has a free run. *)
    let rec descend node nsize =
      if nsize = size then node
      else begin
        let left = 2 * node in
        if longest txn t left ~nsize:(nsize / 2) >= size then descend left (nsize / 2)
        else descend (left + 1) (nsize / 2)
      end
    in
    let node = descend 1 t.total in
    let offset = (node * size) - t.total in
    set_longest txn t node ~nsize:size 0;
    (* Recompute ancestors with the pending overlay. *)
    let rec up node nsize =
      if node > 1 then begin
        let parent = node / 2 in
        let l = longest txn t (2 * parent) ~nsize and r = longest txn t ((2 * parent) + 1) ~nsize in
        set_longest txn t parent ~nsize:(2 * nsize) (if l > r then l else r);
        up parent (2 * nsize)
      end
    in
    up node size;
    Txn.write txn (t.orders + offset) (order + 1);
    Txn.write txn t.used_count (Txn.read txn t.used_count + size);
    Some offset
  end

let free_txn txn t ~offset =
  if offset < 0 || offset >= t.total then invalid_arg "Buddy.free: bad offset";
  let tag = Txn.read txn (t.orders + offset) in
  if tag = 0 then invalid_arg "Buddy.free: not a live allocation";
  let order = tag - 1 in
  let size = 1 lsl order in
  let node = (t.total + offset) / size in
  set_longest txn t node ~nsize:size size;
  Txn.write txn (t.orders + offset) 0;
  let rec up node nsize =
    if node > 1 then begin
      let parent = node / 2 in
      let psize = nsize * 2 in
      let l = longest txn t (2 * parent) ~nsize and r = longest txn t ((2 * parent) + 1) ~nsize in
      let merged = if l = nsize && r = nsize then psize else if l > r then l else r in
      set_longest txn t parent ~nsize:psize merged;
      up parent psize
    end
  in
  up node size;
  Txn.write txn t.used_count (Txn.read txn t.used_count - size)

let alloc t ~order =
  let txn = Txn.create t.area in
  match alloc_txn txn t ~order with
  | None -> None
  | Some offset ->
    Txn.commit txn ~desc:"buddy-alloc";
    Some offset

let free t ~offset =
  let txn = Txn.create t.area in
  free_txn txn t ~offset;
  Txn.commit txn ~desc:"buddy-free"

let order_of t ~offset =
  let tag = Warea.read t.area (t.orders + offset) in
  if tag = 0 then None else Some (tag - 1)

let iter_live t f =
  for p = 0 to t.total - 1 do
    let tag = Warea.read t.area (t.orders + p) in
    if tag > 0 then f ~offset:p ~order:(tag - 1)
  done

let check_invariants t =
  (* Recompute the expected tree from the allocation-order array. A page is
     free iff it is not covered by any live allocation. *)
  let covered = Array.make t.total false in
  let used = ref 0 in
  for p = 0 to t.total - 1 do
    let tag = Warea.read t.area (t.orders + p) in
    if tag > 0 then begin
      let size = 1 lsl (tag - 1) in
      if p mod size <> 0 then failwith "buddy: misaligned allocation record";
      for q = p to p + size - 1 do
        if covered.(q) then failwith "buddy: overlapping allocations";
        covered.(q) <- true
      done;
      used := !used + size
    end
  done;
  if Warea.read t.area t.used_count <> !used then
    failwith
      (Printf.sprintf "buddy: used count %d <> recomputed %d"
         (Warea.read t.area t.used_count) !used);
  (* One post-order pass from the root: a node is wholly free only if both
     children are wholly free; otherwise it offers the max child run.  A
     block allocated at order k zeroes its node's [longest] but leaves its
     descendants' words stale by design (they are never consulted while an
     ancestor is allocated), so only nodes outside every allocated block
     are compared. *)
  let rec expect node nsize ~under =
    let got = if under then 0 else nsize - Warea.read t.area (t.tree + node) in
    let e =
      if nsize = 1 then if covered.(node - t.total) then 0 else 1
      else
        let under = under || got = 0 in
        let l = expect (2 * node) (nsize / 2) ~under
        and r = expect ((2 * node) + 1) (nsize / 2) ~under in
        if l = nsize / 2 && r = nsize / 2 then nsize else if l > r then l else r
    in
    if (not under) && got <> e then
      failwith (Printf.sprintf "buddy: node %d longest %d <> expected %d" node got e);
    e
  in
  ignore (expect 1 t.total ~under:false)
