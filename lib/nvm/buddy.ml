type t = {
  area : Warea.t;
  base : int;
  total : int; (* pages; power of two *)
  max_order : int; (* log2 total: the largest block *)
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
    max_order = Treesls_util.Bits.log2_int total_pages;
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

(* A record's tag is [order + 1]; a block of that order must fit in the
   managed pages.  Anything else is corruption: the audit reports it, and
   no walk may follow it past the last page. *)
let valid_tag t tag = tag >= 1 && tag - 1 <= t.max_order

let iter_live t f =
  Warea.iter_nonzero t.area ~lo:t.orders ~hi:(t.orders + t.total) (fun i tag ->
      let offset = i - t.orders in
      if valid_tag t tag && offset + (1 lsl (tag - 1)) <= t.total then
        f ~offset ~order:(tag - 1))

let check_invariants t =
  (* The order records, ascending.  Blocks are aligned powers of two, so a
     record overlaps an earlier one iff it starts before the furthest end
     seen so far.  [blocks] holds each block's tree node. *)
  let blocks = Hashtbl.create 64 in
  let reach = ref 0 and used = ref 0 in
  Warea.iter_nonzero t.area ~lo:t.orders ~hi:(t.orders + t.total) (fun i tag ->
      let p = i - t.orders in
      if not (valid_tag t tag) then
        failwith (Printf.sprintf "buddy: order record %d at page %d out of range" tag p);
      let size = 1 lsl (tag - 1) in
      if p mod size <> 0 then failwith "buddy: misaligned allocation record";
      if p < !reach then failwith "buddy: overlapping allocations";
      reach := p + size;
      used := !used + size;
      Hashtbl.replace blocks ((t.total + p) / size) ());
  if Warea.read t.area t.used_count <> !used then
    failwith
      (Printf.sprintf "buddy: used count %d <> recomputed %d"
         (Warea.read t.area t.used_count) !used);
  (* The nodes to visit: every written tree word and every block node, with
     all their ancestors.  Any other node the pass below reaches reads
     wholly free and, since the pass stops at block nodes, lies outside
     every block: its whole subtree is free and agrees with its words. *)
  let visited = Hashtbl.create 256 in
  let rec mark node =
    if node >= 1 && not (Hashtbl.mem visited node) then begin
      Hashtbl.add visited node ();
      mark (node / 2)
    end
  in
  Warea.iter_nonzero t.area ~lo:(t.tree + 1) ~hi:(t.tree + (2 * t.total)) (fun i _ ->
      mark (i - t.tree));
  Hashtbl.iter (fun node () -> mark node) blocks;
  (* One post-order pass from the root over the visited nodes: a node is
     wholly free only if both children are wholly free; otherwise it offers
     the max child run.  A block allocated at order k zeroes its node's
     [longest] but leaves its descendants' words stale by design (they are
     never consulted while an ancestor is allocated), so only nodes outside
     every allocated block are compared, and the pass stops at block
     nodes, which expect 0 like any fully used node. *)
  let rec expect node nsize ~under =
    if not (Hashtbl.mem visited node) then nsize
    else begin
      let got = if under then 0 else nsize - Warea.read t.area (t.tree + node) in
      let e =
        if Hashtbl.mem blocks node then 0
        else if nsize = 1 then 1
        else
          let under = under || got = 0 and half = nsize / 2 in
          let l = expect (2 * node) half ~under and r = expect ((2 * node) + 1) half ~under in
          if l = half && r = half then nsize else if l > r then l else r
      in
      if (not under) && got <> e then
        failwith (Printf.sprintf "buddy: node %d longest %d <> expected %d" node got e);
      e
    end
  in
  ignore (expect 1 t.total ~under:false)
