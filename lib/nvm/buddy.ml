type t = {
  area : Warea.t;
  base : int;
  total : int; (* pages; power of two *)
  tree : int; (* word offset of tree[1..2*total) *)
  orders : int; (* word offset of per-page alloc order (+1; 0 = none) *)
  free_count : int; (* word offset of the free page counter *)
}

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
    free_count = base + (2 * total_pages) + total_pages;
  }

(* Tree node [i] (1-indexed) covers [node_size i] pages. *)
let node_size t i =
  let depth_size = ref t.total in
  let j = ref i in
  while !j > 1 do
    j := !j / 2;
    depth_size := !depth_size / 2
  done;
  !depth_size

(* One journal record of every word, built as a list rather than through a
   [Txn]: the format writes each word once, so the transaction's
   read-your-writes table would only be an O(pages) transient at boot. *)
let format area ~base ~total_pages =
  let t = layout area ~base ~total_pages in
  let writes = ref [ (t.free_count, total_pages) ] in
  for p = total_pages - 1 downto 0 do
    writes := (t.orders + p, 0) :: !writes
  done;
  for i = (2 * total_pages) - 1 downto 1 do
    writes := (t.tree + i, node_size t i) :: !writes
  done;
  Warea.commit area ~desc:"buddy-format" !writes;
  t

let attach area ~base ~total_pages = layout area ~base ~total_pages

let total_pages t = t.total
let free_pages t = Warea.read t.area t.free_count

let longest txn t i = Txn.read txn (t.tree + i)

let alloc_txn txn t ~order =
  if order < 0 || 1 lsl order > t.total then invalid_arg "Buddy.alloc: bad order";
  let size = 1 lsl order in
  if longest txn t 1 < size then None
  else begin
    (* Descend to a node of exactly [size] whose subtree has a free run. *)
    let rec descend node nsize =
      if nsize = size then node
      else begin
        let left = 2 * node in
        if longest txn t left >= size then descend left (nsize / 2)
        else descend (left + 1) (nsize / 2)
      end
    in
    let node = descend 1 t.total in
    let offset = (node * size) - t.total in
    Txn.write txn (t.tree + node) 0;
    (* Recompute ancestors with the pending overlay. *)
    let rec up node =
      if node > 1 then begin
        let parent = node / 2 in
        let l = longest txn t (2 * parent) and r = longest txn t ((2 * parent) + 1) in
        Txn.write txn (t.tree + parent) (if l > r then l else r);
        up parent
      end
    in
    up node;
    Txn.write txn (t.orders + offset) (order + 1);
    Txn.write txn t.free_count (Txn.read txn t.free_count - size);
    Some offset
  end

let free_txn txn t ~offset =
  if offset < 0 || offset >= t.total then invalid_arg "Buddy.free: bad offset";
  let tag = Txn.read txn (t.orders + offset) in
  if tag = 0 then invalid_arg "Buddy.free: not a live allocation";
  let order = tag - 1 in
  let size = 1 lsl order in
  let node = (t.total + offset) / size in
  Txn.write txn (t.tree + node) size;
  Txn.write txn (t.orders + offset) 0;
  let rec up node nsize =
    if node > 1 then begin
      let parent = node / 2 in
      let psize = nsize * 2 in
      let l = longest txn t (2 * parent) and r = longest txn t ((2 * parent) + 1) in
      let merged = if l = nsize && r = nsize then psize else if l > r then l else r in
      Txn.write txn (t.tree + parent) merged;
      up parent psize
    end
  in
  up node size;
  Txn.write txn t.free_count (Txn.read txn t.free_count + size)

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
  let free_total = ref t.total in
  for p = 0 to t.total - 1 do
    let tag = Warea.read t.area (t.orders + p) in
    if tag > 0 then begin
      let size = 1 lsl (tag - 1) in
      if p mod size <> 0 then failwith "buddy: misaligned allocation record";
      for q = p to p + size - 1 do
        if covered.(q) then failwith "buddy: overlapping allocations";
        covered.(q) <- true
      done;
      free_total := !free_total - size
    end
  done;
  if Warea.read t.area t.free_count <> !free_total then
    failwith
      (Printf.sprintf "buddy: free count %d <> recomputed %d"
         (Warea.read t.area t.free_count) !free_total);
  (* Bottom-up recomputation of [longest]. A node is wholly free only if
     both children are wholly free; otherwise it offers the max child run. *)
  let expect = Array.make (2 * t.total) 0 in
  for p = 0 to t.total - 1 do
    expect.(t.total + p) <- (if covered.(p) then 0 else 1)
  done;
  for node = t.total - 1 downto 1 do
    let size = node_size t node in
    let l = expect.(2 * node) and r = expect.((2 * node) + 1) in
    expect.(node) <- (if l = size / 2 && r = size / 2 then size else if l > r then l else r)
  done;
  for node = 1 to (2 * t.total) - 1 do
    let got = Warea.read t.area (t.tree + node) in
    (* A block allocated at order k zeroes its node but leaves descendants'
       stored values stale by design (they are never consulted while an
       ancestor is allocated); only check nodes not under a live block. *)
    let rec under_alloc i = i >= 1 && (Warea.read t.area (t.tree + i) = 0 || under_alloc (i / 2)) in
    let parent_allocated = node > 1 && under_alloc (node / 2) in
    if (not parent_allocated) && got <> expect.(node) then
      failwith (Printf.sprintf "buddy: node %d longest %d <> expected %d" node got expect.(node))
  done
