type t = {
  area : Warea.t;
  base : int;
  buddy : Buddy.t;
  page_size : int;
  max_slabs : int;
  live_word : int;
}

type handle = { cls : int; slot : int; obj : int }

let class_sizes = [| 32; 64; 128; 256; 512; 1024; 2048 |]

let nclasses = Array.length class_sizes

(* One word per bitmap caps objects per slab at 62 (OCaml ints are 63-bit
   and we keep the sign bit clear); small classes waste page tail bytes,
   which only affects capacity, not behaviour. *)
let capacity page_size cls = min (page_size / class_sizes.(cls)) 62

let words_needed ~max_slabs_per_class = (nclasses * max_slabs_per_class * 2) + 1

let layout area ~base ~buddy ~page_size ~max_slabs_per_class =
  { area; base; buddy; page_size; max_slabs = max_slabs_per_class; live_word = base + (nclasses * max_slabs_per_class * 2) }

let page_word t cls slot = t.base + (((cls * t.max_slabs) + slot) * 2)
let bitmap_word t cls slot = page_word t cls slot + 1

(* An all-zero range is already an empty slab set (no pages, clear
   bitmaps, nothing live); the one-word commit keeps the format a journal
   commit point. *)
let format area ~base ~buddy ~page_size ~max_slabs_per_class =
  let t = layout area ~base ~buddy ~page_size ~max_slabs_per_class in
  Warea.commit area ~desc:"slab-format" [ (t.live_word, 0) ];
  t

let attach = layout

let class_of_size size =
  if size <= 0 then invalid_arg "Slab.class_of_size: non-positive";
  let rec find i =
    if i >= nclasses then None
    else if class_sizes.(i) >= size then Some i
    else find (i + 1)
  in
  find 0

let full_bitmap cap = (1 lsl cap) - 1

let lowest_set_bit v =
  assert (v <> 0);
  let rec loop i = if v land (1 lsl i) <> 0 then i else loop (i + 1) in
  loop 0

let popcount v =
  let rec loop v acc = if v = 0 then acc else loop (v land (v - 1)) (acc + 1) in
  loop v 0

let alloc t ~size =
  match class_of_size size with
  | None -> invalid_arg "Slab.alloc: size exceeds largest class"
  | Some cls ->
    let txn = Txn.create t.area in
    let cap = capacity t.page_size cls in
    (* First pass: an existing slab with a free object. *)
    let rec find_free slot =
      if slot >= t.max_slabs then None
      else if
        Txn.read txn (page_word t cls slot) <> 0 && Txn.read txn (bitmap_word t cls slot) <> 0
      then Some slot
      else find_free (slot + 1)
    in
    (match find_free 0 with
    | Some slot ->
      let bm = Txn.read txn (bitmap_word t cls slot) in
      let obj = lowest_set_bit bm in
      Txn.write txn (bitmap_word t cls slot) (bm land lnot (1 lsl obj));
      Txn.write txn t.live_word (Txn.read txn t.live_word + 1);
      Txn.commit txn ~desc:"slab-alloc";
      Some { cls; slot; obj }
    | None ->
      (* Grow the class: take a buddy page and the first object, in one
         transaction so a crash cannot leak the page. *)
      let rec find_empty slot =
        if slot >= t.max_slabs then None
        else if Txn.read txn (page_word t cls slot) = 0 then Some slot
        else find_empty (slot + 1)
      in
      (match find_empty 0 with
      | None -> None
      | Some slot ->
        (match Buddy.alloc_txn txn t.buddy ~order:0 with
        | None -> None
        | Some page ->
          Txn.write txn (page_word t cls slot) (page + 1);
          Txn.write txn (bitmap_word t cls slot) (full_bitmap cap land lnot 1);
          Txn.write txn t.live_word (Txn.read txn t.live_word + 1);
          Txn.commit txn ~desc:"slab-grow";
          Some { cls; slot; obj = 0 })))

let check_handle t { cls; slot; obj } =
  if cls < 0 || cls >= nclasses then invalid_arg "Slab: bad class";
  if slot < 0 || slot >= t.max_slabs then invalid_arg "Slab: bad slot";
  let cap = capacity t.page_size cls in
  if obj < 0 || obj >= cap then invalid_arg "Slab: bad object index"

let free t handle =
  check_handle t handle;
  let { cls; slot; obj } = handle in
  let txn = Txn.create t.area in
  let pw = Txn.read txn (page_word t cls slot) in
  if pw = 0 then invalid_arg "Slab.free: slab slot not in use";
  let bm = Txn.read txn (bitmap_word t cls slot) in
  if bm land (1 lsl obj) <> 0 then invalid_arg "Slab.free: object already free";
  let bm' = bm lor (1 lsl obj) in
  let cap = capacity t.page_size cls in
  if bm' = full_bitmap cap then begin
    (* Last object gone: release the page to the buddy atomically. *)
    Buddy.free_txn txn t.buddy ~offset:(pw - 1);
    Txn.write txn (page_word t cls slot) 0;
    Txn.write txn (bitmap_word t cls slot) 0
  end
  else Txn.write txn (bitmap_word t cls slot) bm';
  Txn.write txn t.live_word (Txn.read txn t.live_word - 1);
  Txn.commit txn ~desc:"slab-free"

let live t = Warea.read t.area t.live_word

(* [f cls slot pw bm] for every slot with a non-zero word, ascending; a
   slot whose two words were never written is empty and consistent. *)
let iter_slots t f =
  let last = ref (-1) in
  Warea.iter_nonzero t.area ~lo:t.base ~hi:t.live_word (fun i _ ->
      let k = (i - t.base) / 2 in
      if k <> !last then begin
        last := k;
        let cls = k / t.max_slabs and slot = k mod t.max_slabs in
        f cls slot
          (Warea.read t.area (page_word t cls slot))
          (Warea.read t.area (bitmap_word t cls slot))
      end)

let iter_pages t f = iter_slots t (fun _ _ pw _ -> if pw <> 0 then f (pw - 1))

let live_in_class t cls =
  if cls < 0 || cls >= nclasses then invalid_arg "Slab.live_in_class";
  let cap = capacity t.page_size cls in
  let acc = ref 0 in
  iter_slots t (fun c _ pw bm -> if c = cls && pw <> 0 then acc := !acc + (cap - popcount bm));
  !acc

let check_invariants t =
  let live_sum = ref 0 in
  iter_slots t (fun cls _ pw bm ->
      let cap = capacity t.page_size cls in
      if pw = 0 then begin
        if bm <> 0 then failwith "slab: bitmap set on empty slot"
      end
      else begin
        if bm land lnot (full_bitmap cap) <> 0 then failwith "slab: bitmap beyond capacity";
        (if Buddy.order_of t.buddy ~offset:(pw - 1) <> Some 0 then
           failwith "slab: slab page not a live order-0 buddy allocation");
        live_sum := !live_sum + (cap - popcount bm)
      end);
  if live t <> !live_sum then
    failwith (Printf.sprintf "slab: live counter %d <> recomputed %d" (live t) !live_sum)
