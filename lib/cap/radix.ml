let bits = 6
let fanout = 1 lsl bits
let mask = fanout - 1

(* A node is its slot array.  Interior nodes and the leaf nodes under them
   are [fanout] wide; a height-0 root is only as wide as the power of two
   above its largest key, so the many radixes that hold a handful of low
   keys (most PMO page maps and page-record tables) cost a few words, and
   walking them visits no run of empty slots. *)
type 'a slot = Empty | Leaf of 'a | Node of 'a slot array

type 'a t = {
  mutable root : 'a slot array;
  mutable height : int; (* levels below the root; 0 = root slots are leaves *)
  mutable cardinal : int;
  mutable nodes : int;
}

let create () = { root = [||]; height = 0; cardinal = 0; nodes = 1 }

(* Max key representable with the current height. *)
let capacity t = 1 lsl (bits * (t.height + 1))

(* Widen a height-0 root in place to the power of two above [key]
   ([key < fanout], at or past its width). *)
let widen t key =
  let root = Array.make (Treesls_util.Bits.next_power_of_two (key + 1)) Empty in
  Array.blit t.root 0 root 0 (Array.length t.root);
  t.root <- root

(* Only a full-width root moves down a level. *)
let grow t =
  if t.height = 0 && Array.length t.root < fanout then widen t mask;
  let parent = Array.make fanout Empty in
  parent.(0) <- Node t.root;
  t.root <- parent;
  t.height <- t.height + 1;
  t.nodes <- t.nodes + 1

(* The level-0 node on [key]'s path, or [[||]] when the path is absent. *)
let rec leaves slots level key =
  if level = 0 then slots
  else
    match slots.((key lsr (bits * level)) land mask) with
    | Node child -> leaves child (level - 1) key
    | Empty | Leaf _ -> [||]

let get t key =
  if key < 0 then invalid_arg "Radix.get: negative key";
  if key >= capacity t then None
  else
    let slots = leaves t.root t.height key and idx = key land mask in
    if idx >= Array.length slots then None
    else match slots.(idx) with Leaf v -> Some v | Empty | Node _ -> None

let mem t key = get t key <> None

let rec set_in t slots level key v =
  let idx = (key lsr (bits * level)) land mask in
  if level = 0 then begin
    (match slots.(idx) with
    | Leaf _ -> ()
    | Empty -> t.cardinal <- t.cardinal + 1
    | Node _ -> invalid_arg "Radix.set: interior collision");
    slots.(idx) <- Leaf v
  end
  else begin
    let child =
      match slots.(idx) with
      | Node c -> c
      | Empty ->
        let c = Array.make fanout Empty in
        slots.(idx) <- Node c;
        t.nodes <- t.nodes + 1;
        c
      | Leaf _ -> invalid_arg "Radix.set: leaf collision"
    in
    set_in t child (level - 1) key v
  end

let set t key v =
  if key < 0 then invalid_arg "Radix.set: negative key";
  while key >= capacity t do
    grow t
  done;
  if t.height = 0 && key >= Array.length t.root then widen t key;
  set_in t t.root t.height key v

let remove t key =
  if key < 0 then invalid_arg "Radix.remove: negative key";
  if key < capacity t then begin
    let slots = leaves t.root t.height key and idx = key land mask in
    if idx < Array.length slots then
      match slots.(idx) with
      | Leaf _ ->
        slots.(idx) <- Empty;
        t.cardinal <- t.cardinal - 1
      | Empty | Node _ -> ()
  end

let rec iter_slots f slots prefix =
  for i = 0 to Array.length slots - 1 do
    match slots.(i) with
    | Empty -> ()
    | Leaf v -> f ((prefix lsl bits) lor i) v
    | Node child -> iter_slots f child ((prefix lsl bits) lor i)
  done

let iter f t = iter_slots f t.root 0

let fold f t init =
  let acc = ref init in
  iter (fun k v -> acc := f k v !acc) t;
  !acc

let cardinal t = t.cardinal
let node_count t = t.nodes

(* Leaves are immutable: the copy shares them with the original. *)
let rec copy_slot = function
  | Node child -> Node (Array.map copy_slot child)
  | (Empty | Leaf _) as s -> s

let copy t =
  { root = Array.map copy_slot t.root; height = t.height; cardinal = t.cardinal; nodes = t.nodes }

let clear t =
  t.root <- [||];
  t.height <- 0;
  t.cardinal <- 0;
  t.nodes <- 1
