module Kobj = Treesls_cap.Kobj
module Dirty_log = Treesls_cap.Dirty_log
module Kernel = Treesls_kernel.Kernel
module Arr = Treesls_util.Arr

type tallies = {
  kind_ns : int array;
  kind_n : int array;
  group_ns : int array;
  group_n : int array;
  gk_ns : int array;
  gk_n : int array;
}

(* Attribution groups: one per distinct process name, in the order the
   names first appear in [Kernel.processes], plus "kernel". *)
type owners = {
  names : string array;
  group_of : int array;  (* object id -> group; -1 for objects no process holds *)
  kernel : int;  (* the group of objects reachable only from the root *)
  tallies : tallies;
}

type t = {
  root : Kobj.cap_group;
  entries : Kobj.t array;
  index : int array;  (* object id -> its index in [entries]; -1 outside the tree *)
  mutable owners : owners option;
  (* scratch of the logged visit, kept for this tree: room for the
     indices collected, grown to what a log needs *)
  mutable order : int array;
}

(* Edges live in cap-group slots, region lists and IPC connections'
   references.  Every slot change and region-list replacement notes a
   shape change in the log, which every walk clears after refreshing the
   cache; a connection's references are set before it is installed and
   never change after. *)
let valid t ~root ~log = t.root == root && not (Dirty_log.shape_changed log)

(* One traversal, whose visited set is the index itself.  The entries
   start as [objects] cells of [Kobj.absent], an old block, so even a
   large array is made without a minor collection; they are cut to the
   objects reached only when the guess missed.  Both arrays grow by
   doubling. *)
let build ~objects ~ids ~root =
  let entries = ref (Array.make (max 1 objects) Kobj.absent) and n = ref 0 in
  let index = ref (Array.make (max 1 ids) (-1)) in
  Kobj.walk ~root (fun obj ->
      let oid = Kobj.id obj in
      if oid < Array.length !index && !index.(oid) >= 0 then false
      else begin
        if oid >= Array.length !index then index := Arr.grow !index oid (-1);
        if !n = Array.length !entries then entries := Arr.grow !entries !n Kobj.absent;
        !entries.(!n) <- obj;
        !index.(oid) <- !n;
        incr n;
        true
      end);
  let entries = if !n = Array.length !entries then !entries else Array.sub !entries 0 !n in
  { root; entries; index = !index; owners = None; order = [||] }

(* A rebuild expects the tree it replaces, give or take a shape change. *)
let refresh cached ~root ~log =
  match cached with
  | Some t when valid t ~root ~log -> t
  | Some t -> build ~objects:(Array.length t.entries) ~ids:(Array.length t.index) ~root
  | None -> build ~objects:64 ~ids:64 ~root

let entries t = t.entries
let index t oid = if oid >= 0 && oid < Array.length t.index then t.index.(oid) else -1
let mem t oid = index t oid >= 0

(* In-place heapsort of [a.(0) .. a.(n - 1)]. *)
let sort_prefix (a : int array) n =
  let rec sift i len =
    let l = (2 * i) + 1 in
    if l < len then begin
      let c = if l + 1 < len && a.(l + 1) > a.(l) then l + 1 else l in
      if a.(c) > a.(i) then begin
        let x = a.(i) in
        a.(i) <- a.(c);
        a.(c) <- x;
        sift c len
      end
    end
  in
  for i = (n / 2) - 1 downto 0 do
    sift i n
  done;
  for last = n - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- x;
    sift 0 last
  done

(* Ids the cache does not hold (objects outside the tree) are skipped: an
   object joins the tree only through a shape change, which retires the
   cache.  The log holds each id once, so each entry is collected once. *)
let iter_logged t log f =
  let n = Array.length t.entries in
  (* at most one index per entry and per logged id *)
  let need = min n (Dirty_log.length log) in
  if Array.length t.order < need then
    t.order <- Array.make (min n (max need (2 * Array.length t.order))) 0;
  let order = t.order in
  let k = ref 0 in
  for j = 0 to Dirty_log.length log - 1 do
    let i = index t (Dirty_log.get log j) in
    if i >= 0 then begin
      order.(!k) <- i;
      incr k
    end
  done;
  let k = !k in
  sort_prefix order k;
  for j = 0 to k - 1 do
    f t.entries.(order.(j))
  done

(* First process wins for objects shared across cap groups (e.g. IPC
   connections installed in both ends); objects reachable only from the
   root stay "kernel".  The per-process walks share one visited set, the
   group array itself: when a walk first reaches an object it also
   reaches all of that object's descendants, so a later walk stopping
   there misses nothing it could still own.  Built on first use for this
   tree shape: a process is created or exits only by installing or
   revoking its cap group in the root, a shape change, which retires the
   cache. *)
let owners t kernel =
  match t.owners with
  | Some o -> o
  | None ->
    let by_name = Hashtbl.create 16 and names = ref [] in
    let group name =
      match Hashtbl.find_opt by_name name with
      | Some g -> g
      | None ->
        let g = Hashtbl.length by_name in
        Hashtbl.add by_name name g;
        names := name :: !names;
        g
    in
    let group_of = ref (Array.make (Array.length t.index) (-1)) in
    List.iter
      (fun (p : Kernel.process) ->
        let g = group p.Kernel.pname in
        Kobj.walk ~root:p.Kernel.cg (fun obj ->
            let oid = Kobj.id obj in
            if oid >= Array.length !group_of then group_of := Arr.grow !group_of oid (-1);
            !group_of.(oid) < 0
            && begin
                 !group_of.(oid) <- g;
                 true
               end))
      (Kernel.processes kernel);
    let group_of = !group_of in
    let kernel = group "kernel" in
    let nk = List.length Kobj.all_kinds and ng = Hashtbl.length by_name in
    let tallies =
      {
        kind_ns = Array.make nk 0;
        kind_n = Array.make nk 0;
        group_ns = Array.make ng 0;
        group_n = Array.make ng 0;
        gk_ns = Array.make (ng * nk) 0;
        gk_n = Array.make (ng * nk) 0;
      }
    in
    let o = { names = Array.of_list (List.rev !names); group_of; kernel; tallies } in
    t.owners <- Some o;
    o

let tallies o = o.tallies
let group_count o = Array.length o.names
let group_names o = o.names

let owner_group o oid =
  if oid >= 0 && oid < Array.length o.group_of && o.group_of.(oid) >= 0 then o.group_of.(oid)
  else o.kernel

(* A walk checkpoints an entry with an ORoot only when the log names it,
   so an unlogged entry's newest snapshot must be its current state, and
   an unlogged entry without an ORoot would never get one.  A state
   compare, not a flag: it also sees a field written without a touch. *)
let unsaved t ~log ~oroot =
  let missed =
    Array.fold_right
      (fun obj acc ->
        let oid = Kobj.id obj in
        let saved =
          Dirty_log.mem log oid
          ||
          match oroot oid with
          | Some o -> (
            match Oroot.latest_le o ~version:max_int with
            | Some (_, snap) -> snap = Snapshot.take obj
            | None -> false)
          | None -> false
        in
        if saved then acc else oid :: acc)
      t.entries []
  in
  match missed with
  | [] -> None
  | first :: _ ->
    Some
      (Printf.sprintf
         "%d entries changed since their checkpoint but are not in the dirty log (first: \
          object %d)"
         (List.length missed) first)

(* Compared by id: a traversal wraps PMOs and threads reached through
   regions and IPC connections in fresh [Kobj.t] values. *)
let check t ~fresh ~log ~oroot =
  if not (valid t ~root:fresh.root ~log) then None
  else begin
    let n = Array.length t.entries and m = Array.length fresh.entries in
    let rec first_diff i =
      if i = m then None
      else if i >= n || Kobj.id t.entries.(i) <> Kobj.id fresh.entries.(i) then Some i
      else first_diff (i + 1)
    in
    match first_diff 0 with
    | None when m = n -> unsaved t ~log ~oroot
    | d ->
      Some
        (Printf.sprintf "%d objects cached, %d reachable; first difference at visit %d" n m
           (Option.value d ~default:m))
  end
