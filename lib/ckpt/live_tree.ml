module Kobj = Treesls_cap.Kobj
module Dirty_log = Treesls_cap.Dirty_log
module Kernel = Treesls_kernel.Kernel
module Int_tbl = Treesls_util.Int_tbl

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
  group_of : int Int_tbl.t;  (* object id -> group, for objects some process holds *)
  kernel : int;  (* the group of objects reachable only from the root *)
  tallies : tallies;
}

type t = {
  root : Kobj.cap_group;
  entries : Kobj.t array;
  live : int Int_tbl.t;  (* object id -> its index in [entries] *)
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

(* One traversal, whose visited set is the live set itself. *)
let build ~root =
  let entries = ref [] and n = ref 0 in
  let live = Int_tbl.create 256 in
  Kobj.walk ~seen:live ~root (fun obj ->
      entries := obj :: !entries;
      incr n;
      !n - 1);
  { root; entries = Array.of_list (List.rev !entries); live; owners = None; order = [||] }

let refresh cached ~root ~log =
  match cached with
  | Some t when valid t ~root ~log -> t
  | Some _ | None -> build ~root

let entries t = t.entries
let live t = t.live

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
    match Int_tbl.find t.live (Dirty_log.get log j) with
    | i ->
      order.(!k) <- i;
      incr k
    | exception Not_found -> ()
  done;
  let k = !k in
  sort_prefix order k;
  for j = 0 to k - 1 do
    f t.entries.(order.(j))
  done

(* First process wins for objects shared across cap groups (e.g. IPC
   connections installed in both ends); objects reachable only from the
   root stay "kernel".  The per-process walks share one visited set: when
   a walk first reaches an object it also reaches all of that object's
   descendants, so a later walk stopping there misses nothing it could
   still own.  Built on first use for this tree shape: a process is
   created or exits only by installing or revoking its cap group in the
   root, a shape change, which retires the cache. *)
let owners t kernel =
  match t.owners with
  | Some o -> o
  | None ->
    let index = Hashtbl.create 16 and names = ref [] in
    let group name =
      match Hashtbl.find_opt index name with
      | Some g -> g
      | None ->
        let g = Hashtbl.length index in
        Hashtbl.add index name g;
        names := name :: !names;
        g
    in
    let group_of = Int_tbl.create (Array.length t.entries) in
    List.iter
      (fun (p : Kernel.process) ->
        let g = group p.Kernel.pname in
        Kobj.walk ~seen:group_of ~root:p.Kernel.cg (fun _ -> g))
      (Kernel.processes kernel);
    let kernel = group "kernel" in
    let nk = List.length Kobj.all_kinds and ng = Hashtbl.length index in
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
  match Int_tbl.find_opt o.group_of oid with Some g -> g | None -> o.kernel

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

(* Compared by id: [iter_tree] wraps PMOs and threads reached through
   regions and IPC connections in fresh [Kobj.t] values at every call. *)
let check t ~root ~log ~oroot =
  if not (valid t ~root ~log) then None
  else begin
    let n = Array.length t.entries in
    let reached = ref 0 and first_diff = ref None in
    Kobj.iter_tree ~root (fun obj ->
        let i = !reached in
        if !first_diff = None && (i >= n || Kobj.id t.entries.(i) <> Kobj.id obj) then
          first_diff := Some i;
        incr reached);
    match !first_diff with
    | None when !reached = n -> unsaved t ~log ~oroot
    | d ->
      Some
        (Printf.sprintf "%d objects cached, %d reachable; first difference at visit %d" n
           !reached
           (Option.value d ~default:!reached))
  end
