module Kobj = Treesls_cap.Kobj
module Arr = Treesls_util.Arr

type entry = {
  e_pmo : Kobj.pmo;
  e_pno : int;
  mutable e_hotness : int;
  mutable e_idle : int;
  mutable e_dram : bool;
  mutable e_live : bool;
}

type config = { hot_threshold : int; idle_limit : int; max_cached : int }

let default_config = { hot_threshold = 2; idle_limit = 8; max_cached = 1024 }

(* One PMO's pages, by page number: the fault count of a page not (yet)
   in the list, and the entry of a page that is ([none] otherwise). *)
type pages = { hot : int array; listed : entry array }

type t = {
  cfg : config;
  none : entry;  (* the empty [listed] slot *)
  mutable by_pmo : pages array;  (* by PMO id; [unseen] until its first fault *)
  unseen : pages;
  mutable list : entry list;  (* reverse append order *)
  mutable live : int;
}

let create cfg =
  let none =
    {
      e_pmo = Kobj.make_pmo ~id:(-1) ~pages:1 ~kind:Kobj.Pmo_normal;
      e_pno = -1;
      e_hotness = 0;
      e_idle = 0;
      e_dram = false;
      e_live = false;
    }
  in
  let unseen = { hot = [||]; listed = [||] } in
  { cfg; none; by_pmo = [||]; unseen; list = []; live = 0 }

let config t = t.cfg

(* The page arrays of [pmo], made on its first fault. *)
let pages_of t pmo =
  let id = pmo.Kobj.pmo_id in
  if id >= Array.length t.by_pmo then t.by_pmo <- Arr.grow t.by_pmo id t.unseen;
  let p = t.by_pmo.(id) in
  if p != t.unseen then p
  else begin
    let n = pmo.Kobj.pmo_pages in
    let p = { hot = Array.make n 0; listed = Array.make n t.none } in
    t.by_pmo.(id) <- p;
    p
  end

let record_fault t pmo pno =
  let p = pages_of t pmo in
  let e = p.listed.(pno) in
  if e != t.none then e.e_hotness <- e.e_hotness + 1
  else begin
    let h = p.hot.(pno) + 1 in
    if h >= t.cfg.hot_threshold && t.live < t.cfg.max_cached then begin
      p.hot.(pno) <- 0;
      let e =
        { e_pmo = pmo; e_pno = pno; e_hotness = h; e_idle = 0; e_dram = false; e_live = true }
      in
      p.listed.(pno) <- e;
      t.list <- e :: t.list;
      t.live <- t.live + 1
    end
    else p.hot.(pno) <- h
  end

let entries t = List.rev (List.filter (fun e -> e.e_live) t.list)

let sublists t ~cores =
  let cores = max 1 cores in
  let buckets = Array.make cores [] in
  List.iteri (fun i e -> buckets.(i mod cores) <- e :: buckets.(i mod cores)) (entries t);
  Array.map List.rev buckets

let cached_count t = List.length (List.filter (fun e -> e.e_live && e.e_dram) t.list)

let drop t e =
  if e.e_live then begin
    e.e_live <- false;
    t.live <- t.live - 1;
    t.by_pmo.(e.e_pmo.Kobj.pmo_id).listed.(e.e_pno) <- t.none
  end

let compact t = t.list <- List.filter (fun e -> e.e_live) t.list

(* The entries it forgets are dead: dropping one later changes nothing. *)
let clear t =
  List.iter (fun e -> e.e_live <- false) t.list;
  t.by_pmo <- [||];
  t.list <- [];
  t.live <- 0
