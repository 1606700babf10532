(* NVM write-amplification / wear telemetry ("wearmap").

   Physical write accounting for the simulated NVM device: every byte that
   lands on an NVM page is counted per page (wear) and attributed to the
   subsystem that wrote it (amplification).  Attribution uses a *writer
   context* — a stack of subsystem names held by the wearmap itself, pushed
   by the code that is about to write — so the device layer never needs to
   know who is calling it.

   Two accounting channels:
   - [record]: a physical write to an identified NVM page (from
     [Device.write]/[copy_page]/[zero_page]); feeds both the per-page wear
     table and the per-subsystem totals.
   - [note]: modeled metadata bytes with no single backing page (journal
     records, object snapshots, the global meta word); feeds the
     per-subsystem totals and the grand total only.

   Like the trace ring, the tables live in the OCaml heap but model
   NVM-resident state: [System.ensure_wear_backing] reserves an eternal PMO
   sized for the per-page counters so the audit sees the residency, and the
   counters survive crash/restore because nothing ever rolls them back —
   totals are monotone across a system's lifetime. *)

module Json = Treesls_util.Json

type page_stat = { mutable p_writes : int; mutable p_bytes : int }
type sub_stat = { mutable s_writes : int; mutable s_bytes : int }

type t = {
  pages : (int, page_stat) Hashtbl.t;
  subs : (string, sub_stat) Hashtbl.t;
  mutable stack : string list; (* writer context, innermost first *)
  mutable total_writes : int;
  mutable total_bytes : int;
  mutable copy_pages : int; (* whole-page NVM copies charged via Store *)
  mutable copy_ns : int; (* Sim.Cost ns charged for those copies *)
}

let create () =
  {
    pages = Hashtbl.create 1024;
    subs = Hashtbl.create 16;
    stack = [];
    total_writes = 0;
    total_bytes = 0;
    copy_pages = 0;
    copy_ns = 0;
  }

(* --- writer context ------------------------------------------------------ *)

let unattributed = "unattributed"

let current_writer t = match t.stack with [] -> unattributed | w :: _ -> w

let with_writer t name f =
  t.stack <- name :: t.stack;
  Fun.protect
    ~finally:(fun () -> match t.stack with [] -> () | _ :: tl -> t.stack <- tl)
    f

(* Outermost-wins variant for generic entry points (e.g. the kernel's
   write syscall claims "app" only when no more specific subsystem —
   extsync, checkpoint — is already on the stack). *)
let with_default_writer t name f =
  match t.stack with [] -> with_writer t name f | _ :: _ -> f ()

(* --- recording --------------------------------------------------------- *)

let sub t name =
  match Hashtbl.find_opt t.subs name with
  | Some s -> s
  | None ->
    let s = { s_writes = 0; s_bytes = 0 } in
    Hashtbl.add t.subs name s;
    s

let record t ~page ~bytes =
  (let ps =
     match Hashtbl.find_opt t.pages page with
     | Some ps -> ps
     | None ->
       let ps = { p_writes = 0; p_bytes = 0 } in
       Hashtbl.add t.pages page ps;
       ps
   in
   ps.p_writes <- ps.p_writes + 1;
   ps.p_bytes <- ps.p_bytes + bytes);
  let s = sub t (current_writer t) in
  s.s_writes <- s.s_writes + 1;
  s.s_bytes <- s.s_bytes + bytes;
  t.total_writes <- t.total_writes + 1;
  t.total_bytes <- t.total_bytes + bytes

let note t ~subsystem ~bytes =
  let s = sub t subsystem in
  s.s_writes <- s.s_writes + 1;
  s.s_bytes <- s.s_bytes + bytes;
  t.total_writes <- t.total_writes + 1;
  t.total_bytes <- t.total_bytes + bytes

let copy_charged t ~ns =
  t.copy_pages <- t.copy_pages + 1;
  t.copy_ns <- t.copy_ns + ns

let reset t =
  Hashtbl.reset t.pages;
  Hashtbl.reset t.subs;
  t.total_writes <- 0;
  t.total_bytes <- 0;
  t.copy_pages <- 0;
  t.copy_ns <- 0

(* --- queries ----------------------------------------------------------- *)

let total_writes t = t.total_writes
let total_bytes t = t.total_bytes
let copy_pages t = t.copy_pages
let copy_ns t = t.copy_ns
let pages_tracked t = Hashtbl.length t.pages

let subsystem_bytes t name =
  match Hashtbl.find_opt t.subs name with Some s -> s.s_bytes | None -> 0

(* sorted by name so every consumer (CLI, JSON, metrics) is deterministic *)
let subsystems t =
  Hashtbl.fold (fun name s acc -> (name, s.s_writes, s.s_bytes) :: acc) t.subs []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let top t ~n =
  Hashtbl.fold (fun page ps acc -> (page, ps.p_writes, ps.p_bytes) :: acc) t.pages []
  |> List.sort (fun (pa, wa, ba) (pb, wb, bb) ->
         match Int.compare wb wa with
         | 0 -> ( match Int.compare bb ba with 0 -> Int.compare pa pb | c -> c)
         | c -> c)
  |> fun l -> List.filteri (fun i _ -> i < n) l

let max_writes t = Hashtbl.fold (fun _ ps m -> max m ps.p_writes) t.pages 0

let mean_writes t =
  let n = Hashtbl.length t.pages in
  if n = 0 then 0.0
  else
    float_of_int (Hashtbl.fold (fun _ ps acc -> acc + ps.p_writes) t.pages 0)
    /. float_of_int n

(* max-over-mean wear skew: 1.0 = perfectly even, large = a few pages are
   absorbing most of the endurance budget *)
let skew t =
  let mean = mean_writes t in
  if mean <= 0.0 then 0.0 else float_of_int (max_writes t) /. mean

(* Gini coefficient of the per-page write-count distribution over *touched*
   pages (untouched pages excluded — the interesting question is how uneven
   the wear is where wear happens). 0 = uniform, →1 = concentrated. *)
let gini t =
  let xs =
    Hashtbl.fold (fun _ ps acc -> ps.p_writes :: acc) t.pages []
    |> List.sort Int.compare
  in
  let n = List.length xs in
  if n = 0 then 0.0
  else
    let sum = List.fold_left ( + ) 0 xs in
    if sum = 0 then 0.0
    else
      let weighted =
        List.fold_left
          (fun (i, acc) x -> (i + 1, acc +. float_of_int (i * x)))
          (1, 0.0) xs
        |> snd
      in
      let n_f = float_of_int n and sum_f = float_of_int sum in
      ((2.0 *. weighted) /. (n_f *. sum_f)) -. ((n_f +. 1.0) /. n_f)

(* --- export ------------------------------------------------------------ *)

(* [owners] optionally maps a page index to a human-readable owner label
   (from [Nvm_census.page_owners]); pages it does not know stay bare. *)

let to_csv ?owners t =
  let b = Buffer.create 256 in
  Buffer.add_string b "page,writes,bytes,owner\n";
  Hashtbl.fold (fun page ps acc -> (page, ps) :: acc) t.pages []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.iter (fun (page, ps) ->
         let owner =
           match owners with
           | None -> ""
           | Some f -> ( match f page with Some o -> o | None -> "")
         in
         Buffer.add_string b
           (Printf.sprintf "%d,%d,%d,%s\n" page ps.p_writes ps.p_bytes owner));
  Buffer.contents b

let to_json ?owners ?(top_n = 20) t =
  let owner page = match owners with None -> None | Some f -> f page in
  let page_json (page, w, bytes) =
    Json.Obj
      ([ ("page", Json.int page); ("writes", Json.int w); ("bytes", Json.int bytes) ]
      @ match owner page with None -> [] | Some o -> [ ("owner", Json.Str o) ])
  in
  Json.Obj
    [
      ("total_writes", Json.int t.total_writes);
      ("total_bytes", Json.int t.total_bytes);
      ("copy_pages", Json.int t.copy_pages);
      ("copy_ns", Json.int t.copy_ns);
      ("pages_tracked", Json.int (pages_tracked t));
      ("max_writes", Json.int (max_writes t));
      ("gini", Json.fixed 4 (gini t));
      ("skew", Json.fixed 2 (skew t));
      ( "subsystems",
        Json.Obj
          (List.map
             (fun (name, w, bytes) ->
               (name, Json.Obj [ ("writes", Json.int w); ("bytes", Json.int bytes) ]))
             (subsystems t)) );
      ("top", Json.Arr (List.map page_json (top t ~n:top_n)));
    ]
