(* NVM write-amplification / wear telemetry ("wearmap").

   Physical write accounting for the simulated NVM device: every byte that
   lands on an NVM page is counted per page (wear) and attributed to the
   subsystem that wrote it (amplification).  Attribution uses a *writer
   context* — a stack of subsystem names held by the wearmap itself, pushed
   by the code that is about to write — so the device layer never needs to
   know who is calling it.  A frame looks its subsystem's row up on its
   first write and keeps it: a scope that writes nothing adds no row, and
   a scope that writes often pays for one lookup.  The rows are a short
   list searched by the name's address first: writers name themselves
   with string literals, so a lookup compares no strings.

   Two accounting channels:
   - [record]: a physical write to an identified NVM page (from
     [Device.write_from]/[copy_page]/[zero_page]); feeds both the per-page
     wear table and the per-subsystem totals.
   - [note]: modeled metadata bytes with no single backing page (journal
     records, object snapshots, the global meta word); feeds the
     per-subsystem totals and the grand total only.

   Like the trace ring, the tables live in the OCaml heap but model
   NVM-resident state: [System.ensure_wear_backing] reserves an eternal PMO
   sized for the per-page counters so the audit sees the residency, and the
   counters survive crash/restore because nothing ever rolls them back —
   totals are monotone across a system's lifetime.

   The per-page counters live in 256-page chunks, as [Device] keeps its
   pages: a chunk is allocated on the first write to one of its pages and
   holds each page's write count at [2i] and bytes at [2i + 1]. *)

module Json = Treesls_util.Json

let chunk_bits = 8
let chunk_pages = 1 lsl chunk_bits

type sub_stat = { mutable s_writes : int; mutable s_bytes : int }

(* [row] is [name]'s row in [subs], resolved on the frame's first write *)
type frame = { name : string; mutable row : sub_stat option }

type t = {
  mutable chunks : int array array; (* [||] for a chunk never written *)
  mutable tracked : int; (* pages written at least once *)
  mutable subs : (string * sub_stat) list; (* newest first *)
  mutable stack : frame list; (* writer context, innermost first *)
  mutable idle : frame list;
      (* the one-frame context of the last default claim, reused while the
         same name is claimed *)
  mutable total_writes : int;
  mutable total_bytes : int;
  mutable copy_pages : int; (* whole-page NVM copies charged via Store *)
  mutable copy_ns : int; (* Sim.Cost ns charged for those copies *)
}

let create () =
  {
    chunks = [||];
    tracked = 0;
    subs = [];
    stack = [];
    idle = [];
    total_writes = 0;
    total_bytes = 0;
    copy_pages = 0;
    copy_ns = 0;
  }

(* --- writer context ------------------------------------------------------ *)

let unattributed = "unattributed"

let current_writer t = match t.stack with [] -> unattributed | f :: _ -> f.name

let pop t = match t.stack with [] -> () | _ :: tl -> t.stack <- tl

let with_writer t name f =
  t.stack <- { name; row = None } :: t.stack;
  match f () with
  | v ->
    pop t;
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    pop t;
    Printexc.raise_with_backtrace e bt

(* Outermost-wins variant for generic entry points (e.g. the kernel's
   write syscall claims "app" only when no more specific subsystem —
   extsync, checkpoint — is already on the stack).  A claim on an empty
   stack installs the kept one-frame context, so it allocates nothing and
   the frame's row stays resolved from one claim to the next. *)
let claim_default t name =
  match t.stack with
  | _ :: _ -> false
  | [] ->
    (match t.idle with
    | [ f ] when String.equal f.name name -> ()
    | _ -> t.idle <- [ { name; row = None } ]);
    t.stack <- t.idle;
    true

let release_default t = t.stack <- []

let with_default_writer t name f =
  if not (claim_default t name) then f ()
  else
    match f () with
    | v ->
      release_default t;
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      release_default t;
      Printexc.raise_with_backtrace e bt

(* --- recording --------------------------------------------------------- *)

let find_sub name subs =
  match List.find_opt (fun (n, _) -> n == name) subs with
  | Some (_, s) -> Some s
  | None -> Option.map snd (List.find_opt (fun (n, _) -> String.equal n name) subs)

let sub t name =
  match find_sub name t.subs with
  | Some s -> s
  | None ->
    let s = { s_writes = 0; s_bytes = 0 } in
    t.subs <- (name, s) :: t.subs;
    s

let writer_row t =
  match t.stack with
  | [] -> sub t unattributed
  | f :: _ -> (
    match f.row with
    | Some s -> s
    | None ->
      let s = sub t f.name in
      f.row <- Some s;
      s)

let chunk t page =
  let k = page lsr chunk_bits in
  if k >= Array.length t.chunks then t.chunks <- Treesls_util.Arr.grow t.chunks k [||];
  if Array.length t.chunks.(k) = 0 then t.chunks.(k) <- Array.make (2 * chunk_pages) 0;
  t.chunks.(k)

let record t ~page ~bytes =
  let c = chunk t page in
  let i = 2 * (page land (chunk_pages - 1)) in
  if c.(i) = 0 then t.tracked <- t.tracked + 1;
  c.(i) <- c.(i) + 1;
  c.(i + 1) <- c.(i + 1) + bytes;
  let s = writer_row t in
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
  t.chunks <- [||];
  t.tracked <- 0;
  t.subs <- [];
  (* open frames must not keep writing into the dropped rows *)
  List.iter (fun f -> f.row <- None) t.stack;
  List.iter (fun f -> f.row <- None) t.idle;
  t.total_writes <- 0;
  t.total_bytes <- 0;
  t.copy_pages <- 0;
  t.copy_ns <- 0

(* --- queries ----------------------------------------------------------- *)

let total_writes t = t.total_writes
let total_bytes t = t.total_bytes
let copy_pages t = t.copy_pages
let copy_ns t = t.copy_ns
let pages_tracked t = t.tracked

(* [f page writes bytes acc] over the written pages, highest page first,
   so a fold that conses lists them in page order *)
let fold_pages f t init =
  let acc = ref init in
  for k = Array.length t.chunks - 1 downto 0 do
    let c = t.chunks.(k) in
    for i = Array.length c / 2 - 1 downto 0 do
      if c.(2 * i) > 0 then acc := f ((k lsl chunk_bits) + i) c.(2 * i) c.((2 * i) + 1) !acc
    done
  done;
  !acc

let subsystem_bytes t name =
  match find_sub name t.subs with Some s -> s.s_bytes | None -> 0

(* sorted by name so every consumer (CLI, JSON, metrics) is deterministic *)
let subsystems t =
  List.map (fun (name, s) -> (name, s.s_writes, s.s_bytes)) t.subs
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let top t ~n =
  fold_pages (fun page w b acc -> (page, w, b) :: acc) t []
  |> List.sort (fun (pa, wa, ba) (pb, wb, bb) ->
         match Int.compare wb wa with
         | 0 -> ( match Int.compare bb ba with 0 -> Int.compare pa pb | c -> c)
         | c -> c)
  |> fun l -> List.filteri (fun i _ -> i < n) l

let max_writes t = fold_pages (fun _ w _ m -> max m w) t 0

let mean_writes t =
  let n = t.tracked in
  if n = 0 then 0.0 else float_of_int (fold_pages (fun _ w _ acc -> acc + w) t 0) /. float_of_int n

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
    fold_pages (fun _ w _ acc -> w :: acc) t [] |> List.sort Int.compare
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
  fold_pages (fun page w bytes acc -> (page, w, bytes) :: acc) t []
  |> List.iter (fun (page, w, bytes) ->
         let owner =
           match owners with
           | None -> ""
           | Some f -> ( match f page with Some o -> o | None -> "")
         in
         Buffer.add_string b (Printf.sprintf "%d,%d,%d,%s\n" page w bytes owner));
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
