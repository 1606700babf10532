(* Asynchronous checkpoint drain (the JASS-style capture/policy split).

   The STW capture publishes a *staged* version: snapshots and page
   protections land synchronously, but the copies of dirty DRAM-cached
   pages are deferred into the backlog below and drained on the follower
   cores between operations.  The version bump — the durability point —
   moves to the settle step, once the backlog is empty.  Until then the
   committed version stays [p_ver - 1] and every structure here
   describes the in-flight version [p_ver]:

   - [index]/[queue]: dirty DRAM pages protected at the STW whose copy
     into the stale CPP slot is still owed.  A write fault on such a
     page resolves its entry immediately (the faulting op pays one page)
     and unprotects it.
   - [restamp]: NVM pages clean at [p_ver] that took a CoW backup during
     the drain window.  The backed-up pre-image equals the page's
     content at both [p_ver - 1] and [p_ver], so settle lifts the slot
     stamp to [p_ver] without another copy.
   - [saved]: NVM pages dirty at [p_ver] (their backup slot is already
     stamped [p_ver - 1]) that faulted during the window.  The runtime
     held the only copy of the staged content, so the fault copied it
     into a fresh frame; settle installs that frame as the page's backup
     stamped [p_ver], freeing the slot it supersedes.

   Crash discipline: the backlog is DRAM-resident bookkeeping and dies
   with a power failure ([note_crash]).  The restamp and saved records and
   the saved frames are NVM-resident and survive the cut.  If it came
   after the version bump, restore redoes the settle ([roll_forward]);
   otherwise its [drain_settle] phase forgets the window ([abandon] — the
   committed ORoots reference only slots stamped at or below the restore
   target), and the saved frames, named by nothing, fall to its allocator
   reconciliation. *)

module Kobj = Treesls_cap.Kobj
module Paddr = Treesls_nvm.Paddr

type policy = Lazy

type entry = { d_pmo : Kobj.pmo; d_cps : Ckpt_page.t; d_pno : int }

type pending = {
  p_ver : int;  (* the staged (uncommitted) version *)
  p_visited : Live_tree.t;  (* the walk's liveness epoch, for the deferred GC *)
  p_stw_t0 : int;
  p_enqueued : int;  (* backlog size at publish = pages deferred *)
  p_report : Report.t;  (* STW-side partial report, finalised at settle *)
  mutable p_drained : int;  (* backlog pages copied (background + fault-resolved) *)
  mutable p_cow_faults : int;  (* write faults resolved during the window *)
  mutable p_drain_ns : int;  (* metered follower-core copy time *)
}

type t = {
  index : (int * int, entry) Hashtbl.t;  (* (pmo_id, pno) -> owed copy *)
  queue : (int * int) Queue.t;  (* drain order; deleted lazily against [index] *)
  restamp : (int * int, Ckpt_page.cp) Hashtbl.t;
  saved : (int * int, Ckpt_page.cp * Paddr.t) Hashtbl.t;
  mutable pending : pending option;
}

let create () =
  {
    index = Hashtbl.create 64;
    queue = Queue.create ();
    restamp = Hashtbl.create 16;
    saved = Hashtbl.create 16;
    pending = None;
  }

let backlog t = Hashtbl.length t.index
let pending t = t.pending
let pending_version t = match t.pending with Some p -> Some p.p_ver | None -> None

let enqueue t (e : entry) =
  let key = (e.d_pmo.Kobj.pmo_id, e.d_pno) in
  if not (Hashtbl.mem t.index key) then begin
    Hashtbl.replace t.index key e;
    Queue.push key t.queue
  end

(* Claim (and remove) the owed copy for a page, if any — the fault path
   resolving a still-protected page out of drain order.  The queue entry
   dies lazily at [pop] time. *)
let take t key =
  match Hashtbl.find_opt t.index key with
  | Some e ->
    Hashtbl.remove t.index key;
    Some e
  | None -> None

let rec pop t =
  match Queue.take_opt t.queue with
  | None -> None
  | Some key -> ( match take t key with Some e -> Some e | None -> pop t)

let publish t p =
  assert (t.pending = None);
  t.pending <- Some p

let note_restamp t key cp = Hashtbl.replace t.restamp key cp
let note_saved t key cp frame = Hashtbl.replace t.saved key (cp, frame)
let iter_saved t f = Hashtbl.iter (fun (pmo_id, pno) (_, frame) -> f pmo_id pno frame) t.saved

(* Settle bookkeeping: lift the clean-at-[ver] backups to the new stamp
   and install the drain-saved frames, returning the slots they
   supersede, in table order, for the caller to free.  Runs once version
   [ver] is committed: at settle right after the bump, or in restore
   ([roll_forward]) when a cut fell in between.  A saved frame already
   installed is skipped, and every record points at its new frame before
   any old one is freed, so a pass cut short and run again applies each
   entry once (a superseded frame whose free the cut prevented is no
   longer referenced, and restore's allocator reconciliation reclaims
   it). *)
let apply_settle t ~ver =
  Hashtbl.iter (fun _ (cp : Ckpt_page.cp) -> cp.Ckpt_page.b1_ver <- ver) t.restamp;
  let superseded =
    Hashtbl.fold
      (fun _ ((cp : Ckpt_page.cp), frame) acc ->
        let old = cp.Ckpt_page.b1 in
        if old = Some frame then acc
        else begin
          cp.Ckpt_page.b1 <- Some frame;
          cp.Ckpt_page.b1_ver <- ver;
          match old with Some p -> p :: acc | None -> acc
        end)
      t.saved []
  in
  Hashtbl.reset t.restamp;
  Hashtbl.reset t.saved;
  List.rev superseded

let clear_pending t =
  t.pending <- None;
  Hashtbl.reset t.index;
  Queue.clear t.queue

(* Power failure mid-window: the backlog is volatile bookkeeping; the
   restamp and saved records (NVM) and the pending stamp survive for
   restore. *)
let note_crash t =
  Hashtbl.reset t.index;
  Queue.clear t.queue

(* Restore, right after the journal replay: a window whose staged version
   is already committed (the cut fell inside its settle, after the bump)
   has its settle redone with the rest of the committed work, and is
   forgotten.  The slots it supersedes are named by nothing afterwards:
   restore's allocator reconciliation frees them.  A no-op otherwise. *)
let roll_forward t ~committed =
  match t.pending with
  | Some p when p.p_ver <= committed ->
    ignore (apply_settle t ~ver:p.p_ver);
    clear_pending t
  | Some _ | None -> ()

(* Restore's [drain_settle]: the staged version is abandoned — forget the
   window.  Its drain-saved frames are then named by nothing, and
   restore's allocator reconciliation frees them with every other orphan
   frame. *)
let abandon t =
  Hashtbl.reset t.saved;
  Hashtbl.reset t.restamp;
  clear_pending t
