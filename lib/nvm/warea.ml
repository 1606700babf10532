module Probe = Treesls_obs.Probe
module Wearmap = Treesls_obs.Wearmap

exception Crashed of string

type crash_phase = Before_log | After_log | Mid_apply | After_apply

let phase_name = function
  | Before_log -> "before_log"
  | After_log -> "after_log"
  | Mid_apply -> "mid_apply"
  | After_apply -> "after_apply"

let phase_of_string = function
  | "before_log" -> Some Before_log
  | "after_log" -> Some After_log
  | "mid_apply" -> Some Mid_apply
  | "after_apply" -> Some After_apply
  | _ -> None

let all_phases = [ Before_log; After_log; Mid_apply; After_apply ]

(* A logged record survives crashes (it is on NVM). [complete] models the
   record's trailing checksum/commit mark: a record torn mid-write is
   detectable and must be discarded, not replayed. *)
type record = { writes : (int * int) array; complete : bool }

(* Words live in fixed-size chunks, allocated on the first non-zero write:
   an unwritten chunk is the shared empty array and reads as zeros, so a
   fresh area costs one pointer per chunk and a scan skips what was never
   written. *)
let chunk_bits = 8
let chunk_words = 1 lsl chunk_bits

type t = {
  size : int;
  chunks : int array array;
  mutable log : record option;
  mutable crash_plan : crash_phase option;
  mutable schedule : (int * crash_phase) option;
  mutable commits : int;
  mutable points : int;
  mutable words_written : int;
  mutable replayed_words : int;
  mutable recovery_bug : bool;
  probe : Treesls_obs.Probe.t;
}

let create ~probe ~words =
  assert (words > 0);
  {
    size = words;
    chunks = Array.make ((words + chunk_words - 1) lsr chunk_bits) [||];
    log = None;
    crash_plan = None;
    schedule = None;
    commits = 0;
    points = 0;
    words_written = 0;
    replayed_words = 0;
    recovery_bug = false;
    probe;
  }

let size t = t.size

let read t i =
  if i < 0 || i >= t.size then invalid_arg "Warea.read: index out of bounds";
  let c = t.chunks.(i lsr chunk_bits) in
  if Array.length c = 0 then 0 else c.(i land (chunk_words - 1))

let set t i v =
  let k = i lsr chunk_bits in
  let c = t.chunks.(k) in
  if Array.length c > 0 then c.(i land (chunk_words - 1)) <- v
  else if v <> 0 then begin
    let c = Array.make chunk_words 0 in
    t.chunks.(k) <- c;
    c.(i land (chunk_words - 1)) <- v
  end

let iter_nonzero t ~lo ~hi f =
  if lo < 0 || hi > t.size || lo > hi then invalid_arg "Warea.iter_nonzero: bad range";
  let i = ref lo in
  while !i < hi do
    let k = !i lsr chunk_bits in
    let stop = min hi ((k + 1) lsl chunk_bits) in
    let c = t.chunks.(k) in
    if Array.length c > 0 then
      for j = !i to stop - 1 do
        let v = c.(j land (chunk_words - 1)) in
        if v <> 0 then f j v
      done;
    i := stop
  done

let validate t (writes : (int * int) array) =
  let idx = Array.map fst writes in
  Array.sort Int.compare idx;
  let n = Array.length idx in
  if n > 0 && (idx.(0) < 0 || idx.(n - 1) >= t.size) then
    invalid_arg "Warea.commit: index out of bounds";
  for k = 1 to n - 1 do
    if idx.(k) = idx.(k - 1) then invalid_arg "Warea.commit: duplicate index"
  done

let apply_all t record = Array.iter (fun (i, v) -> set t i v) record.writes

(* Should an armed crash fire at [phase] of the current commit point?  Both
   arming mechanisms disarm themselves on firing so recovery code can commit
   freely afterwards. *)
let fires t phase =
  (match t.crash_plan with
  | Some p when p = phase ->
    t.crash_plan <- None;
    true
  | _ -> false)
  ||
  match t.schedule with
  | Some (point, p) when point = t.points && p = phase ->
    t.schedule <- None;
    true
  | _ -> false

let commit t ~desc writes =
  (* Validate before any side effect: a rejected commit must leave no torn
     log behind (and must not consume a commit point), otherwise a later
     crash+recover would observe state from a transaction that never
     happened. *)
  let arr = Array.of_list writes in
  validate t arr;
  t.points <- t.points + 1;
  if fires t Before_log then begin
    (* The record was being written when power failed: keep a torn
       (incomplete) record so recovery exercises the discard path. *)
    t.log <- Some { writes = arr; complete = false };
    raise (Crashed (desc ^ ": before-log"))
  end;
  t.log <- Some { writes = arr; complete = true };
  if fires t After_log then raise (Crashed (desc ^ ": after-log"));
  if fires t Mid_apply then begin
    let half = Array.length arr / 2 in
    Array.iteri (fun k (i, v) -> if k < half then set t i v) arr;
    raise (Crashed (desc ^ ": mid-apply"))
  end;
  apply_all t { writes = arr; complete = true };
  if fires t After_apply then raise (Crashed (desc ^ ": after-apply"));
  t.log <- None;
  t.commits <- t.commits + 1;
  t.words_written <- t.words_written + Array.length arr;
  Probe.count t.probe "nvm.txn.commits" 1;
  Probe.count t.probe "nvm.txn.words" (Array.length arr);
  (* journal write model: each committed word costs an 8-byte log record
     plus its 8-byte in-place apply — 16 physical NVM bytes per word, so
     journal wear reconciles exactly with the nvm.txn.words counter *)
  Wearmap.note (Probe.wearmap t.probe) ~subsystem:"nvm.journal" ~bytes:(16 * Array.length arr);
  Probe.instant_v t.probe "nvm.txn"
    ~args:[ ("desc", desc); ("words", string_of_int (Array.length arr)) ]

let consume_point t ~desc =
  (* An empty transaction writes no journal record, so every crash phase
     degenerates to a power cut with no journal side effects — but the
     point must still be consumed so commit-point numbering stays in
     lock-step between an enumeration run and an injection run. *)
  t.points <- t.points + 1;
  match t.crash_plan with
  | Some p ->
    t.crash_plan <- None;
    raise (Crashed (desc ^ ": " ^ phase_name p ^ " (empty)"))
  | None -> (
    match t.schedule with
    | Some (point, p) when point = t.points ->
      t.schedule <- None;
      raise (Crashed (desc ^ ": " ^ phase_name p ^ " (empty)"))
    | _ -> ())

let set_crash_plan t plan = t.crash_plan <- plan
let set_crash_schedule t sched = t.schedule <- sched
let crash_schedule t = t.schedule
let set_recovery_bug t on = t.recovery_bug <- on

let recover t =
  match t.log with
  | None -> ()
  | Some record ->
    (* [recovery_bug] deliberately skips the redo replay (the bug class the
       crash sweep must catch): a Mid_apply crash then leaves half-applied
       words behind instead of completing the transaction. *)
    if record.complete && not t.recovery_bug then begin
      apply_all t record;
      t.replayed_words <- t.replayed_words + Array.length record.writes;
      (* redo replay re-applies each word in place: 8 physical bytes/word,
         attributed separately so normal-run journal wear still reconciles
         with the nvm.txn.words counter *)
      Wearmap.note (Probe.wearmap t.probe) ~subsystem:"restore.journal"
        ~bytes:(8 * Array.length record.writes)
    end;
    t.log <- None

let in_flight t = t.log <> None
let commits t = t.commits
let commit_points t = t.points
let words_written t = t.words_written
let replayed_words t = t.replayed_words
