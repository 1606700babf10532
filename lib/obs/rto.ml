(* Restore-time (RTO) profiler and crash flight recorder.

   One [t] lives in the probe and — like the metrics registry and the
   trace ring — is modelled as eternal-PMO state: it survives a simulated
   crash/restore instead of rolling back with the kernel tree, so the
   [last] record is readable after the outage it describes.

   A recovery profile is built in three steps:
   - [begin_restore] (from [Restore.run]) opens a building profile and
     captures the pre-crash tail of the eternal trace ring before any
     recovery event can enter it;
   - [phase_begin]/[phase_end] bracket the named restore phases.  Phases
     nest (the per-PMO page remap runs inside object materialisation);
     accounting is EXCLUSIVE — a parent's time excludes its children's —
     so the recorded phases tile the recovery wall and their sum plus the
     [r_untracked_ns] residue equals [r_total_ns] exactly;
   - [recovered] (from [System.recover], after service re-setup) seals the
     profile into a [record].

   All timestamps are simulated nanoseconds from [Treesls_sim.Clock]: the
   profiler reads the clock other code advances and never charges time
   itself, so profiling cannot perturb the restore being measured. *)

module Json = Treesls_util.Json

type phase_span = { ps_name : string; ps_t0 : int; ps_t1 : int }

type record = {
  r_index : int;
  r_version : int;
  r_crash_ns : int;
  r_begin_ns : int;
  r_end_ns : int;
  r_total_ns : int;
  r_downtime_ns : int;
  r_phases : (string * int) list;
  r_untracked_ns : int;
  r_per_kind_ns : (string * int) list;
  r_spans : phase_span list;
  r_restored_objects : int;
  r_dropped_objects : int;
  r_pages_restored : int;
  r_pages_dropped : int;
  mutable r_ttfr_ns : int;
  r_pre_crash : Trace.event list;
}

type frame = { f_name : string; f_t0 : int; mutable f_child_ns : int }

type building = {
  b_t0 : int;
  b_crash_ns : int;
  b_pre_crash : Trace.event list;
  mutable b_stack : frame list;
  b_excl : (string, int) Hashtbl.t;
  mutable b_order : string list; (* reverse order of first appearance *)
  b_kinds : (string, int) Hashtbl.t;
  mutable b_kind_order : string list;
  mutable b_spans : phase_span list; (* reverse *)
  mutable b_done : (int * int * int * int * int) option;
}

type t = {
  mutable cur : building option;
  mutable last : record option;
  mutable restores : int;
  mutable crash_ns : int;
  mutable awaiting_req : bool;
}

let create () = { cur = None; last = None; restores = 0; crash_ns = -1; awaiting_req = false }
let last t = t.last
let count t = t.restores

let note_crash t ~now =
  t.crash_ns <- now;
  t.awaiting_req <- false

let begin_restore t ~now ~pre_crash =
  t.cur <-
    Some
      {
        b_t0 = now;
        b_crash_ns = t.crash_ns;
        b_pre_crash = pre_crash;
        b_stack = [];
        b_excl = Hashtbl.create 16;
        b_order = [];
        b_kinds = Hashtbl.create 8;
        b_kind_order = [];
        b_spans = [];
        b_done = None;
      }

let bump tbl order name ns =
  match Hashtbl.find_opt tbl name with
  | Some prev -> Hashtbl.replace tbl name (prev + ns)
  | None ->
    order := name :: !order;
    Hashtbl.replace tbl name ns

let phase_begin t ~now name =
  match t.cur with
  | None -> ()
  | Some b -> b.b_stack <- { f_name = name; f_t0 = now; f_child_ns = 0 } :: b.b_stack

let phase_end t ~now =
  match t.cur with
  | None -> ()
  | Some b -> (
    match b.b_stack with
    | [] -> () (* unmatched end: ignore, like Trace.end_span *)
    | f :: rest ->
      b.b_stack <- rest;
      let incl = now - f.f_t0 in
      let order = ref b.b_order in
      bump b.b_excl order f.f_name (incl - f.f_child_ns);
      b.b_order <- !order;
      (match rest with p :: _ -> p.f_child_ns <- p.f_child_ns + incl | [] -> ());
      b.b_spans <- { ps_name = f.f_name; ps_t0 = f.f_t0; ps_t1 = now } :: b.b_spans)

let note_kind t name ns =
  match t.cur with
  | None -> ()
  | Some b ->
    let order = ref b.b_kind_order in
    bump b.b_kinds order name ns;
    b.b_kind_order <- !order

let restore_done t ~version ~restored_objects ~dropped_objects ~pages_restored ~pages_dropped =
  match t.cur with
  | None -> ()
  | Some b ->
    b.b_done <- Some (version, restored_objects, dropped_objects, pages_restored, pages_dropped)

let abort t = t.cur <- None

let recovered t ~now =
  match t.cur with
  | None -> None
  | Some b -> (
    match b.b_done with
    | None ->
      (* recovery "completed" without a successful Restore.run: nothing
         trustworthy to seal *)
      t.cur <- None;
      None
    | Some (version, robj, dobj, pres, pdrop) ->
      while b.b_stack <> [] do
        phase_end t ~now
      done;
      let total = now - b.b_t0 in
      let phases = List.rev_map (fun n -> (n, Hashtbl.find b.b_excl n)) b.b_order in
      let sum = List.fold_left (fun a (_, ns) -> a + ns) 0 phases in
      let downtime =
        if b.b_crash_ns >= 0 && b.b_crash_ns <= now then now - b.b_crash_ns else total
      in
      t.restores <- t.restores + 1;
      let r =
        {
          r_index = t.restores;
          r_version = version;
          r_crash_ns = b.b_crash_ns;
          r_begin_ns = b.b_t0;
          r_end_ns = now;
          r_total_ns = total;
          r_downtime_ns = downtime;
          r_phases = phases;
          r_untracked_ns = total - sum;
          r_per_kind_ns = List.rev_map (fun n -> (n, Hashtbl.find b.b_kinds n)) b.b_kind_order;
          r_spans = List.rev b.b_spans;
          r_restored_objects = robj;
          r_dropped_objects = dobj;
          r_pages_restored = pres;
          r_pages_dropped = pdrop;
          r_ttfr_ns = -1;
          r_pre_crash = b.b_pre_crash;
        }
      in
      t.cur <- None;
      t.last <- Some r;
      t.awaiting_req <- true;
      Some r)

let note_first_request t ~now =
  if not t.awaiting_req then None
  else begin
    t.awaiting_req <- false;
    match t.last with
    | Some r when r.r_ttfr_ns < 0 ->
      (* measured from the crash instant when known: the full outage as a
         client would see it (downtime + post-recovery dispatch) *)
      let from = if r.r_crash_ns >= 0 then r.r_crash_ns else r.r_begin_ns in
      r.r_ttfr_ns <- now - from;
      Some r.r_ttfr_ns
    | Some _ | None -> None
  end

(* --- export ----------------------------------------------------------- *)

let to_json r =
  let ns_obj l = Json.Obj (List.map (fun (k, ns) -> (k, Json.int ns)) l) in
  Json.Obj
    [
      ("restore_index", Json.int r.r_index);
      ("version", Json.int r.r_version);
      ("crash_ns", Json.int r.r_crash_ns);
      ("begin_ns", Json.int r.r_begin_ns);
      ("end_ns", Json.int r.r_end_ns);
      ("total_ns", Json.int r.r_total_ns);
      ("downtime_ns", Json.int r.r_downtime_ns);
      ("untracked_ns", Json.int r.r_untracked_ns);
      ("ttfr_ns", Json.int r.r_ttfr_ns);
      ("restored_objects", Json.int r.r_restored_objects);
      ("dropped_objects", Json.int r.r_dropped_objects);
      ("pages_restored", Json.int r.r_pages_restored);
      ("pages_dropped", Json.int r.r_pages_dropped);
      ("phases", ns_obj r.r_phases);
      ("per_kind_ns", ns_obj r.r_per_kind_ns);
      ("pre_crash_events", Json.int (List.length r.r_pre_crash));
    ]

let us ns = float_of_int ns /. 1e3

let pp ppf r =
  Format.fprintf ppf "== last recovery: restore #%d -> v%d ==@." r.r_index r.r_version;
  if r.r_crash_ns >= 0 then Format.fprintf ppf "  crash at     %12.3f us@." (us r.r_crash_ns);
  Format.fprintf ppf "  restore      %12.3f us (begin %.3f us)@." (us r.r_total_ns)
    (us r.r_begin_ns);
  Format.fprintf ppf "  downtime     %12.3f us@." (us r.r_downtime_ns);
  if r.r_ttfr_ns >= 0 then
    Format.fprintf ppf "  first request%12.3f us after crash@." (us r.r_ttfr_ns);
  Format.fprintf ppf "  objects      %d restored, %d dropped@." r.r_restored_objects
    r.r_dropped_objects;
  Format.fprintf ppf "  pages        %d restored, %d dropped@." r.r_pages_restored
    r.r_pages_dropped;
  Format.fprintf ppf "  phases (exclusive):@.";
  List.iter
    (fun (name, ns) ->
      Format.fprintf ppf "    %-16s %12.3f us  %5.1f%%@." name (us ns)
        (100.0 *. float_of_int ns /. float_of_int (max 1 r.r_total_ns)))
    r.r_phases;
  Format.fprintf ppf "    %-16s %12.3f us  %5.1f%%@." "(untracked)" (us r.r_untracked_ns)
    (100.0 *. float_of_int r.r_untracked_ns /. float_of_int (max 1 r.r_total_ns));
  if r.r_per_kind_ns <> [] then begin
    Format.fprintf ppf "  materialize by kind:@.";
    List.iter
      (fun (name, ns) -> Format.fprintf ppf "    %-16s %12.3f us@." name (us ns))
      r.r_per_kind_ns
  end;
  Format.fprintf ppf "  flight: %d pre-crash events captured@." (List.length r.r_pre_crash)

(* Flight-recorder timeline: the pre-crash tail of the eternal trace ring
   on one named track, the crash instant and the recovery-phase spans on
   another, in a single Perfetto file. *)
let flight_to_perfetto_json ?(pid = 1) r =
  let recovery_event ~name ~cat ~ph ~ts_ns ~dur_ns ~id ~parent args =
    Trace.event_json ~pid ~tid:2
      { Trace.seq = 0; name; cat; ph; ts_ns; dur_ns; id; parent; args }
  in
  let crash_ts = if r.r_crash_ns >= 0 then r.r_crash_ns else r.r_begin_ns in
  Trace.perfetto_file ~pid
    ~tracks:[ (1, "pre-crash"); (2, "recovery") ]
    (List.map (Trace.event_json ~pid ~tid:1) r.r_pre_crash
    @ [
        recovery_event ~name:"crash" ~cat:"crash" ~ph:Trace.Instant ~ts_ns:crash_ts ~dur_ns:0 ~id:0
          ~parent:0
          [ ("marker", "flight") ];
        recovery_event ~name:"recovery" ~cat:"rto" ~ph:Trace.Complete ~ts_ns:r.r_begin_ns
          ~dur_ns:r.r_total_ns ~id:1 ~parent:0
          [ ("version", string_of_int r.r_version); ("restore", string_of_int r.r_index) ];
      ]
    @ List.map
        (fun s ->
          recovery_event ~name:("rto." ^ s.ps_name) ~cat:"rto" ~ph:Trace.Complete ~ts_ns:s.ps_t0
            ~dur_ns:(s.ps_t1 - s.ps_t0) ~id:0 ~parent:1 [])
        r.r_spans)
