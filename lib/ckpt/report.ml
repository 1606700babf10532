module Kobj = Treesls_cap.Kobj
module Metrics = Treesls_obs.Metrics

type group_cost = { g_ns : int; g_objects : int; g_kinds : (Kobj.kind * int) list }

(* A checkpoint's groups are the nonzero cells of its walk's (group ×
   kind) tally, 16 bytes each in cell order: the cell index [g * kinds + k]
   and its object count as 32-bit words, then its ns as a 64-bit word.
   Callers keep every report a run takes, so a report holds 2 words per
   cell where the lists it expands to take ~20 per group, and nothing in
   it for the GC to scan. *)
type groups =
  | Listed of (string * group_cost) list
  | Cells of { names : string array; cells : Bytes.t }

let cell_bytes = 16

type t = {
  version : int;
  stw_ns : int;
  ipi_ns : int;
  captree_ns : int;
  others_ns : int;
  hybrid_ns : int;
  per_kind_ns : (Kobj.kind * int) list;
  groups : groups;
  objects_walked : int;
  full_objects : int;
  objects_skipped : int;
  pages_protected : int;
  dram_dirty_copied : int;
  migrated_in : int;
  migrated_out : int;
  cached_pages : int;
  snapshot_bytes : int;
  nvm_bytes_written : int;
  logical_dirty_bytes : int;
  pages_drained : int;  (* backlog copies completed off the STW path *)
  cow_faults : int;  (* protected-page write faults resolved mid-drain *)
  drain_ns : int;  (* metered follower-core drain time *)
}

(* write-amplification factor: physical NVM bytes landed this interval per
   logical dirty byte (dirty pages × page size); numerator floor of 1 keeps
   an idle interval finite *)
let waf t = float_of_int t.nvm_bytes_written /. float_of_int (max 1 t.logical_dirty_bytes)

let zero =
  {
    version = 0;
    stw_ns = 0;
    ipi_ns = 0;
    captree_ns = 0;
    others_ns = 0;
    hybrid_ns = 0;
    per_kind_ns = [];
    groups = Listed [];
    objects_walked = 0;
    full_objects = 0;
    objects_skipped = 0;
    pages_protected = 0;
    dram_dirty_copied = 0;
    migrated_in = 0;
    migrated_out = 0;
    cached_pages = 0;
    snapshot_bytes = 0;
    nvm_bytes_written = 0;
    logical_dirty_bytes = 0;
    pages_drained = 0;
    cow_faults = 0;
    drain_ns = 0;
  }

let groups_of_list l = Listed l

let groups_of_tally ~names ~group_n ~gk_n ~gk_ns =
  let nk = List.length Kobj.all_kinds in
  (* [f i] for each cell index [i] with objects, ascending *)
  let iter f =
    Array.iteri
      (fun g n ->
        if n > 0 then
          for i = g * nk to (g * nk) + nk - 1 do
            if gk_n.(i) > 0 then f i
          done)
      group_n
  in
  let count = ref 0 in
  iter (fun _ -> incr count);
  let cells = Bytes.create (!count * cell_bytes) and off = ref 0 in
  iter (fun i ->
      Bytes.set_int32_le cells !off (Int32.of_int i);
      Bytes.set_int32_le cells (!off + 4) (Int32.of_int gk_n.(i));
      Bytes.set_int64_le cells (!off + 8) (Int64.of_int gk_ns.(i));
      off := !off + cell_bytes);
  Cells { names; cells }

(* A group's cells are consecutive: cell indices ascend, and a row holds
   one group's kinds in [Kobj.all_kinds] order. *)
let group_list = function
  | Listed l -> l
  | Cells { names; cells } ->
    let kinds = Array.of_list Kobj.all_kinds in
    let nk = Array.length kinds and count = Bytes.length cells / cell_bytes in
    let index c = Int32.to_int (Bytes.get_int32_le cells (c * cell_bytes)) in
    let rec group c acc =
      if c = count then List.rev acc
      else begin
        let g = index c / nk in
        let rec row c ns objects ks =
          if c < count && index c / nk = g then begin
            let off = c * cell_bytes in
            let n = Int32.to_int (Bytes.get_int32_le cells (off + 4)) in
            let cns = Int64.to_int (Bytes.get_int64_le cells (off + 8)) in
            row (c + 1) (ns + cns) (objects + n) ((kinds.(index c mod nk), cns) :: ks)
          end
          else (c, { g_ns = ns; g_objects = objects; g_kinds = List.rev ks })
        in
        let c, cost = row c 0 0 [] in
        group c ((names.(g), cost) :: acc)
      end
    in
    group 0 []

let per_group t = group_list t.groups

(* costliest subtree first; name breaks ties so output is deterministic *)
let sorted_groups t =
  List.sort
    (fun (na, a) (nb, b) ->
      match Int.compare b.g_ns a.g_ns with 0 -> compare na nb | c -> c)
    (per_group t)

(* Collapsed-stack ("folded") lines for flamegraph tooling: one line per
   leaf stack, space-separated value, ';'-separated frames.  Frames must
   not contain spaces, so kind names like "Cap Group" are underscored. *)
let folded_lines t =
  let frame s = String.map (fun c -> if c = ' ' then '_' else c) s in
  let captree =
    List.concat_map
      (fun (name, g) ->
        match
          List.sort
            (fun (a, _) (b, _) ->
              compare (Kobj.kind_name a) (Kobj.kind_name b))
            g.g_kinds
        with
        | [] -> [ Printf.sprintf "ckpt;captree;%s %d" (frame name) g.g_ns ]
        | kinds ->
          List.map
            (fun (k, ns) ->
              Printf.sprintf "ckpt;captree;%s;%s %d" (frame name)
                (frame (Kobj.kind_name k))
                ns)
            kinds)
      (sorted_groups t)
  in
  let phase name ns = if ns > 0 then [ Printf.sprintf "ckpt;%s %d" name ns ] else [] in
  let attributed = List.fold_left (fun acc (_, g) -> acc + g.g_ns) 0 (per_group t) in
  phase "ipi" t.ipi_ns
  @ captree
  @ phase "captree;unattributed" (max 0 (t.captree_ns - attributed))
  @ phase "others" t.others_ns
  @ phase "hybrid_copy" t.hybrid_ns

(* Every field is printed (the format is pinned by a tier-1 round-trip
   test); per_kind_ns is sorted by kind name so the output is
   deterministic regardless of walk order. *)
let pp ppf t =
  Format.fprintf ppf
    "ckpt v%d: stw=%.1fus (ipi=%.1f captree=%.1f others=%.1f | hybrid=%.1f) objs=%d(full %d) \
     skip=%d ro=%d sc=%d mig=+%d/-%d cached=%d snap=%dB nvm=%dB/%dB waf=%.2f drain=%d/%.1fus \
     cowf=%d"
    t.version
    (float_of_int t.stw_ns /. 1e3)
    (float_of_int t.ipi_ns /. 1e3)
    (float_of_int t.captree_ns /. 1e3)
    (float_of_int t.others_ns /. 1e3)
    (float_of_int t.hybrid_ns /. 1e3)
    t.objects_walked t.full_objects t.objects_skipped t.pages_protected t.dram_dirty_copied
    t.migrated_in t.migrated_out t.cached_pages t.snapshot_bytes t.nvm_bytes_written
    t.logical_dirty_bytes (waf t) t.pages_drained
    (float_of_int t.drain_ns /. 1e3)
    t.cow_faults;
  (match
     List.sort
       (fun (a, _) (b, _) ->
         compare (Kobj.kind_name a) (Kobj.kind_name b))
       t.per_kind_ns
   with
  | [] -> ()
  | kinds ->
    Format.fprintf ppf " kinds=[%s]"
      (String.concat "; "
         (List.map
            (fun (k, ns) -> Printf.sprintf "%s=%dns" (Kobj.kind_name k) ns)
            kinds)));
  match sorted_groups t with
  | [] -> ()
  | groups ->
    Format.fprintf ppf " groups=[%s]"
      (String.concat "; "
         (List.map (fun (name, g) -> Printf.sprintf "%s=%dns/%d" name g.g_ns g.g_objects) groups))

type metrics = {
  runs : Metrics.counter;
  walked : Metrics.counter;
  skipped : Metrics.counter;
  fulls : Metrics.counter;
  dirty_fraction : Metrics.gauge;
  protected : Metrics.counter;
  dirty_copied : Metrics.counter;
  migrated_in : Metrics.counter;
  migrated_out : Metrics.counter;
  cached : Metrics.gauge;
  version_g : Metrics.gauge;
  stw : Metrics.timer;
  captree : Metrics.timer;
  hybrid : Metrics.timer;
  others : Metrics.timer;
  backlog : Metrics.gauge;
  protected_last : Metrics.gauge;
  drained : Metrics.counter;
  drain_cow_faults : Metrics.counter;
  drain : Metrics.timer;
  waf_g : Metrics.gauge;
  nvm_bytes : Metrics.counter;
  nvm_touched : Metrics.gauge;
  dram_touched : Metrics.gauge;
  mutable wear : (string * Metrics.gauge) list;
}

let metrics m =
  let c = Metrics.counter m and g = Metrics.gauge m and tm = Metrics.timer m in
  {
    runs = c "ckpt.runs";
    walked = c "ckpt.objects_walked";
    skipped = c "ckpt.objects_skipped";
    fulls = c "ckpt.full_objects";
    dirty_fraction = g "ckpt.dirty_fraction_pct";
    protected = c "ckpt.pages.protected";
    dirty_copied = c "ckpt.pages.dirty_copied";
    migrated_in = c "ckpt.pages.migrated_in";
    migrated_out = c "ckpt.pages.migrated_out";
    cached = g "ckpt.cached_pages";
    version_g = g "ckpt.version";
    stw = tm "ckpt.stw_ns";
    captree = tm "ckpt.captree_ns";
    hybrid = tm "ckpt.hybrid_ns";
    others = tm "ckpt.others_ns";
    backlog = g "ckpt.drain.backlog";
    protected_last = g "ckpt.pages.protected.last";
    drained = c "ckpt.drain.pages";
    drain_cow_faults = c "ckpt.drain.cow_faults";
    drain = tm "ckpt.drain_ns";
    waf_g = g "ckpt.nvm.waf";
    nvm_bytes = c "ckpt.nvm.bytes";
    nvm_touched = g "nvm.pages_touched";
    dram_touched = g "dram.pages_touched";
    wear = [];
  }

let wear_gauge t m subsystem =
  let rec find = function
    | (name, gauge) :: _ when String.equal name subsystem -> gauge
    | _ :: rest -> find rest
    | [] ->
      let gauge = Metrics.gauge m ("nvm.bytes_written." ^ subsystem) in
      t.wear <- (subsystem, gauge) :: t.wear;
      gauge
  in
  find t.wear
