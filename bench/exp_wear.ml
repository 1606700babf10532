(* NVM write-amplification and wear telemetry (exp_wear).

   Drives the same hot-set KV workload under 1 ms checkpoints twice — once
   with the eager capability-tree walk, once incremental — and reads the
   wearmap + per-checkpoint WAF out of each run.

   Built-in correctness gates (the harness exits 2 if any fails):
   - the incremental walk's average WAF is strictly below the eager one's
     (at <= 10% dirty objects the eager walk re-snapshots the whole tree
     every checkpoint; the denominator is strategy-independent);
   - journal wear reconciles exactly with the transaction layer:
     wearmap["nvm.journal"] = 16 bytes x the nvm.txn.words counter
     (8 B log record + 8 B in-place apply per committed word);
   - charged copy time reconciles with the Sim.Cost model within 1%:
     copy_ns = copy_pages x nvm_page_write_copy_ns;
   - the CSV heatmap round-trips: re-parsing it reproduces the per-page
     write/byte sums and page count, and the JSON export carries the same
     grand totals;
   - no bytes are ever attributed to the [unattributed] sink. *)

open Exp_common
module Wearmap = Treesls_obs.Wearmap
module Metrics = Treesls_obs.Metrics
module Probe = Treesls_obs.Probe
module Cost = Treesls_sim.Cost

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("wear: " ^ m);
      exit 2)
    fmt

type mode_result = {
  m_reports : Report.t list;  (* steady-state checkpoints, first full walk dropped *)
  m_waf : float;
  m_dirty_pct : float;  (* walked / (walked + skipped), eager: 100 *)
  m_journal_bytes : int;
  m_txn_words : int;
  m_copy_pages : int;
  m_copy_ns : int;
  m_unattributed : int;
  m_wm : Wearmap.t;
}

(* One run: boot (each system has its own probe, so attribution never
   mixes across modes), preload a KV store, then hammer a Zipf hot set. *)
let run_mode ~incr ~ops =
  let sys =
    boot ~features:(features ~incr State.Hybrid) ()
  in
  System.ensure_wear_backing sys;
  let rng = Rng.create 7L in
  let app = Kv_app.launch ~keys_hint:20_000 ~value_size:256 sys Kv_app.Memcached in
  for i = 0 to 4_999 do
    Kv_app.set_i app i
  done;
  (* the first post-boot walk is forced eager in both modes; exclude it *)
  ignore (System.checkpoint sys);
  let zipf = Treesls_util.Zipf.create ~theta:1.1 ~n:2_000 rng in
  let reports =
    collect_reports sys ~n:ops (fun () -> Kv_app.set_i app (Treesls_util.Zipf.next zipf))
  in
  if List.length reports < 3 then die "only %d checkpoints fired" (List.length reports);
  let wm = System.wearmap sys in
  let metrics = Probe.metrics (System.obs sys) in
  let walked = List.fold_left (fun a (r : Report.t) -> a + r.Report.objects_walked) 0 reports in
  let skipped =
    List.fold_left (fun a (r : Report.t) -> a + r.Report.objects_skipped) 0 reports
  in
  {
    m_reports = reports;
    m_waf = avg_reports reports (fun r -> int_of_float (100.0 *. Report.waf r)) /. 100.0;
    m_dirty_pct = 100.0 *. float_of_int walked /. float_of_int (max 1 (walked + skipped));
    m_journal_bytes = Wearmap.subsystem_bytes wm "nvm.journal";
    m_txn_words = Metrics.counter_value metrics "nvm.txn.words";
    m_copy_pages = Wearmap.copy_pages wm;
    m_copy_ns = Wearmap.copy_ns wm;
    m_unattributed = Wearmap.subsystem_bytes wm Wearmap.unattributed;
    m_wm = wm;
  }

(* Re-parse the CSV heatmap and check it reproduces the wear table. *)
let check_heatmap_roundtrip wm =
  let csv = Wearmap.to_csv wm in
  let lines =
    match String.split_on_char '\n' csv with
    | "page,writes,bytes,owner" :: rest -> List.filter (fun l -> l <> "") rest
    | _ -> die "heatmap CSV header mismatch"
  in
  if List.length lines <> Wearmap.pages_tracked wm then
    die "heatmap rows %d <> pages tracked %d" (List.length lines) (Wearmap.pages_tracked wm);
  let csv_writes, csv_bytes =
    List.fold_left
      (fun (w, b) line ->
        match String.split_on_char ',' line with
        | page :: writes :: bytes :: _ ->
          ignore (int_of_string page);
          (w + int_of_string writes, b + int_of_string bytes)
        | _ -> die "heatmap line %S malformed" line)
      (0, 0) lines
  in
  let tbl_writes, tbl_bytes =
    List.fold_left
      (fun (w, b) (_, writes, bytes) -> (w + writes, b + bytes))
      (0, 0)
      (Wearmap.top wm ~n:(Wearmap.pages_tracked wm))
  in
  if csv_writes <> tbl_writes || csv_bytes <> tbl_bytes then
    die "heatmap CSV sums (%d writes, %d B) <> wear table (%d writes, %d B)" csv_writes
      csv_bytes tbl_writes tbl_bytes;
  (* and the JSON export carries the same grand totals *)
  let json = Json.parse (Json.to_string (Wearmap.to_json wm)) in
  List.iter
    (fun (field, v) ->
      if Json.member field json <> Some (Json.int v) then die "JSON export lacks %s = %d" field v)
    [ ("total_bytes", Wearmap.total_bytes wm); ("pages_tracked", Wearmap.pages_tracked wm) ]

let check_mode name (m : mode_result) =
  if m.m_unattributed > 0 then die "%s: %d unattributed bytes" name m.m_unattributed;
  if m.m_journal_bytes <> 16 * m.m_txn_words then
    die "%s: journal bytes %d <> 16 x %d txn words" name m.m_journal_bytes m.m_txn_words;
  let expect_ns = m.m_copy_pages * Cost.default.Cost.nvm_page_write_copy_ns in
  if
    m.m_copy_pages > 0
    && abs_float (float_of_int (m.m_copy_ns - expect_ns)) > 0.01 *. float_of_int expect_ns
  then
    die "%s: copy_ns %d off by >1%% from %d pages x %dns" name m.m_copy_ns m.m_copy_pages
      Cost.default.Cost.nvm_page_write_copy_ns;
  check_heatmap_roundtrip m.m_wm

let run () =
  let ops = if !smoke then 4_000 else 20_000 in
  let eager = run_mode ~incr:false ~ops in
  let incr = run_mode ~incr:true ~ops in
  check_mode "eager" eager;
  check_mode "incr" incr;
  if incr.m_dirty_pct > 10.0 then
    die "workload dirties %.1f%% of objects; the WAF gate assumes <= 10%%" incr.m_dirty_pct;
  if incr.m_waf >= eager.m_waf then
    die "incremental WAF %.2f not below eager %.2f at %.1f%% dirty" incr.m_waf eager.m_waf
      incr.m_dirty_pct;
  let row name (m : mode_result) =
    [
      name;
      string_of_int (List.length m.m_reports);
      f1 m.m_dirty_pct;
      f2 m.m_waf;
      string_of_int (Wearmap.total_bytes m.m_wm);
      string_of_int m.m_journal_bytes;
      string_of_int m.m_copy_pages;
      f2 (Wearmap.skew m.m_wm);
      Printf.sprintf "%.3f" (Wearmap.gini m.m_wm);
    ]
  in
  Table.print
    ~title:
      (Printf.sprintf
         "NVM write amplification: eager vs incremental walk (%d ops, 1ms checkpoints; \
          journal/copy reconciliation + heatmap round-trip checked)"
         ops)
    ~header:
      [ "walk"; "ckpts"; "dirty %"; "waf"; "nvm B"; "journal B"; "copies"; "skew"; "gini" ]
    [ row "eager" eager; row "incr" incr ];
  List.iter
    (fun (name, (m : mode_result)) ->
      emit_row
        ~config:[ ("walk", name); ("ops", string_of_int ops) ]
        ~metrics:
          [
            ("checkpoints", float_of_int (List.length m.m_reports));
            ("dirty_pct", m.m_dirty_pct);
            ("waf", m.m_waf);
            ("nvm_bytes", float_of_int (Wearmap.total_bytes m.m_wm));
            ("journal_bytes", float_of_int m.m_journal_bytes);
            ("txn_words", float_of_int m.m_txn_words);
            ("copy_pages", float_of_int m.m_copy_pages);
            ("copy_ns", float_of_int m.m_copy_ns);
            ("pages_tracked", float_of_int (Wearmap.pages_tracked m.m_wm));
            ("skew", Wearmap.skew m.m_wm);
            ("gini", Wearmap.gini m.m_wm);
          ])
    [ ("eager", eager); ("incr", incr) ]
