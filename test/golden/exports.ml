(* Prints every JSON export of the observability stack, each under a
   "# name" header line, built from small deterministic fixtures: no
   system is booted, so only a change to an export's format (not to the
   simulator) moves these bytes.  Names and messages carry quotes,
   backslashes, control bytes and non-ASCII to pin the escaping. *)

module Trace = Treesls_obs.Trace
module Metrics = Treesls_obs.Metrics
module Slo = Treesls_obs.Slo
module Rto = Treesls_obs.Rto
module Tseries = Treesls_obs.Tseries
module Wearmap = Treesls_obs.Wearmap
module Audit = Treesls_audit.Audit
module Nvm_census = Treesls_audit.Nvm_census
module Kobj = Treesls_cap.Kobj
module Paddr = Treesls_nvm.Paddr
module Json = Treesls_util.Json

let section name text = Printf.printf "# %s\n%s\n" name text
let json name v = section name (Json.to_string v)

let trace () =
  let tr = Trace.create ~capacity:16 () in
  Trace.flow_start tr ~flow_id:42 "req.flow" ~ts_ns:500;
  let stw =
    Trace.begin_span tr ~now:1_000
      ~args:[ ("quote", "a\"b"); ("ctl", "tab\tnl\ncr\r\001"); ("utf8", "caf\xc3\xa9") ]
      "ckpt.stw"
  in
  Trace.instant tr ~now:1_250 "mark\\back";
  Trace.complete tr "ckpt.hybrid_copy" ~ts_ns:1_100 ~dur_ns:700;
  Trace.flow_end tr ~flow_id:42 "req.flow" ~ts_ns:1_500;
  Trace.end_span tr ~now:2_000 ~args:[ ("pages", "3") ] stw;
  Trace.counter tr ~now:2_500 "nvm.bytes" ~values:[ ("app", 4096); ("ckpt \"copy\"", 128) ];
  let req = Trace.begin_span tr ~now:3_000 "req.handle" in
  Trace.end_span tr ~now:3_123 req;
  ignore (Trace.begin_span tr ~now:4_000 "restore");
  Trace.abort_open tr ~now:4_567;
  tr

let metrics () =
  let m = Metrics.create () in
  Metrics.add m "ckpt.count" 3;
  Metrics.add m "odd \"name\"" 1;
  Metrics.set_gauge m "drain.backlog" 7;
  List.iter (Metrics.observe m "ckpt.stw_ns") [ 1_000; 2_500; 40_000 ];
  m

let slo () =
  let ts = Tseries.create ~capacity:8 () in
  let rules =
    List.map (fun s -> Result.get_ok (Slo.rule_of_string s)) [ "waf < 3"; "stw < 5000" ]
  in
  let slo = Slo.create ~rules () in
  let sample ~ts_ns ~version waf stw =
    Tseries.record ts ~ts_ns ~version [ ("ckpt.nvm.waf", waf); ("ckpt.stw_ns", stw) ];
    ignore (Slo.check slo ts ~interval_ns:(Some 1_000_000))
  in
  sample ~ts_ns:1_000 ~version:1 150 4_000;
  sample ~ts_ns:2_000 ~version:2 420 9_000;
  slo

let rto_record () =
  {
    Rto.r_index = 2;
    r_version = 17;
    r_crash_ns = 9_000;
    r_begin_ns = 9_500;
    r_end_ns = 12_750;
    r_total_ns = 3_250;
    r_downtime_ns = 3_750;
    r_phases = [ ("journal_replay", 400); ("materialize", 2_000); ("ring_reattach", 600) ];
    r_untracked_ns = 250;
    r_per_kind_ns = [ ("PMO", 1_500); ("Cap Group", 500) ];
    r_spans =
      [
        { Rto.ps_name = "journal_replay"; ps_t0 = 9_500; ps_t1 = 9_900 };
        { Rto.ps_name = "materialize"; ps_t0 = 9_900; ps_t1 = 11_900 };
      ];
    r_restored_objects = 40;
    r_dropped_objects = 2;
    r_pages_restored = 128;
    r_pages_dropped = 4;
    r_ttfr_ns = 5_001;
    r_pre_crash = Trace.events (trace ());
  }

let tseries () =
  let ts = Tseries.create ~capacity:3 () in
  Tseries.record ts ~ts_ns:100 ~version:1 [ ("a", 10); ("b \"q\"", 1) ];
  Tseries.record ts ~ts_ns:200 ~version:2 [ ("a", 20) ];
  Tseries.record ts ~ts_ns:1_234_567 ~version:3 [ ("b \"q\"", -5); ("c", 7) ];
  Tseries.record ts ~ts_ns:1_300_000 ~version:4 [ ("a", 40); ("c", 8) ];
  ts

let census =
  {
    Nvm_census.version = 5;
    page_size = 4096;
    total_pages = 1024;
    free_pages = 700;
    runtime_pages = 200;
    eternal_pages = 20;
    backup_cp_frames = 60;
    backup_cpp_frames = 30;
    slab_pages = 10;
    slab_objects = 77;
    cp_records = 90;
    snapshot_slots = 33;
    snapshot_bytes = 2_112;
    sealed_pages = 12;
    allocator_meta_bytes = 640;
  }

let audit_report =
  let v severity subsystem ?obj_id ?pno ?paddr message =
    { Audit.severity; subsystem; obj_id; pno; paddr; message }
  in
  {
    Audit.version = 5;
    objects_checked = 33;
    pages_checked = 90;
    violations =
      [
        v Audit.Error Audit.Pages ~obj_id:12 ~pno:3 ~paddr:(Paddr.nvm 77)
          "backup \"b2\" stamped above g\\5";
        v Audit.Error Audit.Allocator ~paddr:(Paddr.dram 4) "leaked block\nsecond line";
        v Audit.Warning Audit.Wear "skew 51.0 > 50.0";
        v Audit.Info Audit.Captree ~obj_id:7 "caf\xc3\xa9 \001";
      ];
    census;
  }

let audit_diff =
  {
    Audit.from_version = 3;
    to_version = 5;
    objects =
      [
        (4, Kobj.Cap_group_k, Audit.Mutated);
        (9, Kobj.Pmo_k, Audit.Added);
        (11, Kobj.Vmspace_k, Audit.Removed);
      ];
    pages =
      [
        (9, 0, Audit.Cow_protected);
        (9, 1, Audit.Stop_and_copied);
        (9, 2, Audit.Migrated);
        (12, 7, Audit.Unknown);
      ];
  }

let wearmap () =
  let wm = Wearmap.create () in
  Wearmap.with_writer wm "app" (fun () ->
      Wearmap.record wm ~page:2 ~bytes:100;
      Wearmap.record wm ~page:2 ~bytes:50;
      Wearmap.record wm ~page:9 ~bytes:25);
  Wearmap.with_writer wm "ckpt \"cow\"" (fun () -> Wearmap.record wm ~page:5 ~bytes:4096);
  Wearmap.note wm ~subsystem:"nvm.journal" ~bytes:64;
  Wearmap.copy_charged wm ~ns:300;
  wm

let () =
  let owners p = if p = 2 then Some "runtime/kv/pmo7" else None in
  section "trace" (Trace.to_perfetto_json ~pid:7 ~tid:3 (trace ()));
  section "trace, empty" (Trace.to_perfetto_json (Trace.create ()));
  json "metrics" (Metrics.snapshot_to_json (Metrics.snapshot (metrics ())));
  json "metrics, empty" (Metrics.snapshot_to_json (Metrics.snapshot (Metrics.create ())));
  json "slo" (Slo.to_json (slo ()));
  json "rto" (Rto.to_json (rto_record ()));
  section "rto flight" (Rto.flight_to_perfetto_json ~pid:2 (rto_record ()));
  section "rto flight, no crash mark"
    (Rto.flight_to_perfetto_json { (rto_record ()) with Rto.r_crash_ns = -1; r_pre_crash = [] });
  json "tseries" (Tseries.to_json (tseries ()));
  json "tseries, last 1" (Tseries.to_json ~last:1 (tseries ()));
  section "tseries perfetto" (Tseries.to_perfetto_json (tseries ()));
  section "tseries perfetto, cols"
    (Tseries.to_perfetto_json ~pid:2 ~tid:5 ~cols:[ "c"; "zz" ] (tseries ()));
  json "audit" (Audit.to_json audit_report);
  json "audit, clean" (Audit.to_json { audit_report with Audit.violations = [] });
  json "audit diff" (Audit.diff_to_json audit_diff);
  json "census" (Nvm_census.to_json census);
  json "wearmap" (Wearmap.to_json ~owners ~top_n:2 (wearmap ()));
  json "wearmap, empty" (Wearmap.to_json (Wearmap.create ()))
