(* NVM wear telemetry tests: the Device choke point (zero_page/copy_page
   edge cases, DRAM-vs-NVM pages-touched accounting across a crash), the
   Wearmap writer-context stack and statistics, export round-trips, the
   per-checkpoint WAF fields in Report, and attribution surviving a
   fault-injected mid-checkpoint power failure (the wear tables model
   eternal-PMO state, so counters are monotone across crash/restore). *)

module Device = Treesls_nvm.Device
module Store = Treesls_nvm.Store
module Paddr = Treesls_nvm.Paddr
module Crash_site = Treesls_nvm.Crash_site
module Warea = Treesls_nvm.Warea
module Wearmap = Treesls_obs.Wearmap
module Probe = Treesls_obs.Probe
module Metrics = Treesls_obs.Metrics
module Clock = Treesls_sim.Clock
module Cost = Treesls_sim.Cost
module System = Treesls.System
module Kernel = Treesls_kernel.Kernel
module Report = Treesls_ckpt.Report
module Audit = Treesls_audit.Audit
module Json = Treesls_util.Json
module Kv_app = Treesls_apps.Kv_app

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ---- device choke point ---- *)

let device_zero_page_edges () =
  let wm = Wearmap.create () in
  let d = Device.create ~wearmap:wm ~kind:Paddr.Nvm ~pages:8 ~page_size:64 in
  (* zeroing a never-materialised page is a no-op: no storage, no wear *)
  Device.zero_page d 3;
  check_int "untouched zero_page materialises nothing" 0 (Device.touched d);
  check_int "untouched zero_page writes nothing" 0 (Wearmap.total_bytes wm);
  (* once materialised, zeroing is a real page-sized physical write *)
  Device.write d 3 ~off:0 (Bytes.of_string "abc");
  check_int "write materialises" 1 (Device.touched d);
  Device.zero_page d 3;
  check_int "zero of live page wears a full page" (3 + 64) (Wearmap.total_bytes wm);
  check_string "content zeroed" (String.make 64 '\000') (Bytes.to_string (Device.page d 3))

let device_copy_page_edges () =
  let wm = Wearmap.create () in
  let nvm = Device.create ~wearmap:wm ~kind:Paddr.Nvm ~pages:8 ~page_size:64 in
  let dram = Device.create ~wearmap:wm ~kind:Paddr.Dram ~pages:8 ~page_size:64 in
  (* copying from an untouched source yields zeros (lazy pages read as
     zero), and wears only the NVM destination *)
  Device.copy_page ~src:dram ~src_idx:0 ~dst:nvm ~dst_idx:1;
  check_string "untouched source copies zeros" (String.make 64 '\000')
    (Bytes.to_string (Device.page nvm 1));
  check_int "copy wears dst page size" 64 (Wearmap.total_bytes wm);
  check_int "copy wears one write" 1 (Wearmap.total_writes wm);
  (* NVM -> DRAM costs no endurance: nothing recorded *)
  Device.write nvm 2 ~off:0 (Bytes.of_string "xyz");
  let before = Wearmap.total_bytes wm in
  Device.copy_page ~src:nvm ~src_idx:2 ~dst:dram ~dst_idx:5;
  check_int "NVM->DRAM copy records no wear" before (Wearmap.total_bytes wm);
  check_string "payload copied" "xyz" (Bytes.to_string (Device.read dram 5 ~off:0 ~len:3));
  (* mismatched page sizes are a programming error *)
  let odd = Device.create ~wearmap:wm ~kind:Paddr.Dram ~pages:2 ~page_size:32 in
  check_bool "page-size mismatch asserts" true
    (match Device.copy_page ~src:odd ~src_idx:0 ~dst:nvm ~dst_idx:0 with
    | () -> false
    | exception Assert_failure _ -> true)

let pages_touched_crash_accounting () =
  let store = Store.create ~clock:(Clock.create ()) ~nvm_pages:64 ~dram_pages:8 () in
  let a = Store.alloc_page store in
  Store.write_page store a ~off:0 (Bytes.make 8 'x');
  (match Store.alloc_dram_page store with
  | Some d -> Store.write_page store d ~off:0 (Bytes.make 4 'd')
  | None -> Alcotest.fail "dram alloc failed");
  let nvm_before = Store.nvm_pages_touched store in
  check_bool "NVM pages materialised" true (nvm_before > 0);
  check_bool "DRAM pages materialised (alloc zeroes the frame)" true
    (Store.dram_pages_touched store > 0);
  Store.crash store;
  Store.recover store;
  (* DRAM storage is discarded by power loss; NVM storage survives *)
  check_int "crash discards DRAM storage" 0 (Store.dram_pages_touched store);
  check_bool "crash retains NVM storage" true (Store.nvm_pages_touched store >= nvm_before);
  check_string "NVM content survives" "x"
    (Bytes.to_string (Store.read_page store a ~off:0 ~len:1))

(* ---- wearmap core ---- *)

let writer_context_stack () =
  let wm = Wearmap.create () in
  let other = Wearmap.create () in
  check_string "no context -> unattributed" Wearmap.unattributed (Wearmap.current_writer wm);
  Wearmap.with_writer wm "outer" (fun () ->
      check_string "innermost wins" "outer" (Wearmap.current_writer wm);
      check_string "another wearmap's stack is untouched" Wearmap.unattributed
        (Wearmap.current_writer other);
      Wearmap.with_writer wm "inner" (fun () ->
          check_string "nested innermost wins" "inner" (Wearmap.current_writer wm);
          (* a default writer never overrides an active context *)
          Wearmap.with_default_writer wm "app" (fun () ->
              check_string "default loses to active context" "inner"
                (Wearmap.current_writer wm));
          (* ... but on another wearmap the stack is empty, so it applies *)
          Wearmap.with_default_writer other "app" (fun () ->
              check_string "default applies on another wearmap" "app"
                (Wearmap.current_writer other)));
      check_string "inner popped" "outer" (Wearmap.current_writer wm));
  check_string "outer popped" Wearmap.unattributed (Wearmap.current_writer wm);
  Wearmap.with_default_writer wm "app" (fun () ->
      check_string "default applies on empty stack" "app" (Wearmap.current_writer wm));
  (* exception-safe: the context pops even when f raises *)
  (try Wearmap.with_writer wm "doomed" (fun () -> raise Exit) with Exit -> ());
  check_string "popped across raise" Wearmap.unattributed (Wearmap.current_writer wm);
  (* record attributes to the wearmap's own writer; note bypasses the
     stack; a scope on another wearmap attributes nothing here *)
  Wearmap.with_writer wm "a" (fun () -> Wearmap.record wm ~page:7 ~bytes:10);
  Wearmap.with_writer other "b" (fun () -> Wearmap.record wm ~page:7 ~bytes:5);
  Wearmap.note wm ~subsystem:"meta" ~bytes:3;
  check_int "a bytes" 10 (Wearmap.subsystem_bytes wm "a");
  check_int "other's scope attributes nothing" 0 (Wearmap.subsystem_bytes wm "b");
  check_int "unattributed bytes" 5 (Wearmap.subsystem_bytes wm Wearmap.unattributed);
  check_int "note bytes" 3 (Wearmap.subsystem_bytes wm "meta");
  check_int "total bytes" 18 (Wearmap.total_bytes wm);
  check_int "total writes" 3 (Wearmap.total_writes wm);
  check_int "notes touch no page" 1 (Wearmap.pages_tracked wm);
  check_int "page accumulates" 15
    (match Wearmap.top wm ~n:1 with [ (7, 2, b) ] -> b | _ -> -1)

let skew_and_gini () =
  let wm = Wearmap.create () in
  (* uniform wear: skew 1, gini 0 *)
  for p = 0 to 9 do
    Wearmap.record wm ~page:p ~bytes:8
  done;
  Alcotest.(check (float 1e-9)) "uniform skew" 1.0 (Wearmap.skew wm);
  Alcotest.(check (float 1e-9)) "uniform gini" 0.0 (Wearmap.gini wm);
  (* one scorching page: 4 pages with writes [1;1;1;97] *)
  let wm2 = Wearmap.create () in
  for p = 0 to 2 do
    Wearmap.record wm2 ~page:p ~bytes:1
  done;
  for _ = 1 to 97 do
    Wearmap.record wm2 ~page:3 ~bytes:1
  done;
  check_int "max" 97 (Wearmap.max_writes wm2);
  Alcotest.(check (float 1e-9)) "mean" 25.0 (Wearmap.mean_writes wm2);
  Alcotest.(check (float 1e-9)) "skew = max/mean" 3.88 (Wearmap.skew wm2);
  (* gini of [1;1;1;97]: (2*(1*1+2*1+3*1+4*97))/(4*100) - 5/4 = 0.72 *)
  Alcotest.(check (float 1e-9)) "gini" 0.72 (Wearmap.gini wm2)

let export_round_trip () =
  let wm = Wearmap.create () in
  Wearmap.with_writer wm "app" (fun () ->
      Wearmap.record wm ~page:2 ~bytes:100;
      Wearmap.record wm ~page:2 ~bytes:50;
      Wearmap.record wm ~page:9 ~bytes:25);
  Wearmap.note wm ~subsystem:"nvm.journal" ~bytes:64;
  let owners p = if p = 2 then Some "runtime/kv/pmo7" else None in
  check_string "csv heatmap" "page,writes,bytes,owner\n2,2,150,runtime/kv/pmo7\n9,1,25,\n"
    (Wearmap.to_csv ~owners wm);
  let json = Json.parse (Json.to_string (Wearmap.to_json ~owners wm)) in
  let field path = List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some json) path in
  let totals w b = Some (Json.Obj [ ("writes", Json.int w); ("bytes", Json.int b) ]) in
  List.iter
    (fun (path, v) ->
      check_bool ("json has " ^ String.concat "." path) true (field path = v))
    [
      ([ "total_bytes" ], Some (Json.int 239));
      ([ "total_writes" ], Some (Json.int 4));
      ([ "pages_tracked" ], Some (Json.int 2));
      ([ "subsystems"; "app" ], totals 3 175);
      ([ "subsystems"; "nvm.journal" ], totals 1 64);
    ];
  check_bool "json has the owner" true
    (match field [ "top" ] with
    | Some (Json.Arr pages) ->
      List.exists (fun p -> Json.member "owner" p = Some (Json.Str "runtime/kv/pmo7")) pages
    | _ -> false);
  (* reset clears everything *)
  Wearmap.reset wm;
  check_int "reset totals" 0 (Wearmap.total_bytes wm);
  check_int "reset pages" 0 (Wearmap.pages_tracked wm);
  check_int "reset subsystems" 0 (List.length (Wearmap.subsystems wm))

(* ---- whole-system behaviour ---- *)

let waf_in_report () =
  let sys = System.boot () in
  let app = Kv_app.launch ~keys_hint:1_000 sys Kv_app.Memcached in
  for i = 0 to 199 do
    Kv_app.set_i app i
  done;
  let r1 = System.checkpoint sys in
  check_bool "first full checkpoint writes NVM" true (r1.Report.nvm_bytes_written > 0);
  check_bool "logical dirty positive" true (r1.Report.logical_dirty_bytes > 0);
  check_bool "waf >= 1 on the full walk" true (Report.waf r1 >= 1.0);
  (* quiescent incremental checkpoint: almost nothing dirty *)
  let r2 = System.checkpoint sys in
  check_bool "quiescent checkpoint writes less" true
    (r2.Report.nvm_bytes_written < r1.Report.nvm_bytes_written);
  (* the interval watermark makes per-checkpoint bytes sum to the total *)
  let wm = System.wearmap sys in
  check_bool "watermark consistent" true
    (Wearmap.total_bytes wm >= r1.Report.nvm_bytes_written + r2.Report.nvm_bytes_written)

let attribution_survives_midckpt_crash () =
  let sys = System.boot () in
  let app = Kv_app.launch ~keys_hint:2_000 sys Kv_app.Memcached in
  for i = 0 to 499 do
    Kv_app.set_i app i
  done;
  ignore (System.checkpoint sys);
  for i = 0 to 499 do
    Kv_app.set_i app (i * 3 mod 2_000)
  done;
  let wm = System.wearmap sys in
  let bytes_before = Wearmap.total_bytes wm in
  let app_before = Wearmap.subsystem_bytes wm "app" in
  check_bool "app writes attributed" true (app_before > 0);
  (* a fresh process guarantees the incremental walk has dirty objects *)
  ignore (Kernel.create_process (System.kernel sys) ~name:"dirty" ~threads:1 ~prio:5);
  (* power failure in the middle of the capability-tree walk: the first
     dirty object visited pulls the plug *)
  Crash_site.arm (Store.crash_sites (System.store sys)) ~site:"ckpt.captree.obj" ~nth:1;
  (match System.checkpoint sys with
  | _ -> Alcotest.fail "armed checkpoint did not crash"
  | exception Warea.Crashed _ -> ());
  System.crash sys;
  ignore (System.recover sys);
  (* the wear tables model eternal-PMO state: monotone, never rolled back *)
  check_bool "totals monotone across crash/restore" true
    (Wearmap.total_bytes wm >= bytes_before);
  check_int "app attribution survives" app_before (Wearmap.subsystem_bytes wm "app");
  check_int "no unattributed writes" 0 (Wearmap.subsystem_bytes wm Wearmap.unattributed);
  (* accounting closure: every byte in the grand total is attributed *)
  check_int "subsystem bytes sum to total" (Wearmap.total_bytes wm)
    (List.fold_left (fun a (_, _, b) -> a + b) 0 (Wearmap.subsystems wm));
  (* the aborted walk's writer context unwound with the exception *)
  check_string "writer stack empty after injected crash" Wearmap.unattributed
    (Wearmap.current_writer wm);
  (* and the system is healthy enough to checkpoint again *)
  let r = System.checkpoint sys in
  check_bool "post-restore checkpoint commits" true (r.Report.version > 0)

let wear_backing_audited () =
  let sys = System.boot () in
  System.ensure_wear_backing sys;
  System.ensure_wear_backing sys (* idempotent *);
  ignore (System.checkpoint sys);
  let rep = System.audit ~wear:Audit.default_wear_thresholds sys in
  check_int "audit errors" 0 (Audit.errors rep);
  check_bool "backing pmo recorded once" true
    (List.map fst (Probe.backings (System.obs sys)) = [ "wear" ]);
  ignore (System.crash_and_recover sys);
  let rep2 = System.audit sys in
  check_int "audit errors post-restore" 0 (Audit.errors rep2)

let () =
  Alcotest.run "wear"
    [
      ( "device",
        [
          Alcotest.test_case "zero_page edges" `Quick device_zero_page_edges;
          Alcotest.test_case "copy_page edges" `Quick device_copy_page_edges;
          Alcotest.test_case "pages_touched across crash" `Quick pages_touched_crash_accounting;
        ] );
      ( "wearmap",
        [
          Alcotest.test_case "writer context stack" `Quick writer_context_stack;
          Alcotest.test_case "skew and gini" `Quick skew_and_gini;
          Alcotest.test_case "export round trip" `Quick export_round_trip;
        ] );
      ( "system",
        [
          Alcotest.test_case "waf in report" `Quick waf_in_report;
          Alcotest.test_case "attribution survives mid-ckpt crash" `Quick
            attribution_survives_midckpt_crash;
          Alcotest.test_case "wear backing audited" `Quick wear_backing_audited;
        ] );
    ]
