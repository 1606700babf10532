(* Tests for the NVM state auditor (slsfsck): a clean system audits
   green, and each injected fault — a backup stamped above the committed
   version, an orphaned CPP half, a leaked buddy block, a buddy order
   record outside the managed pages, rollback state on
   an eternal PMO, an eternal PMO missing from the root cap group, a
   normal PMO registered as an observability backing, a change the dirty
   log never saw, an ORoot the GC missed —
   yields exactly the expected violation, and the states a GC has yet to
   clean up (exited processes, a dead PMO's fresh pages) audit clean.
   Also pins the Report.pp format (every field, including per_kind_ns). *)

module System = Treesls.System
module Kernel = Treesls_kernel.Kernel
module Kobj = Treesls_cap.Kobj
module Store = Treesls_nvm.Store
module Buddy = Treesls_nvm.Buddy
module Manager = Treesls_ckpt.Manager
module State = Treesls_ckpt.State
module Oroot = Treesls_ckpt.Oroot
module Ckpt_page = Treesls_ckpt.Ckpt_page
module Report = Treesls_ckpt.Report
module Eidetic = Treesls_ckpt.Eidetic
module Audit = Treesls_audit.Audit
module Probe = Treesls_obs.Probe
module Census = Treesls_audit.Nvm_census
module Ring = Treesls_extsync.Ring

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let setup () =
  let sys = System.boot () in
  let k = System.kernel sys in
  let proc = Kernel.create_process k ~name:"subject" ~threads:1 ~prio:5 in
  let vpn = Kernel.grow_heap k proc ~pages:2 in
  let region = List.nth proc.Kernel.vms.Kobj.vs_regions 2 in
  let pmo_id = region.Kobj.vr_pmo.Kobj.pmo_id in
  let psz = (Kernel.cost k).Treesls_sim.Cost.page_size in
  (sys, k, proc, vpn, pmo_id, psz)

let write_epoch sys k proc vpn psz epoch =
  Kernel.write_bytes k proc ~vaddr:(vpn * psz) (Bytes.of_string epoch);
  ignore (System.checkpoint sys)

let find_cp sys pmo_id pno =
  let st = Manager.state (System.manager sys) in
  let oroot = Option.get (State.find_oroot st pmo_id) in
  match Ckpt_page.find (Oroot.pages_exn oroot) pno with
  | Some cp -> cp
  | None -> Alcotest.fail "no checkpointed-page record"

(* The one [violation] in [r] (count pinned first so an unexpected extra
   violation fails loudly with its own message). *)
let the_violation r =
  (match r.Audit.violations with
  | [ _ ] -> ()
  | vs ->
    Alcotest.failf "expected exactly 1 violation, got %d:@\n%a" (List.length vs)
      (Format.pp_print_list Audit.pp_violation)
      vs);
  List.hd r.Audit.violations

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* ---- clean systems audit green ---- *)

let clean_system_audits_ok () =
  let sys, k, proc, vpn, _, psz = setup () in
  List.iter (write_epoch sys k proc vpn psz) [ "e1"; "e2"; "e3" ];
  let r = System.audit sys in
  check_bool "clean before crash" true (Audit.ok r);
  check_bool "objects walked" true (r.Audit.objects_checked > 0);
  check_bool "pages walked" true (r.Audit.pages_checked > 0);
  let _ = System.crash_and_recover sys in
  let r = System.audit sys in
  check_bool "clean after restore" true (Audit.ok r);
  let snap = System.metrics_snapshot sys in
  match List.assoc_opt "audit.runs" snap.Treesls_obs.Metrics.counters with
  | Some n -> check_int "audit.runs counted" 2 n
  | None -> Alcotest.fail "audit.runs counter missing"

(* ---- fault injection: backup version stamped above committed ---- *)

let flipped_backup_version_detected () =
  let sys, k, proc, vpn, pmo_id, psz = setup () in
  write_epoch sys k proc vpn psz "golden";
  (* dirty the page so a CoW backup (b1) exists *)
  Kernel.write_bytes k proc ~vaddr:(vpn * psz) (Bytes.of_string "dirty!");
  let cp = find_cp sys pmo_id 0 in
  check_bool "CoW backup exists" true (cp.Ckpt_page.b1 <> None);
  let g = Manager.version (System.manager sys) in
  cp.Ckpt_page.b1_ver <- g + 5;
  let r = System.audit sys in
  let v = the_violation r in
  check_bool "error severity" true (v.Audit.severity = Audit.Error);
  check_string "subsystem" "pages" (Audit.subsystem_name v.Audit.subsystem);
  check_bool "message" true (contains ~sub:"above committed" v.Audit.message);
  check_bool "locates the page" true (v.Audit.obj_id = Some pmo_id && v.Audit.pno = Some 0)

(* ---- fault injection: orphaned CPP half ---- *)

(* Drive a page hot (two CoW faults cross the active-list threshold), so
   a checkpoint migrates it NVM->DRAM and leaves a CPP record. *)
let find_cpp sys =
  let found = ref None in
  Manager.iter_oroots (System.manager sys) (fun oid o ->
      match o.Oroot.pages with
      | None -> ()
      | Some cps ->
        Ckpt_page.iter
          (fun pno cp ->
            if !found = None && cp.Ckpt_page.b1 <> None && cp.Ckpt_page.b2 <> None then
              found := Some (oid, pno, cp))
          cps);
  !found

let orphaned_cpp_half_detected () =
  let sys, k, proc, vpn, _, psz = setup () in
  for i = 1 to 5 do
    write_epoch sys k proc vpn psz (Printf.sprintf "hot%d" i)
  done;
  match find_cpp sys with
  | None -> Alcotest.fail "no page migrated to DRAM (no CPP record)"
  | Some (oid, pno, cp) ->
    check_bool "baseline clean" true (Audit.ok (System.audit sys));
    (* lose one half of the backup pair; free the frame first so the only
       violation is the missing half, not an allocator leak *)
    Store.free_page (System.store sys) (Option.get cp.Ckpt_page.b1);
    cp.Ckpt_page.b1 <- None;
    cp.Ckpt_page.b1_ver <- 0;
    let r = System.audit sys in
    let v = the_violation r in
    check_bool "error severity" true (v.Audit.severity = Audit.Error);
    check_string "message" "DRAM-cached page missing a CPP backup half" v.Audit.message;
    check_bool "locates the page" true (v.Audit.obj_id = Some oid && v.Audit.pno = Some pno)

(* ---- fault injection: leaked buddy block ---- *)

let leaked_buddy_block_detected () =
  let sys, k, proc, vpn, _, psz = setup () in
  write_epoch sys k proc vpn psz "steady";
  (* allocate behind every subsystem's back: nothing claims the block *)
  (match Buddy.alloc (Store.buddy (System.store sys)) ~order:0 with
  | Some _ -> ()
  | None -> Alcotest.fail "buddy exhausted");
  let r = System.audit sys in
  let v = the_violation r in
  check_bool "error severity" true (v.Audit.severity = Audit.Error);
  check_string "subsystem" "allocator" (Audit.subsystem_name v.Audit.subsystem);
  check_string "message" "live NVM block reachable from no subsystem (leak)" v.Audit.message;
  check_int "census counts the leak" 1 (Census.unaccounted_pages r.Audit.census)

(* ---- fault injection: an order record outside the managed pages ---- *)

(* Page 0's order word, in [Buddy]'s layout at the store's base 0 (order
   words from [2n]), set to tag [order + 1].  Tags past [log2 n + 1] name a
   block larger than the store, and a negative tag is no order at all:
   each must come back as an allocator error in the report, not as an
   exception out of the audit. *)
let bad_order_record_reported tag () =
  let sys = System.boot () in
  let store = System.store sys in
  check_bool "baseline clean" true (Audit.ok (System.audit sys));
  Treesls_nvm.Warea.commit (Store.warea store) ~desc:"corrupt"
    [ (2 * Store.nvm_pages_total store, tag) ];
  let v = the_violation (System.audit sys) in
  check_bool "error severity" true (v.Audit.severity = Audit.Error);
  check_string "subsystem" "allocator" (Audit.subsystem_name v.Audit.subsystem);
  check_bool "message" true (contains ~sub:"out of range" v.Audit.message)

(* ---- fault injection: rollback state on an eternal PMO ---- *)

let eternal_rollback_state_detected () =
  let sys = System.boot () in
  let k = System.kernel sys in
  let p = Kernel.make_eternal_pmo k ~pages:1 in
  ignore (System.checkpoint sys);
  check_bool "baseline clean" true (Audit.ok (System.audit sys));
  (* rebuild the eternal PMO's ORoot with a (forbidden) page table; the
     [pages] field is immutable, so the injection swaps the whole record
     in the table *)
  let st = Manager.state (System.manager sys) in
  let o = Option.get (State.find_oroot st p.Kobj.pmo_id) in
  let o' =
    Oroot.create ~obj_id:o.Oroot.obj_id ~kind:o.Oroot.kind ~version:o.Oroot.first_ver
      ~has_pages:true
  in
  o'.Oroot.slot_a <- o.Oroot.slot_a;
  o'.Oroot.slot_b <- o.Oroot.slot_b;
  o'.Oroot.runtime <- o.Oroot.runtime;
  st.State.oroots.(p.Kobj.pmo_id) <- Some o';
  let r = System.audit sys in
  let v = the_violation r in
  check_bool "error severity" true (v.Audit.severity = Audit.Error);
  check_string "subsystem" "eternal" (Audit.subsystem_name v.Audit.subsystem);
  check_string "message" "eternal PMO carries rollback page records" v.Audit.message;
  check_bool "locates the PMO" true (v.Audit.obj_id = Some p.Kobj.pmo_id)

(* ---- fault injection: an eternal PMO outside the root's slots ---- *)

(* [Kernel.make_eternal_pmo] installs every eternal PMO in the root cap
   group, and ring reattachment searches only the root's own slots: a
   ring reachable only through its process could not be reattached. *)
let eternal_outside_root_detected () =
  let sys, k, proc, _, _, _ = setup () in
  ignore (Ring.create k proc ~name:"outbox" ~slots:4 ~slot_size:64);
  ignore (System.checkpoint sys);
  check_bool "baseline clean" true (Audit.ok (System.audit sys));
  let ring_pmo =
    (List.find
       (fun r -> r.Kobj.vr_pmo.Kobj.pmo_kind = Kobj.Pmo_eternal)
       proc.Kernel.vms.Kobj.vs_regions)
      .Kobj.vr_pmo
  in
  let root = Kernel.root k in
  let slots = ref [] in
  Kobj.iter_caps
    (fun i c -> if Kobj.id c.Kobj.target = ring_pmo.Kobj.pmo_id then slots := i :: !slots)
    root;
  check_int "one root slot" 1 (List.length !slots);
  Kobj.revoke (Kernel.dirty_log k) root (List.hd !slots);
  let v = the_violation (System.audit sys) in
  check_bool "error severity" true (v.Audit.severity = Audit.Error);
  check_string "subsystem" "eternal" (Audit.subsystem_name v.Audit.subsystem);
  check_string "message" "eternal PMO holds no capability in the root cap group"
    v.Audit.message;
  check_bool "locates the PMO" true (v.Audit.obj_id = Some ring_pmo.Kobj.pmo_id)

(* ---- fault injection: a normal PMO registered as a backing ---- *)

(* Every observability backing is held to the same rule: a normal
   (rolled-back) PMO registered as the black box's backing is an
   eternal-PMO violation, just as it is for the trace ring's or the
   wearmap's. *)
let normal_pmo_backing_detected () =
  let sys, _, _, _, pmo_id, _ = setup () in
  ignore (System.checkpoint sys);
  check_bool "baseline clean" true (Audit.ok (System.audit sys));
  Probe.add_backing (System.obs sys) "tseries" pmo_id;
  let v = the_violation (System.audit sys) in
  check_bool "error severity" true (v.Audit.severity = Audit.Error);
  check_string "subsystem" "eternal" (Audit.subsystem_name v.Audit.subsystem);
  check_string "message" "tseries backing object is not an eternal PMO" v.Audit.message;
  check_bool "locates the PMO" true (v.Audit.obj_id = Some pmo_id)

(* ---- fault injection: edges written behind the live-tree cache ---- *)

(* A raw slot write skips [Kobj.install] and a raw region-list
   replacement skips [Kernel.add_region], so neither notes a shape change
   and the cache stays in use.  Only the auditor's traversal compare sees
   them; announced as those mutators do (the holder logged, a shape
   change noted), the cache is rebuilt at its next use. *)
let stale_live_tree_detected () =
  let sys, k, proc, _, _, _ = setup () in
  ignore (System.checkpoint sys);
  check_bool "baseline clean" true (Audit.ok (System.audit sys));
  let log = Kernel.dirty_log k in
  let detected what write announce =
    write ();
    let v = the_violation (System.audit sys) in
    check_bool (what ^ ": error severity") true (v.Audit.severity = Audit.Error);
    check_string (what ^ ": subsystem") "captree" (Audit.subsystem_name v.Audit.subsystem);
    check_bool (what ^ ": message") true (contains ~sub:"live-tree cache" v.Audit.message);
    Kobj.touch log announce;
    Treesls_cap.Dirty_log.note_shape_change log;
    check_bool (what ^ ": announced change audits clean") true (Audit.ok (System.audit sys));
    ignore (System.checkpoint sys);
    check_bool (what ^ ": rebuilt cache audits clean") true (Audit.ok (System.audit sys))
  in
  let g = proc.Kernel.cg in
  detected "raw slot write"
    (fun () ->
      let slot =
        let rec free i = if g.Kobj.cg_slots.(i) = None then i else free (i + 1) in
        free 0
      in
      let stray = Kobj.make_notification ~id:(Treesls_cap.Id_gen.next (Kernel.ids k)) in
      g.Kobj.cg_slots.(slot) <-
        Some { Kobj.target = Kobj.Notification stray; rights = Treesls_cap.Rights.full })
    (Kobj.Cap_group g);
  let vms = proc.Kernel.vms in
  detected "raw region-list replacement"
    (fun () ->
      let id = Treesls_cap.Id_gen.next (Kernel.ids k) in
      let pmo = Kobj.make_pmo ~id ~pages:1 ~kind:Kobj.Pmo_normal in
      vms.Kobj.vs_regions <-
        vms.Kobj.vs_regions
        @ [ { Kobj.vr_vpn = 4096; vr_pages = 1; vr_pmo = pmo; vr_writable = true } ])
    (Kobj.Vmspace vms)

(* ---- fault injection: a change the dirty log never saw ---- *)

(* The walk visits only logged objects once its cache is built: a field
   written without [Kobj.touch] would stay out of every later checkpoint.
   Only the log-coverage check sees it, by comparing each unlogged
   entry's state with its ORoot's newest snapshot. *)
let unlogged_change_detected () =
  let sys, k, proc, _, _, _ = setup () in
  let n = Kernel.create_notification k proc in
  ignore (System.checkpoint sys);
  check_bool "baseline clean" true (Audit.ok (System.audit sys));
  n.Kobj.nt_count <- 5;
  let v = the_violation (System.audit sys) in
  check_bool "error severity" true (v.Audit.severity = Audit.Error);
  check_string "subsystem" "captree" (Audit.subsystem_name v.Audit.subsystem);
  check_bool "message" true (contains ~sub:"not in the dirty log" v.Audit.message);
  let st = Manager.state (System.manager sys) in
  let saved_count () =
    match Oroot.latest_le (Option.get (State.find_oroot st n.Kobj.nt_id)) ~version:max_int with
    | Some (_, Treesls_ckpt.Snapshot.S_notif { count; _ }) -> count
    | Some _ | None -> Alcotest.fail "no notification snapshot"
  in
  ignore (System.checkpoint sys);
  check_int "the walk misses the unlogged change" 0 (saved_count ());
  (* logged, the change is checkpointed and the audit is clean again *)
  Kobj.touch (Kernel.dirty_log k) (Kobj.Notification n);
  ignore (System.checkpoint sys);
  check_int "the logged change is saved" 5 (saved_count ());
  check_bool "logged change audits clean" true (Audit.ok (System.audit sys))

(* ---- the GC's own invariant: no ORoot outside its live set ---- *)

(* An exited process leaves ORoots behind until the next commit's GC; they
   are all in the tree that GC will run against, which is the tree the
   last one ran against, so they are not a fault, however long ago their
   objects were last walked. *)
let exited_process_audits_clean () =
  let sys = System.boot () in
  let k = System.kernel sys in
  let p = Kernel.create_process k ~name:"brief" ~threads:1 ~prio:5 in
  ignore (System.checkpoint sys);
  let r = System.checkpoint sys in
  check_bool "the second checkpoint skips the process" true (r.Report.objects_skipped > 0);
  Kernel.exit_process k p;
  let r = System.audit sys in
  if not (Audit.ok r) then Alcotest.failf "exited process:@\n%a" Audit.pp r;
  ignore (System.checkpoint sys);
  check_bool "its ORoots are collected" true
    (Manager.find_oroot (System.manager sys) p.Kernel.pid = None);
  check_bool "clean after the next commit" true (Audit.ok (System.audit sys))

(* An ORoot planted after a commit, for an id outside the live set that
   commit's GC ran against, is one the GC missed. *)
let missed_oroot_detected () =
  let sys = System.boot () in
  let k = System.kernel sys in
  ignore (System.checkpoint sys);
  check_bool "baseline clean" true (Audit.ok (System.audit sys));
  let st = Manager.state (System.manager sys) in
  let n = Kobj.make_notification ~id:(Treesls_cap.Id_gen.next (Kernel.ids k)) in
  let o, fresh = State.oroot_for st (Kobj.Notification n) ~version:(System.version sys) in
  check_bool "planted" true fresh;
  o.Oroot.runtime <- Some (Kobj.Notification n);
  Oroot.save o ~version:(System.version sys) (Treesls_ckpt.Snapshot.take (Kobj.Notification n));
  let v = the_violation (System.audit sys) in
  check_bool "warning severity" true (v.Audit.severity = Audit.Warning);
  check_string "subsystem" "captree" (Audit.subsystem_name v.Audit.subsystem);
  check_bool "message" true (contains ~sub:"missed by GC" v.Audit.message);
  check_bool "locates the ORoot" true (v.Audit.obj_id = Some n.Kobj.nt_id)

(* ---- a dead PMO's fresh pages ---- *)

(* A page a PMO gained after its last walk, or a PMO born after the last
   walk, has no page record; when its process exits, only the PMO's
   pending-fresh note names the frame until the next commit's GC frees
   it.  The auditor and the census count it as the GC will free it. *)
let dead_fresh_pages_claimed () =
  let audited what sys =
    let r = System.audit sys in
    if not (Audit.ok r) then Alcotest.failf "%s:@\n%a" what Audit.pp r;
    check_int (what ^ ": census unaccounted") 0 (Census.unaccounted_pages r.Audit.census)
  in
  let sys = System.boot () in
  let k = System.kernel sys in
  (* a heap grown and written after the process's last walk *)
  let p = Kernel.create_process k ~name:"late" ~threads:1 ~prio:5 in
  ignore (System.checkpoint sys);
  Kernel.touch_write k p ~vpn:(Kernel.grow_heap k p ~pages:1);
  Kernel.exit_process k p;
  audited "grown after the last walk" sys;
  ignore (System.checkpoint sys);
  audited "grown after the last walk, collected" sys;
  (* a process spawned and exited between two walks *)
  let p = Kernel.create_process k ~name:"brief" ~threads:1 ~prio:5 in
  Kernel.touch_write k p ~vpn:(Kernel.grow_heap k p ~pages:1);
  Kernel.exit_process k p;
  audited "born and dead between walks" sys;
  ignore (System.checkpoint sys);
  audited "born and dead between walks, collected" sys

(* ---- census ---- *)

let census_balances () =
  let sys, k, proc, vpn, _, psz = setup () in
  List.iter (write_epoch sys k proc vpn psz) [ "c1"; "c2" ];
  let c = System.nvm_census sys in
  check_int "no unaccounted pages" 0 (Census.unaccounted_pages c);
  check_bool "runtime pages counted" true (c.Census.runtime_pages > 0);
  check_bool "cp records counted" true (c.Census.cp_records > 0);
  check_int "accounted = total - free" (c.Census.total_pages - c.Census.free_pages)
    (Census.accounted_pages c);
  let d = Census.diff c c in
  check_int "self-diff runtime" 0 d.Census.runtime_pages;
  check_int "self-diff free" 0 d.Census.free_pages;
  check_int "self-diff snapshot bytes" 0 d.Census.snapshot_bytes

(* ---- cross-version diff explorer ---- *)

let diff_explorer () =
  let sys, k, proc, vpn, pmo_id, psz = setup () in
  let eid = Eidetic.attach ~max_versions:8 (System.manager sys) in
  write_epoch sys k proc vpn psz "aa";
  write_epoch sys k proc vpn psz "bb";
  let d = Audit.diff (System.manager sys) eid ~from_version:1 ~to_version:2 in
  check_int "from" 1 d.Audit.from_version;
  check_int "to" 2 d.Audit.to_version;
  check_bool "written pmo is mutated" true
    (List.exists
       (fun (id, _, c) -> id = pmo_id && c = Audit.Mutated)
       d.Audit.objects);
  (match List.find_opt (fun (id, pno, _) -> id = pmo_id && pno = 0) d.Audit.pages with
  | None -> Alcotest.fail "changed page not listed"
  | Some (_, _, cls) ->
    check_bool "page class known at the committed version" true (cls <> Audit.Unknown));
  Alcotest.check_raises "unarchived version rejected"
    (Invalid_argument "Audit.diff: version 99 not archived") (fun () ->
      ignore (Audit.diff (System.manager sys) eid ~from_version:99 ~to_version:2))

let diff_sees_added_objects () =
  let sys = System.boot () in
  let eid = Eidetic.attach ~max_versions:8 (System.manager sys) in
  ignore (System.checkpoint sys);
  let k = System.kernel sys in
  let p = Kernel.create_process k ~name:"newcomer" ~threads:1 ~prio:5 in
  ignore (System.checkpoint sys);
  let d = Audit.diff (System.manager sys) eid ~from_version:1 ~to_version:2 in
  check_bool "new process's cap group added" true
    (List.exists (fun (id, _, c) -> id = p.Kernel.pid && c = Audit.Added) d.Audit.objects)

(* ---- Report.pp: every field pinned ---- *)

let report_pp_pinned () =
  check_string "zero report"
    "ckpt v0: stw=0.0us (ipi=0.0 captree=0.0 others=0.0 | hybrid=0.0) objs=0(full 0) \
     skip=0 ro=0 sc=0 mig=+0/-0 cached=0 snap=0B nvm=0B/0B waf=0.00 drain=0/0.0us cowf=0"
    (Format.asprintf "%a" Report.pp Report.zero);
  let r =
    {
      Report.version = 7;
      stw_ns = 12_400;
      ipi_ns = 1_000;
      captree_ns = 8_000;
      others_ns = 400;
      hybrid_ns = 9_500;
      per_kind_ns = [ (Kobj.Pmo_k, 4_200); (Kobj.Thread_k, 800); (Kobj.Cap_group_k, 1_500) ];
      groups =
        Report.groups_of_list
          [
            ("shell", { Report.g_ns = 1_200; g_objects = 9; g_kinds = [ (Kobj.Pmo_k, 1_200) ] });
            ("memcached", { Report.g_ns = 5_100; g_objects = 20; g_kinds = [] });
          ];
      objects_walked = 42;
      full_objects = 5;
      objects_skipped = 78;
      pages_protected = 17;
      dram_dirty_copied = 3;
      migrated_in = 2;
      migrated_out = 1;
      cached_pages = 64;
      snapshot_bytes = 2_048;
      nvm_bytes_written = 163_840;
      logical_dirty_bytes = 81_920;
      pages_drained = 6;
      cow_faults = 2;
      drain_ns = 4_300;
    }
  in
  (* per_kind_ns prints sorted by kind name, per_group costliest-first,
     independent of walk order *)
  check_string "full report"
    "ckpt v7: stw=12.4us (ipi=1.0 captree=8.0 others=0.4 | hybrid=9.5) objs=42(full 5) \
     skip=78 ro=17 sc=3 mig=+2/-1 cached=64 snap=2048B nvm=163840B/81920B waf=2.00 \
     drain=6/4.3us cowf=2 kinds=[Cap Group=1500ns; PMO=4200ns; Thread=800ns] \
     groups=[memcached=5100ns/20; shell=1200ns/9]"
    (Format.asprintf "%a" Report.pp r);
  (* folded flamegraph lines: frames never contain spaces; unattributed
     captree remainder keeps the stacks summing to the phase totals *)
  Alcotest.(check (list string))
    "folded lines"
    [
      "ckpt;ipi 1000";
      "ckpt;captree;memcached 5100";
      "ckpt;captree;shell;PMO 1200";
      "ckpt;captree;unattributed 1700";
      "ckpt;others 400";
      "ckpt;hybrid_copy 9500";
    ]
    (Report.folded_lines r)

let () =
  Alcotest.run "audit"
    [
      ( "audit",
        [
          Alcotest.test_case "clean system audits ok" `Quick clean_system_audits_ok;
          Alcotest.test_case "flipped backup version detected" `Quick
            flipped_backup_version_detected;
          Alcotest.test_case "orphaned CPP half detected" `Quick orphaned_cpp_half_detected;
          Alcotest.test_case "leaked buddy block detected" `Quick leaked_buddy_block_detected;
          Alcotest.test_case "order record 18 reported" `Quick (bad_order_record_reported 18);
          Alcotest.test_case "order record 40 reported" `Quick (bad_order_record_reported 40);
          Alcotest.test_case "order record 64 reported" `Quick (bad_order_record_reported 64);
          Alcotest.test_case "order record -1 reported" `Quick (bad_order_record_reported (-1));
          Alcotest.test_case "eternal rollback state detected" `Quick
            eternal_rollback_state_detected;
          Alcotest.test_case "stale live-tree cache detected" `Quick stale_live_tree_detected;
          Alcotest.test_case "eternal PMO outside the root detected" `Quick
            eternal_outside_root_detected;
          Alcotest.test_case "normal PMO as tseries backing detected" `Quick
            normal_pmo_backing_detected;
          Alcotest.test_case "exited process audits clean" `Quick exited_process_audits_clean;
          Alcotest.test_case "stale ORoot missed by GC detected" `Quick missed_oroot_detected;
          Alcotest.test_case "a dead PMO's fresh pages are claimed" `Quick
            dead_fresh_pages_claimed;
          Alcotest.test_case "unlogged change detected" `Quick unlogged_change_detected;
        ] );
      ( "census",
        [ Alcotest.test_case "census balances" `Quick census_balances ] );
      ( "diff",
        [
          Alcotest.test_case "diff explorer" `Quick diff_explorer;
          Alcotest.test_case "diff sees added objects" `Quick diff_sees_added_objects;
        ] );
      ( "report",
        [ Alcotest.test_case "pp pins every field" `Quick report_pp_pinned ] );
    ]
