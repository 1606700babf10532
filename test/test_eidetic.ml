(* Tests for the eidetic extension (§8) and the kernel's capability
   derivation + IRQ delivery paths. *)

module System = Treesls.System
module Kernel = Treesls_kernel.Kernel
module Kobj = Treesls_cap.Kobj
module Rights = Treesls_cap.Rights
module Eidetic = Treesls_ckpt.Eidetic
module Snapshot = Treesls_ckpt.Snapshot

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

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

(* ---- eidetic ---- *)

let eidetic_page_history () =
  let sys, k, proc, vpn, pmo_id, psz = setup () in
  let eid = Eidetic.attach ~max_versions:8 (System.manager sys) in
  List.iter (write_epoch sys k proc vpn psz) [ "v1data"; "v2data"; "v3data" ];
  List.iter
    (fun (v, expected) ->
      match Eidetic.page_at eid ~version:v ~pmo_id ~pno:0 with
      | Some b -> Alcotest.(check string) "epoch" expected (Bytes.to_string (Bytes.sub b 0 6))
      | None -> Alcotest.fail "missing page")
    [ (1, "v1data"); (2, "v2data"); (3, "v3data") ]

let eidetic_unmodified_page_carries_forward () =
  let sys, k, proc, vpn, pmo_id, psz = setup () in
  let eid = Eidetic.attach ~max_versions:8 (System.manager sys) in
  write_epoch sys k proc vpn psz "stable";
  (* two checkpoints with no writes: the page is not re-archived... *)
  ignore (System.checkpoint sys);
  ignore (System.checkpoint sys);
  (* ...but still readable at the later versions *)
  match Eidetic.page_at eid ~version:3 ~pmo_id ~pno:0 with
  | Some b -> Alcotest.(check string) "carried forward" "stable" (Bytes.to_string (Bytes.sub b 0 6))
  | None -> Alcotest.fail "page lost across clean checkpoints"

let eidetic_object_history () =
  let sys = System.boot () in
  let eid = Eidetic.attach ~max_versions:8 (System.manager sys) in
  let k = System.kernel sys in
  let p = Kernel.create_process k ~name:"subject" ~threads:1 ~prio:5 in
  let n = Kernel.create_notification k p in
  (* raw field writes bypass the kernel mutators, so bump the generation
     by hand or the incremental walk will (correctly) skip the object *)
  n.Kobj.nt_count <- 1;
  Kobj.touch (Kobj.Notification n);
  ignore (System.checkpoint sys);
  n.Kobj.nt_count <- 2;
  Kobj.touch (Kobj.Notification n);
  ignore (System.checkpoint sys);
  let count_at v =
    match Eidetic.object_at eid ~version:v ~obj_id:n.Kobj.nt_id with
    | Some (Snapshot.S_notif s) -> s.count
    | Some _ | None -> -1
  in
  check_int "count at v1" 1 (count_at 1);
  check_int "count at v2" 2 (count_at 2)

let eidetic_window_prunes () =
  let sys, k, proc, vpn, pmo_id, psz = setup () in
  let eid = Eidetic.attach ~max_versions:3 (System.manager sys) in
  for i = 1 to 6 do
    write_epoch sys k proc vpn psz (Printf.sprintf "e%d" i)
  done;
  let vs = Eidetic.versions eid in
  check_int "window size" 3 (List.length vs);
  Alcotest.(check (list int)) "newest kept" [ 4; 5; 6 ] vs;
  check_bool "old version evicted" true
    (Eidetic.objects_at eid ~version:1 = []);
  (* pruned versions answer None for pages too, not stale data *)
  List.iter
    (fun v ->
      check_bool
        (Printf.sprintf "page at pruned v%d gone" v)
        true
        (Eidetic.page_at eid ~version:v ~pmo_id ~pno:0 = None))
    [ 1; 2; 3 ];
  check_bool "page at kept v4 readable" true
    (Eidetic.page_at eid ~version:4 ~pmo_id ~pno:0 <> None)

let eidetic_pruning_shrinks_stats () =
  let sys, k, proc, vpn, _, psz = setup () in
  let eid = Eidetic.attach ~max_versions:2 (System.manager sys) in
  write_epoch sys k proc vpn psz "p1";
  write_epoch sys k proc vpn psz "p2";
  let s2 = Eidetic.stats eid in
  check_int "window full" 2 s2.Eidetic.archived_versions;
  (* every later epoch evicts one version: the window stays at 2 and the
     archive's page bytes stop growing (eviction frees the old pages) *)
  write_epoch sys k proc vpn psz "p3";
  let s3 = Eidetic.stats eid in
  check_int "window capped" 2 s3.Eidetic.archived_versions;
  check_bool "page bytes bounded" true (s3.Eidetic.page_bytes <= s2.Eidetic.page_bytes)

let eidetic_dead_object_absent () =
  let sys = System.boot () in
  let eid = Eidetic.attach ~max_versions:8 (System.manager sys) in
  let k = System.kernel sys in
  let p = Kernel.create_process k ~name:"mortal" ~threads:1 ~prio:5 in
  ignore (System.checkpoint sys);
  Kernel.exit_process k p;
  ignore (System.checkpoint sys);
  check_bool "alive at v1" true (Eidetic.object_at eid ~version:1 ~obj_id:p.Kernel.pid <> None);
  check_bool "gone at v2" true (Eidetic.object_at eid ~version:2 ~obj_id:p.Kernel.pid = None)

let eidetic_diff () =
  let sys, k, proc, vpn, pmo_id, psz = setup () in
  let eid = Eidetic.attach ~max_versions:8 (System.manager sys) in
  write_epoch sys k proc vpn psz "a";
  ignore (System.checkpoint sys);
  (* v1 -> v2: nothing changed *)
  check_bool "clean interval diff small" true
    (not (List.mem pmo_id (Eidetic.diff_objects eid ~from_version:1 ~to_version:2)));
  write_epoch sys k proc vpn psz "b";
  check_bool "dirty interval diff has pmo" true
    (List.mem pmo_id (Eidetic.diff_objects eid ~from_version:2 ~to_version:3))

let eidetic_stats_grow () =
  let sys, k, proc, vpn, _, psz = setup () in
  let eid = Eidetic.attach ~max_versions:8 (System.manager sys) in
  write_epoch sys k proc vpn psz "x";
  let s1 = Eidetic.stats eid in
  write_epoch sys k proc vpn psz "y";
  let s2 = Eidetic.stats eid in
  check_bool "versions grow" true (s2.Eidetic.archived_versions > s1.Eidetic.archived_versions);
  check_bool "page bytes grow" true (s2.Eidetic.page_bytes > s1.Eidetic.page_bytes)

let eidetic_detach_stops () =
  let sys, k, proc, vpn, _, psz = setup () in
  let eid = Eidetic.attach ~max_versions:8 (System.manager sys) in
  write_epoch sys k proc vpn psz "x";
  Eidetic.detach eid;
  write_epoch sys k proc vpn psz "y";
  check_int "no new versions" 1 (List.length (Eidetic.versions eid))

(* ---- data reliability (§8): corruption detection + archive repair ---- *)

module Store = Treesls_nvm.Store
module Restore = Treesls_ckpt.Restore
module Ckpt_page = Treesls_ckpt.Ckpt_page
module Oroot = Treesls_ckpt.Oroot
module Manager = Treesls_ckpt.Manager
module State = Treesls_ckpt.State

(* Find the CoW backup frame of page 0 of the process's heap PMO. *)
let backup_frame sys pmo_id =
  let st = Manager.state (System.manager sys) in
  let oroot = Hashtbl.find st.State.oroots pmo_id in
  match Ckpt_page.find (Oroot.pages_exn oroot) 0 with
  | Some cp -> cp.Ckpt_page.b1
  | None -> None

let corruption_detected () =
  let sys, k, proc, vpn, pmo_id, psz = setup () in
  Store.set_checksums (System.store sys) true;
  Kernel.write_bytes k proc ~vaddr:(vpn * psz) (Bytes.of_string "golden");
  ignore (System.checkpoint sys);
  (* modify after the checkpoint so a CoW backup (the restore source) exists *)
  Kernel.write_bytes k proc ~vaddr:(vpn * psz) (Bytes.of_string "dirty!");
  let frame = Option.get (backup_frame sys pmo_id) in
  check_bool "backup sealed" true (Store.is_sealed (System.store sys) frame);
  (* flip bits in the sealed backup: media corruption *)
  Store.corrupt_page (System.store sys) frame;
  System.crash sys;
  check_bool "corruption detected at restore" true
    (try
       ignore (System.recover sys);
       false
     with Restore.Corrupt_backup { pno; _ } -> pno = 0)

(* The integrity pre-pass runs whenever the seal table is non-empty, not
   when checksums are switched on: a backup sealed before the switch went
   off is still verified, and still before recovery mutates anything. *)
let corruption_detected_after_checksums_off () =
  let sys, k, proc, vpn, pmo_id, psz = setup () in
  let store = System.store sys in
  Store.set_checksums store true;
  Kernel.write_bytes k proc ~vaddr:(vpn * psz) (Bytes.of_string "golden");
  ignore (System.checkpoint sys);
  Kernel.write_bytes k proc ~vaddr:(vpn * psz) (Bytes.of_string "dirty!");
  let frame = Option.get (backup_frame sys pmo_id) in
  Store.set_checksums store false;
  check_bool "backup still sealed" true (Store.is_sealed store frame);
  Store.corrupt_page store frame;
  System.crash sys;
  let st = Manager.state (System.manager sys) in
  let free0 = Store.nvm_pages_free store and oroots0 = Hashtbl.length st.State.oroots in
  (match System.recover sys with
  | _ -> Alcotest.fail "corruption not detected"
  | exception Restore.Corrupt_backup { pmo_id = id; pno; paddr } ->
    check_int "corrupt PMO" pmo_id id;
    check_int "corrupt page" 0 pno;
    check_bool "corrupt frame" true (Treesls_nvm.Paddr.equal paddr frame));
  check_int "no frame freed" free0 (Store.nvm_pages_free store);
  check_int "no ORoot dropped" oroots0 (Hashtbl.length st.State.oroots);
  check_bool "crashed tree kept for a retry" true (st.State.crashed_root <> None)

let corruption_repaired_from_archive () =
  let sys, k, proc, vpn, pmo_id, psz = setup () in
  Store.set_checksums (System.store sys) true;
  let eid = Eidetic.attach ~max_versions:8 (System.manager sys) in
  Kernel.write_bytes k proc ~vaddr:(vpn * psz) (Bytes.of_string "golden");
  ignore (System.checkpoint sys);
  Kernel.write_bytes k proc ~vaddr:(vpn * psz) (Bytes.of_string "dirty!");
  let frame = Option.get (backup_frame sys pmo_id) in
  let store = System.store sys in
  Store.corrupt_page store frame;
  System.crash sys;
  (match
     (try
        ignore (System.recover sys);
        None
      with Restore.Corrupt_backup { pmo_id; pno; paddr } -> Some (pmo_id, pno, paddr))
   with
  | None -> Alcotest.fail "corruption not detected"
  | Some (pmo_id, pno, paddr) ->
    (* repair: rewrite the frame from the eidetic archive and re-seal *)
    let golden = Option.get (Eidetic.page_at eid ~version:1 ~pmo_id ~pno) in
    Bytes.blit golden 0 (Store.page_bytes store paddr) 0 (Bytes.length golden);
    Store.seal_page store paddr;
    (* retry: the crash-time tree is gone after the failed attempt, but the
       store-level recovery is idempotent and the backup now verifies *)
    ignore (System.recover sys));
  let k = System.kernel sys in
  let proc = Option.get (Kernel.find_process k ~name:"subject") in
  Alcotest.(check string) "repaired content restored" "golden"
    (Bytes.to_string (Kernel.read_bytes k proc ~vaddr:(vpn * psz) ~len:6))

(* ---- capability derivation ---- *)

let grant_shrinks_rights () =
  let sys = System.boot () in
  let k = System.kernel sys in
  let a = Kernel.create_process k ~name:"granter" ~threads:1 ~prio:5 in
  let b = Kernel.create_process k ~name:"grantee" ~threads:1 ~prio:5 in
  let n = Kernel.create_notification k a in
  (* the notification cap was installed with full rights; find its slot *)
  let slot = ref (-1) in
  Kobj.iter_caps
    (fun s c -> if Kobj.id c.Kobj.target = n.Kobj.nt_id then slot := s)
    a.Kernel.cg;
  let read_grant = { Rights.read = true; write = false; exec = false; grant = true } in
  let dst = Kernel.grant k ~from_proc:a ~to_proc:b ~slot:!slot ~rights:read_grant in
  (match Kobj.lookup b.Kernel.cg dst with
  | Some c ->
    check_bool "same object" true (Kobj.id c.Kobj.target = n.Kobj.nt_id);
    check_bool "attenuated" true (c.Kobj.rights = read_grant)
  | None -> Alcotest.fail "grant did not install");
  (* rights may not grow, even with the grant right in hand *)
  Alcotest.check_raises "cannot amplify"
    (Invalid_argument "Kernel.grant: rights may only shrink") (fun () ->
      ignore
        (Kernel.grant k ~from_proc:b ~to_proc:a ~slot:dst ~rights:Rights.full))

let grant_requires_grant_right () =
  let sys = System.boot () in
  let k = System.kernel sys in
  let a = Kernel.create_process k ~name:"granter2" ~threads:1 ~prio:5 in
  let b = Kernel.create_process k ~name:"grantee2" ~threads:1 ~prio:5 in
  let n = Kernel.create_notification k a in
  let slot = ref (-1) in
  Kobj.iter_caps (fun s c -> if Kobj.id c.Kobj.target = n.Kobj.nt_id then slot := s) a.Kernel.cg;
  let dst = Kernel.grant k ~from_proc:a ~to_proc:b ~slot:!slot ~rights:Rights.rw in
  (* rw lacks grant: b cannot re-grant *)
  Alcotest.check_raises "no grant right"
    (Invalid_argument "Kernel.grant: source capability lacks the grant right") (fun () ->
      ignore (Kernel.grant k ~from_proc:b ~to_proc:a ~slot:dst ~rights:Rights.read_only))

let granted_cap_survives_crash () =
  let sys = System.boot () in
  let k = System.kernel sys in
  let a = Kernel.create_process k ~name:"granter3" ~threads:1 ~prio:5 in
  let b = Kernel.create_process k ~name:"grantee3" ~threads:1 ~prio:5 in
  let n = Kernel.create_notification k a in
  let slot = ref (-1) in
  Kobj.iter_caps (fun s c -> if Kobj.id c.Kobj.target = n.Kobj.nt_id then slot := s) a.Kernel.cg;
  let dst = Kernel.grant k ~from_proc:a ~to_proc:b ~slot:!slot ~rights:Rights.read_only in
  ignore (System.checkpoint sys);
  let _ = System.crash_and_recover sys in
  let k = System.kernel sys in
  let b = Option.get (Kernel.find_process k ~name:"grantee3") in
  match Kobj.lookup b.Kernel.cg dst with
  | Some c ->
    check_bool "object identity preserved" true (Kobj.id c.Kobj.target = n.Kobj.nt_id);
    check_bool "rights preserved" true (c.Kobj.rights = Rights.read_only);
    (* shared: the restored object is the SAME OCaml object in both trees *)
    let a = Option.get (Kernel.find_process k ~name:"granter3") in
    let in_a = ref None in
    Kobj.iter_caps
      (fun _ c' -> if Kobj.id c'.Kobj.target = n.Kobj.nt_id then in_a := Some c'.Kobj.target)
      a.Kernel.cg;
    (match (!in_a, c.Kobj.target) with
    | Some (Kobj.Notification x), Kobj.Notification y -> check_bool "physically shared" true (x == y)
    | _ -> Alcotest.fail "notification lost")
  | None -> Alcotest.fail "granted cap lost across crash"

(* ---- IRQ delivery ---- *)

let irq_pending_accumulates () =
  let sys = System.boot () in
  let k = System.kernel sys in
  let drv = Kernel.create_process k ~name:"driver" ~threads:1 ~prio:5 in
  let irq = Kernel.create_irq k drv ~line:11 in
  Kernel.raise_irq k irq;
  Kernel.raise_irq k irq;
  check_int "two pending" 2 irq.Kobj.irq_pending;
  let th = List.hd drv.Kernel.threads in
  check_bool "consume 1" true (Kernel.wait_irq k irq th);
  check_bool "consume 2" true (Kernel.wait_irq k irq th);
  check_bool "blocks on empty" false (Kernel.wait_irq k irq th)

let irq_wakes_blocked_thread () =
  let sys = System.boot () in
  let k = System.kernel sys in
  let drv = Kernel.create_process k ~name:"driver" ~threads:1 ~prio:5 in
  let irq = Kernel.create_irq k drv ~line:11 in
  let th = List.hd drv.Kernel.threads in
  check_bool "blocks" false (Kernel.wait_irq k irq th);
  Kernel.raise_irq k irq;
  check_bool "woken" true (th.Kobj.th_state = Kobj.Ready);
  check_int "interrupt consumed by wake" 0 irq.Kobj.irq_pending

let irq_state_survives_crash () =
  let sys = System.boot () in
  let k = System.kernel sys in
  let drv = Kernel.create_process k ~name:"driver" ~threads:1 ~prio:5 in
  let irq = Kernel.create_irq k drv ~line:7 in
  Kernel.raise_irq k irq;
  ignore (System.checkpoint sys);
  Kernel.raise_irq k irq;
  let _ = System.crash_and_recover sys in
  let k = System.kernel sys in
  let drv = Option.get (Kernel.find_process k ~name:"driver") in
  let found = ref None in
  Kobj.iter_caps
    (fun _ c ->
      match c.Kobj.target with
      | Kobj.Irq_notification i when i.Kobj.irq_id = irq.Kobj.irq_id -> found := Some i
      | _ -> ())
    drv.Kernel.cg;
  match !found with
  | Some i ->
    check_int "line preserved" 7 i.Kobj.irq_line;
    check_int "pending rolled back to checkpoint" 1 i.Kobj.irq_pending
  | None -> Alcotest.fail "irq object lost"

let () =
  Alcotest.run "eidetic"
    [
      ( "eidetic",
        [
          Alcotest.test_case "page history" `Quick eidetic_page_history;
          Alcotest.test_case "unmodified pages carry forward" `Quick
            eidetic_unmodified_page_carries_forward;
          Alcotest.test_case "object history" `Quick eidetic_object_history;
          Alcotest.test_case "window prunes" `Quick eidetic_window_prunes;
          Alcotest.test_case "pruning shrinks stats" `Quick eidetic_pruning_shrinks_stats;
          Alcotest.test_case "dead object absent" `Quick eidetic_dead_object_absent;
          Alcotest.test_case "diff between versions" `Quick eidetic_diff;
          Alcotest.test_case "stats grow" `Quick eidetic_stats_grow;
          Alcotest.test_case "detach stops archiving" `Quick eidetic_detach_stops;
        ] );
      ( "reliability",
        [
          Alcotest.test_case "corruption detected" `Quick corruption_detected;
          Alcotest.test_case "sealed backup checked with checksums off" `Quick
            corruption_detected_after_checksums_off;
          Alcotest.test_case "repair from eidetic archive" `Quick
            corruption_repaired_from_archive;
        ] );
      ( "grant",
        [
          Alcotest.test_case "attenuation" `Quick grant_shrinks_rights;
          Alcotest.test_case "grant right required" `Quick grant_requires_grant_right;
          Alcotest.test_case "survives crash" `Quick granted_cap_survives_crash;
        ] );
      ( "irq",
        [
          Alcotest.test_case "pending accumulates" `Quick irq_pending_accumulates;
          Alcotest.test_case "wakes blocked thread" `Quick irq_wakes_blocked_thread;
          Alcotest.test_case "state survives crash" `Quick irq_state_survives_crash;
        ] );
    ]
