(* Tests for the checkpoint manager: snapshots, ORoots, versioned page
   checkpoints (the §4.2/§4.3.3 rules), the STW procedure, GC, restore. *)

module Kernel = Treesls_kernel.Kernel
module Kobj = Treesls_cap.Kobj
module Radix = Treesls_cap.Radix
module Rights = Treesls_cap.Rights
module Paddr = Treesls_nvm.Paddr
module Store = Treesls_nvm.Store
module Global_meta = Treesls_nvm.Global_meta
module Clock = Treesls_sim.Clock
module Snapshot = Treesls_ckpt.Snapshot
module Oroot = Treesls_ckpt.Oroot
module Ckpt_page = Treesls_ckpt.Ckpt_page
module Active_list = Treesls_ckpt.Active_list
module Manager = Treesls_ckpt.Manager
module Report = Treesls_ckpt.Report
module State = Treesls_ckpt.State
module Restore = Treesls_ckpt.Restore
module System = Treesls.System
module Census = Treesls_cap.Census
module Rng = Treesls_util.Rng
module Kv_app = Treesls_apps.Kv_app
module Audit = Treesls_audit.Audit

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk_store () = Store.create ~clock:(Clock.create ()) ~nvm_pages:256 ~dram_pages:32 ()

(* ---- Snapshot ---- *)

let snapshot_thread () =
  let th = Kobj.make_thread ~id:7 ~prio:3 in
  th.Kobj.th_regs.(0) <- 99;
  th.Kobj.th_state <- Kobj.Blocked_notif 4;
  match Snapshot.take (Kobj.Thread th) with
  | Snapshot.S_thread s ->
    check_int "reg captured" 99 s.regs.(0);
    check_bool "state" true (s.state = Kobj.Blocked_notif 4);
    (* the snapshot must be a copy, not an alias *)
    th.Kobj.th_regs.(0) <- 1;
    check_int "copy isolated" 99 s.regs.(0)
  | _ -> Alcotest.fail "wrong kind"

let snapshot_cap_group () =
  let g = Kobj.make_cap_group ~id:1 ~name:"g" in
  let th = Kobj.Thread (Kobj.make_thread ~id:2 ~prio:1) in
  ignore (Kobj.install (Treesls_cap.Dirty_log.create ()) g { Kobj.target = th; rights = Rights.rw });
  match Snapshot.take (Kobj.Cap_group g) with
  | Snapshot.S_cap_group s ->
    check_int "one slot" 1 (List.length s.slots);
    (match s.slots with
    | [ (slot, id, rights) ] ->
      check_int "slot" 0 slot;
      check_int "target id" 2 id;
      check_bool "rights" true (rights = Rights.rw)
    | _ -> Alcotest.fail "slots");
    Alcotest.(check (list int)) "references" [ 2 ] (Snapshot.references (Snapshot.take (Kobj.Cap_group g)))
  | _ -> Alcotest.fail "wrong kind"

let snapshot_vmspace_refs () =
  let vms = Kobj.make_vmspace ~id:5 in
  let pmo = Kobj.make_pmo ~id:9 ~pages:2 ~kind:Kobj.Pmo_normal in
  vms.Kobj.vs_regions <- [ { Kobj.vr_vpn = 10; vr_pages = 2; vr_pmo = pmo; vr_writable = true } ];
  let s = Snapshot.take (Kobj.Vmspace vms) in
  Alcotest.(check (list int)) "pmo referenced" [ 9 ] (Snapshot.references s);
  check_bool "kind" true (Snapshot.kind s = Kobj.Vmspace_k)

let snapshot_eternal_frames () =
  let pmo = Kobj.make_pmo ~id:3 ~pages:2 ~kind:Kobj.Pmo_eternal in
  Radix.set pmo.Kobj.pmo_radix 0 (Paddr.nvm 11);
  Radix.set pmo.Kobj.pmo_radix 1 (Paddr.nvm 12);
  match Snapshot.take (Kobj.Pmo pmo) with
  | Snapshot.S_pmo s -> check_int "frames recorded" 2 (List.length s.eternal_frames)
  | _ -> Alcotest.fail "wrong kind"

let snapshot_bytes_positive () =
  List.iter
    (fun obj -> check_bool "positive size" true (Snapshot.bytes (Snapshot.take obj) > 0))
    [
      Kobj.Thread (Kobj.make_thread ~id:1 ~prio:1);
      Kobj.Notification (Kobj.make_notification ~id:2);
      Kobj.Irq_notification (Kobj.make_irq_notification ~id:3 ~line:7);
      Kobj.Ipc_conn (Kobj.make_ipc_conn ~id:4);
    ]

(* ---- Oroot ---- *)

let oroot_double_buffer () =
  let o = Oroot.create ~obj_id:1 ~kind:Kobj.Thread_k ~version:1 ~has_pages:false in
  let snap v =
    Snapshot.S_notif { count = v; waiters = [] }
  in
  Oroot.save o ~version:1 (snap 1);
  Oroot.save o ~version:2 (snap 2);
  (* both versions available *)
  check_bool "v1" true (Oroot.at o ~version:1 <> None);
  check_bool "v2" true (Oroot.at o ~version:2 <> None);
  Oroot.save o ~version:3 (snap 3);
  (* v1 evicted (written into the staler slot), v2 and v3 remain *)
  check_bool "v1 evicted" true (Oroot.at o ~version:1 = None);
  check_bool "v2 kept" true (Oroot.at o ~version:2 <> None);
  check_bool "v3 kept" true (Oroot.at o ~version:3 <> None)

let oroot_latest_le () =
  let o = Oroot.create ~obj_id:1 ~kind:Kobj.Thread_k ~version:1 ~has_pages:false in
  let snap v = Snapshot.S_notif { count = v; waiters = [] } in
  Oroot.save o ~version:4 (snap 4);
  Oroot.save o ~version:7 (snap 7);
  (match Oroot.latest_le o ~version:5 with
  | Some (v, _) -> check_int "picks 4" 4 v
  | None -> Alcotest.fail "none");
  (match Oroot.latest_le o ~version:9 with
  | Some (v, _) -> check_int "picks 7" 7 v
  | None -> Alcotest.fail "none");
  check_bool "below both" true (Oroot.latest_le o ~version:3 = None)

let oroot_pages_exn () =
  let o = Oroot.create ~obj_id:1 ~kind:Kobj.Pmo_k ~version:1 ~has_pages:true in
  ignore (Oroot.pages_exn o);
  let o2 = Oroot.create ~obj_id:2 ~kind:Kobj.Thread_k ~version:1 ~has_pages:false in
  Alcotest.check_raises "no pages" (Invalid_argument "Oroot.pages_exn: not a page-bearing object")
    (fun () -> ignore (Oroot.pages_exn o2))

(* ---- Ckpt_page: CoW backup ---- *)

let write_marker store paddr marker =
  Store.write_page store paddr ~off:0 (Bytes.of_string marker)

let read_marker store paddr = Bytes.to_string (Store.read_page store paddr ~off:0 ~len:2)

let cow_backup_saves_preimage () =
  let store = mk_store () in
  let t = Ckpt_page.create () in
  let runtime = Store.alloc_page store in
  write_marker store runtime "AA";
  let cp = Ckpt_page.ensure store t ~pno:0 ~born_ver:1 in
  check_bool "copied" true (Ckpt_page.cow_backup store t ~runtime ~pno:0 ~global:5);
  check_int "stamped global" 5 cp.Ckpt_page.b1_ver;
  write_marker store runtime "A'";
  (match cp.Ckpt_page.b1 with
  | Some b -> Alcotest.(check string) "pre-image preserved" "AA" (read_marker store b)
  | None -> Alcotest.fail "no backup");
  (* second fault in the same interval is a no-op *)
  check_bool "skip duplicate" false (Ckpt_page.cow_backup store t ~runtime ~pno:0 ~global:5)

let cow_backup_skips_dram () =
  let store = mk_store () in
  let t = Ckpt_page.create () in
  ignore (Ckpt_page.ensure store t ~pno:0 ~born_ver:1);
  check_bool "dram runtime not CoW-backed" false
    (Ckpt_page.cow_backup store t ~runtime:(Paddr.dram 3) ~pno:0 ~global:5)

let cow_backup_unmanaged_page () =
  let store = mk_store () in
  let t = Ckpt_page.create () in
  check_bool "no record, no copy" false
    (Ckpt_page.cow_backup store t ~runtime:(Store.alloc_page store) ~pno:0 ~global:5)

(* ---- Ckpt_page: restore rule (refined §4.3.3) ---- *)

let mk_cp ~born ~b1 ~b1v ~b2 ~b2v =
  { Ckpt_page.born_ver = born; b1; b1_ver = b1v; b2; b2_ver = b2v }

let restore_case_1_backup_at_global () =
  (* Fig 6(a) case 1: backup stamped global wins over the runtime *)
  let cp = mk_cp ~born:1 ~b1:(Some (Paddr.nvm 1)) ~b1v:5 ~b2:None ~b2v:0 in
  match Ckpt_page.restore_choice cp ~global:5 ~runtime:(Some (Paddr.nvm 9)) with
  | `Use p -> check_bool "uses backup" true (Paddr.equal p (Paddr.nvm 1))
  | `Drop -> Alcotest.fail "dropped"

let restore_case_2_stale_backup () =
  (* Fig 6(a) case 2: stale backup -> the runtime page is the consistent copy *)
  let cp = mk_cp ~born:1 ~b1:(Some (Paddr.nvm 1)) ~b1v:3 ~b2:None ~b2v:0 in
  match Ckpt_page.restore_choice cp ~global:5 ~runtime:(Some (Paddr.nvm 9)) with
  | `Use p -> check_bool "uses runtime" true (Paddr.equal p (Paddr.nvm 9))
  | `Drop -> Alcotest.fail "dropped"

let restore_case_3_no_backup () =
  (* Fig 6(a) case 3: never modified -> runtime *)
  let cp = mk_cp ~born:1 ~b1:None ~b1v:0 ~b2:None ~b2v:0 in
  match Ckpt_page.restore_choice cp ~global:5 ~runtime:(Some (Paddr.nvm 9)) with
  | `Use p -> check_bool "uses runtime" true (Paddr.equal p (Paddr.nvm 9))
  | `Drop -> Alcotest.fail "dropped"

let restore_born_after_global_dropped () =
  let cp = mk_cp ~born:6 ~b1:None ~b1v:0 ~b2:None ~b2v:0 in
  check_bool "dropped" true
    (Ckpt_page.restore_choice cp ~global:5 ~runtime:(Some (Paddr.nvm 9)) = `Drop)

let restore_inflight_copy_skipped () =
  (* A stop-and-copy stamped global+1 (uncommitted) must NOT win; the
     highest slot <= global must. This is the refinement over the paper's
     bare "higher version wins". *)
  let cp =
    mk_cp ~born:1 ~b1:(Some (Paddr.nvm 1)) ~b1v:6 ~b2:(Some (Paddr.nvm 2)) ~b2v:4
  in
  match Ckpt_page.restore_choice cp ~global:5 ~runtime:(Some (Paddr.dram 3)) with
  | `Use p -> check_bool "uses committed slot" true (Paddr.equal p (Paddr.nvm 2))
  | `Drop -> Alcotest.fail "dropped"

let restore_dram_runtime_highest_committed () =
  (* CPP: DRAM runtime lost; highest committed backup wins *)
  let cp =
    mk_cp ~born:1 ~b1:(Some (Paddr.nvm 1)) ~b1v:4 ~b2:(Some (Paddr.nvm 2)) ~b2v:5
  in
  match Ckpt_page.restore_choice cp ~global:7 ~runtime:None with
  | `Use p -> check_bool "highest committed" true (Paddr.equal p (Paddr.nvm 2))
  | `Drop -> Alcotest.fail "dropped"

let restore_mid_migration_lost_dram () =
  (* NVM->DRAM migration crashed before commit: runtime is DRAM (lost),
     the donated old runtime page is stamped global+1 and must be usable
     only if nothing committed exists... here b1 has the committed CoW
     pre-image at global. *)
  let cp =
    mk_cp ~born:1 ~b1:(Some (Paddr.nvm 1)) ~b1v:5 ~b2:(Some (Paddr.nvm 2)) ~b2v:6
  in
  match Ckpt_page.restore_choice cp ~global:5 ~runtime:(Some (Paddr.dram 8)) with
  | `Use p -> check_bool "committed CoW backup" true (Paddr.equal p (Paddr.nvm 1))
  | `Drop -> Alcotest.fail "dropped"

(* ---- Ckpt_page: stop-and-copy + migrations ---- *)

let stop_and_copy_alternates () =
  let store = mk_store () in
  let t = Ckpt_page.create () in
  let cp = Ckpt_page.ensure store t ~pno:0 ~born_ver:1 in
  cp.Ckpt_page.b1 <- Some (Store.alloc_page store);
  cp.Ckpt_page.b1_ver <- 4;
  cp.Ckpt_page.b2 <- Some (Store.alloc_page store);
  cp.Ckpt_page.b2_ver <- 5;
  let dram = Option.get (Store.alloc_dram_page store) in
  write_marker store dram "D1";
  Ckpt_page.stop_and_copy_dram store t ~runtime:dram ~pno:0 ~new_ver:6;
  (* the staler slot (b1, v4) must have been overwritten *)
  check_int "b1 restamped" 6 cp.Ckpt_page.b1_ver;
  check_int "b2 untouched" 5 cp.Ckpt_page.b2_ver;
  Alcotest.(check string) "content copied" "D1" (read_marker store (Option.get cp.Ckpt_page.b1));
  (* next round goes to the other slot *)
  write_marker store dram "D2";
  Ckpt_page.stop_and_copy_dram store t ~runtime:dram ~pno:0 ~new_ver:7;
  check_int "b2 restamped" 7 cp.Ckpt_page.b2_ver;
  Alcotest.(check string) "second copy" "D2" (read_marker store (Option.get cp.Ckpt_page.b2))

let migration_cycle () =
  let store = mk_store () in
  let t = Ckpt_page.create () in
  let cp = Ckpt_page.ensure store t ~pno:0 ~born_ver:1 in
  let runtime = Store.alloc_page store in
  write_marker store runtime "RR";
  (* NVM -> DRAM: the old runtime becomes backup b2 *)
  Ckpt_page.attach_runtime_as_backup t ~pno:0 ~old_runtime:runtime ~new_ver:3;
  check_int "b2 stamped" 3 cp.Ckpt_page.b2_ver;
  check_bool "b2 is old runtime" true (cp.Ckpt_page.b2 = Some runtime);
  (* DRAM -> NVM: b2 detaches back into the runtime role *)
  cp.Ckpt_page.b1 <- Some (Store.alloc_page store);
  cp.Ckpt_page.b1_ver <- 2;
  let dram = Option.get (Store.alloc_dram_page store) in
  write_marker store dram "DD";
  let back = Ckpt_page.demotion_target store t ~pno:0 ~latest:dram in
  check_bool "returns the b2 frame" true (Paddr.equal back runtime);
  check_bool "b2 kept until the radix moves" true (cp.Ckpt_page.b2 = Some runtime);
  Ckpt_page.detach_runtime_slot store t ~pno:0;
  check_bool "b2 cleared" true (cp.Ckpt_page.b2 = None);
  check_int "b2 ver zero" 0 cp.Ckpt_page.b2_ver;
  (* b2 was newest (3 > 2): content NOT recopied, stays at runtime image *)
  Alcotest.(check string) "kept newest content" "RR" (read_marker store back)

let detach_copies_when_stale () =
  let store = mk_store () in
  let t = Ckpt_page.create () in
  let cp = Ckpt_page.ensure store t ~pno:0 ~born_ver:1 in
  cp.Ckpt_page.b1 <- Some (Store.alloc_page store);
  cp.Ckpt_page.b1_ver <- 9;
  let b2 = Store.alloc_page store in
  write_marker store b2 "OL";
  cp.Ckpt_page.b2 <- Some b2;
  cp.Ckpt_page.b2_ver <- 2;
  let dram = Option.get (Store.alloc_dram_page store) in
  write_marker store dram "NW";
  let back = Ckpt_page.demotion_target store t ~pno:0 ~latest:dram in
  Alcotest.(check string) "stale b2 refreshed from runtime" "NW" (read_marker store back)

let normalize_keeps_spare () =
  let store = mk_store () in
  let free0 = Store.nvm_pages_free store in
  let t = Ckpt_page.create () in
  let cp = Ckpt_page.ensure store t ~pno:0 ~born_ver:1 in
  let keep = Store.alloc_page store in
  let other = Store.alloc_page store in
  cp.Ckpt_page.b1 <- Some keep;
  cp.Ckpt_page.b1_ver <- 5;
  cp.Ckpt_page.b2 <- Some other;
  cp.Ckpt_page.b2_ver <- 4;
  Ckpt_page.normalize_after_restore store cp ~keep ~runtime:None;
  check_bool "spare retained as b1" true (cp.Ckpt_page.b1 = Some other);
  check_int "spare invalidated" 0 cp.Ckpt_page.b1_ver;
  check_bool "b2 runtime marker" true (cp.Ckpt_page.b2 = None);
  (* keep + spare still allocated, nothing freed, nothing leaked *)
  check_int "two pages held" (free0 - 2) (Store.nvm_pages_free store)

(* ---- Active list ---- *)

let active_threshold () =
  let al = Active_list.create { Active_list.hot_threshold = 2; idle_limit = 4; max_cached = 10 } in
  let pmo = Kobj.make_pmo ~id:1 ~pages:4 ~kind:Kobj.Pmo_normal in
  Active_list.record_fault al pmo 0;
  check_int "below threshold" 0 (List.length (Active_list.entries al));
  Active_list.record_fault al pmo 0;
  check_int "appended at threshold" 1 (List.length (Active_list.entries al))

let active_cap () =
  let al = Active_list.create { Active_list.hot_threshold = 1; idle_limit = 4; max_cached = 2 } in
  let pmo = Kobj.make_pmo ~id:1 ~pages:8 ~kind:Kobj.Pmo_normal in
  for pno = 0 to 5 do
    Active_list.record_fault al pmo pno
  done;
  check_int "capped" 2 (List.length (Active_list.entries al))

let active_sublists_partition () =
  let al = Active_list.create { Active_list.hot_threshold = 1; idle_limit = 4; max_cached = 100 } in
  let pmo = Kobj.make_pmo ~id:1 ~pages:16 ~kind:Kobj.Pmo_normal in
  for pno = 0 to 9 do
    Active_list.record_fault al pmo pno
  done;
  let subs = Active_list.sublists al ~cores:3 in
  check_int "three buckets" 3 (Array.length subs);
  check_int "all entries covered" 10 (Array.fold_left (fun a l -> a + List.length l) 0 subs)

let active_drop_and_compact () =
  let al = Active_list.create { Active_list.hot_threshold = 1; idle_limit = 4; max_cached = 10 } in
  let pmo = Kobj.make_pmo ~id:1 ~pages:4 ~kind:Kobj.Pmo_normal in
  Active_list.record_fault al pmo 0;
  (match Active_list.entries al with
  | [ e ] ->
    Active_list.drop al e;
    check_int "dropped" 0 (List.length (Active_list.entries al));
    Active_list.compact al
  | _ -> Alcotest.fail "one entry expected");
  (* hotness cleared: takes a full threshold count to come back *)
  Active_list.record_fault al pmo 0;
  check_int "needs re-warming" 1 (List.length (Active_list.entries al))

(* The active list as it was, with hotness and entries in hash tables
   keyed by (PMO id, page), kept as the oracle for the one indexed by PMO
   id and page. *)
module Table_active = struct
  type entry = {
    pmo : Kobj.pmo;
    pno : int;
    mutable hot : int;
    mutable dram : bool;
    mutable listed : bool;
  }

  type t = {
    cfg : Active_list.config;
    index : (int * int, entry) Hashtbl.t;
    hotness : (int * int, int) Hashtbl.t;
    mutable list : entry list;
    mutable live : int;
  }

  let create cfg =
    { cfg; index = Hashtbl.create 16; hotness = Hashtbl.create 16; list = []; live = 0 }

  let record_fault t pmo pno =
    let key = (pmo.Kobj.pmo_id, pno) in
    match Hashtbl.find_opt t.index key with
    | Some e -> e.hot <- e.hot + 1
    | None ->
      let h = 1 + Option.value ~default:0 (Hashtbl.find_opt t.hotness key) in
      if h >= t.cfg.Active_list.hot_threshold && t.live < t.cfg.Active_list.max_cached then begin
        Hashtbl.remove t.hotness key;
        let e = { pmo; pno; hot = h; dram = false; listed = true } in
        Hashtbl.replace t.index key e;
        t.list <- e :: t.list;
        t.live <- t.live + 1
      end
      else Hashtbl.replace t.hotness key h

  let entries t = List.rev (List.filter (fun e -> e.listed) t.list)
  let cached_count t = List.length (List.filter (fun e -> e.listed && e.dram) t.list)

  let drop t e =
    if e.listed then begin
      e.listed <- false;
      t.live <- t.live - 1;
      Hashtbl.remove t.index (e.pmo.Kobj.pmo_id, e.pno)
    end

  let compact t = t.list <- List.filter (fun e -> e.listed) t.list

  let clear t =
    Hashtbl.reset t.index;
    Hashtbl.reset t.hotness;
    t.list <- [];
    t.live <- 0
end

(* Seeded faults, demotions, DRAM marks, compactions and clears on both
   lists, over PMOs whose ids arrive out of order and past the end of
   the arrays grown so far: the same entries, in the same order, with the
   same hotness after every step. *)
let active_matches_table () =
  List.iter
    (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let cfg =
        {
          Active_list.hot_threshold = 1 + Rng.int rng 3;
          idle_limit = 4;
          max_cached = 6 + Rng.int rng 20;
        }
      in
      let al = Active_list.create cfg and model = Table_active.create cfg in
      let pmos = ref [||] in
      let new_pmo () =
        let id =
          Rng.pick rng [| 1 + Rng.int rng 8; 40 + Rng.int rng 200; 1_000 + Rng.int rng 5_000 |]
        in
        if not (Array.exists (fun p -> p.Kobj.pmo_id = id) !pmos) then
          let pages = 1 + Rng.int rng 12 in
          pmos := Array.append !pmos [| Kobj.make_pmo ~id ~pages ~kind:Kobj.Pmo_normal |]
      in
      new_pmo ();
      let key e = (e.Active_list.e_pmo.Kobj.pmo_id, e.Active_list.e_pno) in
      let view () =
        List.map (fun e -> (key e, e.Active_list.e_hotness)) (Active_list.entries al)
      and model_view () =
        List.map
          (fun e -> ((e.Table_active.pmo.Kobj.pmo_id, e.Table_active.pno), e.Table_active.hot))
          (Table_active.entries model)
      in
      for step = 1 to 1_500 do
        (match Rng.int rng 100 with
        | r when r < 70 ->
          let pmo = Rng.pick rng !pmos in
          let pno = Rng.int rng pmo.Kobj.pmo_pages in
          Active_list.record_fault al pmo pno;
          Table_active.record_fault model pmo pno
        | r when r < 78 -> new_pmo ()
        | r when r < 88 -> (
          match (Active_list.entries al, Table_active.entries model) with
          | [], [] -> ()
          | es, ms ->
            let i = Rng.int rng (List.length es) in
            Active_list.drop al (List.nth es i);
            Table_active.drop model (List.nth ms i))
        | r when r < 94 -> (
          match (Active_list.entries al, Table_active.entries model) with
          | [], [] -> ()
          | es, ms ->
            let i = Rng.int rng (List.length es) in
            let dram = Rng.bool rng in
            (List.nth es i).Active_list.e_dram <- dram;
            (List.nth ms i).Table_active.dram <- dram)
        | r when r < 98 ->
          Active_list.compact al;
          Table_active.compact model
        | _ ->
          Active_list.clear al;
          Table_active.clear model);
        let at = Printf.sprintf "seed %d step %d" seed step in
        check_bool (at ^ ": entries") true (view () = model_view ());
        check_int (at ^ ": cached") (Table_active.cached_count model) (Active_list.cached_count al)
      done;
      let dealt = Array.to_list (Active_list.sublists al ~cores:3) |> List.concat_map (List.map key) in
      check_bool "sublists cover the entries" true
        (List.sort compare dealt = List.sort compare (List.map fst (model_view ()))))
    [ 1; 2; 3; 4; 5; 6 ]

(* ---- STW checkpoint integration ---- *)

let ckpt_version_and_reports () =
  let sys = System.boot () in
  let r1 = System.checkpoint sys in
  check_int "v1" 1 r1.Report.version;
  check_bool "objects walked" true (r1.Report.objects_walked > 100);
  check_int "all full on first" r1.Report.objects_walked r1.Report.full_objects;
  let r2 = System.checkpoint sys in
  check_int "v2" 2 r2.Report.version;
  check_int "no fulls on second" 0 r2.Report.full_objects;
  check_bool "incremental cheaper" true (r2.Report.captree_ns < r1.Report.captree_ns);
  check_int "meta version" 2 (Global_meta.version (Store.meta (System.store sys)))

let ckpt_cow_after_protect () =
  let sys = System.boot () in
  let k = System.kernel sys in
  let p = Kernel.create_process k ~name:"app" ~threads:1 ~prio:5 in
  let vpn = Kernel.grow_heap k p ~pages:2 in
  Kernel.touch_write k p ~vpn;
  ignore (System.checkpoint sys);
  let cow0 = (Kernel.stats k).Kernel.cow_faults in
  Kernel.touch_write k p ~vpn;
  check_int "write after ckpt faults" (cow0 + 1) (Kernel.stats k).Kernel.cow_faults;
  Kernel.touch_write k p ~vpn;
  check_int "second write no fault" (cow0 + 1) (Kernel.stats k).Kernel.cow_faults

let ckpt_gc_dead_objects () =
  let sys = System.boot () in
  let k = System.kernel sys in
  let p = Kernel.create_process k ~name:"dying" ~threads:1 ~prio:5 in
  let vpn = Kernel.grow_heap k p ~pages:2 in
  Kernel.touch_write k p ~vpn;
  ignore (System.checkpoint sys);
  let free_mid = Store.nvm_pages_free (System.store sys) in
  Kernel.exit_process k p;
  ignore (System.checkpoint sys);
  (* the process's pages (stack, touched heap page, backups) returned *)
  check_bool "pages freed by GC" true (Store.nvm_pages_free (System.store sys) > free_mid)

let ckpt_eternal_not_tracked () =
  let sys = System.boot () in
  let k = System.kernel sys in
  let p = Kernel.create_process k ~name:"drv" ~threads:1 ~prio:5 in
  let pmo = Kernel.make_eternal_pmo k ~pages:2 in
  let vpn = Kernel.map_shared k p pmo ~writable:true in
  ignore (System.checkpoint sys);
  let cow0 = (Kernel.stats k).Kernel.cow_faults in
  let psz = (Kernel.cost k).Treesls_sim.Cost.page_size in
  Kernel.write_bytes k p ~vaddr:(vpn * psz) (Bytes.of_string "e");
  Kernel.write_bytes k p ~vaddr:(vpn * psz) (Bytes.of_string "f");
  (* eternal pages never get CoW backups (their first touch may still be a
     soft fault, but no backup copies happen) *)
  ignore cow0;
  let mgr = System.manager sys in
  let st = Manager.state mgr in
  match State.find_oroot st pmo.Kobj.pmo_id with
  | Some o -> check_bool "no page table for eternal pmo" true (o.Oroot.pages = None)
  | None -> Alcotest.fail "eternal pmo not checkpointed"

let ckpt_callbacks_fire () =
  let sys = System.boot () in
  let fired = ref 0 in
  Manager.on_checkpoint (System.manager sys) (fun () -> incr fired);
  ignore (System.checkpoint sys);
  ignore (System.checkpoint sys);
  check_int "both checkpoints" 2 !fired

let ckpt_fresh_page_born_version () =
  let sys = System.boot () in
  let k = System.kernel sys in
  let p = Kernel.create_process k ~name:"app" ~threads:1 ~prio:5 in
  let vpn = Kernel.grow_heap k p ~pages:4 in
  ignore (System.checkpoint sys);
  (* page created in interval ending at v2 *)
  Kernel.touch_write k p ~vpn;
  ignore (System.checkpoint sys);
  let st = Manager.state (System.manager sys) in
  let region = List.nth p.Kernel.vms.Kobj.vs_regions 2 in
  let oroot = Option.get (State.find_oroot st region.Kobj.vr_pmo.Kobj.pmo_id) in
  match Ckpt_page.find (Oroot.pages_exn oroot) 0 with
  | Some cp -> check_int "born at v2" 2 cp.Ckpt_page.born_ver
  | None -> Alcotest.fail "no cp record"

(* ---- tick policy ---- *)

let tick_policy () =
  let sys = System.boot ~interval_us:100 () in
  check_bool "not due immediately" true (System.tick sys = None);
  Clock.advance (System.clock sys) 150_000;
  check_bool "due after interval" true (System.tick sys <> None);
  check_bool "not due again" true (System.tick sys = None);
  System.set_interval_us sys None;
  Clock.advance (System.clock sys) 1_000_000;
  check_bool "disabled" true (System.tick sys = None)

(* ---- full restore ---- *)

let restore_rolls_back_object_state () =
  let sys = System.boot () in
  let k = System.kernel sys in
  let p = Kernel.create_process k ~name:"app" ~threads:1 ~prio:5 in
  let n = Kernel.create_notification k p in
  n.Kobj.nt_count <- 3;
  ignore (System.checkpoint sys);
  n.Kobj.nt_count <- 42;
  let report = System.crash_and_recover sys in
  check_int "restored version" 1 report.Restore.version;
  let k = System.kernel sys in
  let p = Option.get (Kernel.find_process k ~name:"app") in
  let found = ref None in
  Kobj.iter_caps
    (fun _ c ->
      match c.Kobj.target with
      | Kobj.Notification n2 when n2.Kobj.nt_id = n.Kobj.nt_id -> found := Some n2
      | _ -> ())
    p.Kernel.cg;
  match !found with
  | Some n2 -> check_int "count rolled back" 3 n2.Kobj.nt_count
  | None -> Alcotest.fail "notification lost"

let restore_drops_uncheckpointed_process () =
  let sys = System.boot () in
  ignore (System.checkpoint sys);
  let k = System.kernel sys in
  let p = Kernel.create_process k ~name:"late" ~threads:1 ~prio:5 in
  let vpn = Kernel.grow_heap k p ~pages:2 in
  Kernel.touch_write k p ~vpn;
  let free_before_crash = Store.nvm_pages_free (System.store sys) in
  let _ = System.crash_and_recover sys in
  let k = System.kernel sys in
  check_bool "late process gone" true (Kernel.find_process k ~name:"late" = None);
  (* its page allocations were rolled back *)
  check_bool "frames rolled back" true
    (Store.nvm_pages_free (System.store sys) > free_before_crash)

let restore_without_checkpoint_fails () =
  let sys = System.boot () in
  System.crash sys;
  Alcotest.check_raises "no checkpoint" Restore.No_checkpoint (fun () ->
      ignore (System.recover sys))

let restore_preserves_census () =
  let sys = System.boot () in
  let before = Census.collect ~root:(Kernel.root (System.kernel sys)) in
  ignore (System.checkpoint sys);
  let _ = System.crash_and_recover sys in
  let after = Census.collect ~root:(Kernel.root (System.kernel sys)) in
  check_int "cap groups" before.Census.cap_groups after.Census.cap_groups;
  check_int "threads" before.Census.threads after.Census.threads;
  check_int "pmos" before.Census.pmos after.Census.pmos;
  check_int "vmspaces" before.Census.vmspaces after.Census.vmspaces;
  check_int "ipcs" before.Census.ipcs after.Census.ipcs

let restore_twice () =
  let sys = System.boot () in
  let k = System.kernel sys in
  let p = Kernel.create_process k ~name:"app" ~threads:1 ~prio:5 in
  let vpn = Kernel.grow_heap k p ~pages:2 in
  let psz = (Kernel.cost k).Treesls_sim.Cost.page_size in
  Kernel.write_bytes k (Option.get (Kernel.find_process k ~name:"app")) ~vaddr:(vpn * psz)
    (Bytes.of_string "v1");
  ignore (System.checkpoint sys);
  let _ = System.crash_and_recover sys in
  let _ = System.crash_and_recover sys in
  let k = System.kernel sys in
  let p = Option.get (Kernel.find_process k ~name:"app") in
  Alcotest.(check string) "data survives two crashes" "v1"
    (Bytes.to_string (Kernel.read_bytes k p ~vaddr:(vpn * psz) ~len:2))

let restore_no_page_leak () =
  let sys = System.boot () in
  let k = System.kernel sys in
  let p = Kernel.create_process k ~name:"app" ~threads:1 ~prio:5 in
  let vpn = Kernel.grow_heap k p ~pages:8 in
  for i = 0 to 7 do
    Kernel.touch_write k p ~vpn:(vpn + i)
  done;
  ignore (System.checkpoint sys);
  let free_ref = ref (Store.nvm_pages_free (System.store sys)) in
  (* repeated crash/recover cycles must not consume NVM monotonically *)
  for _ = 1 to 5 do
    let _ = System.crash_and_recover sys in
    let free = Store.nvm_pages_free (System.store sys) in
    check_bool "no monotonic leak" true (free >= !free_ref - 8);
    free_ref := free
  done

(* ---- page-level hybrid-copy crash property ----

   Random interleavings of page writes and checkpoints, with hot-page
   thresholds tuned so pages migrate NVM->DRAM->NVM during the run, then a
   crash at a random instant: every page's recovered content must equal
   its content at the last committed checkpoint. *)

let prop_hybrid_page_contents =
  QCheck.Test.make ~name:"hybrid: page contents survive random crash" ~count:25
    QCheck.(pair (int_bound 10_000) (int_range 10 80))
    (fun (seed, steps) ->
      let active_cfg =
        { Active_list.hot_threshold = 1; idle_limit = 2; max_cached = 8 }
      in
      let sys = System.boot ~active_cfg () in
      let k = System.kernel sys in
      let proc = Kernel.create_process k ~name:"pages" ~threads:1 ~prio:5 in
      let npages = 6 in
      let vpn0 = Kernel.grow_heap k proc ~pages:npages in
      let psz = (Kernel.cost k).Treesls_sim.Cost.page_size in
      let rng = Rng.create (Int64.of_int seed) in
      (* live model of page contents + the committed view *)
      let live = Array.make npages "" in
      let committed = ref (Array.copy live) in
      Manager.on_checkpoint (System.manager sys) (fun () -> committed := Array.copy live);
      for step = 1 to steps do
        match Rng.int rng 4 with
        | 0 | 1 ->
          (* write a fresh marker to a random page *)
          let p = Rng.int rng npages in
          let marker = Printf.sprintf "s%04d-p%d" step p in
          Kernel.write_bytes k (Option.get (Kernel.find_process k ~name:"pages"))
            ~vaddr:((vpn0 + p) * psz)
            (Bytes.of_string marker);
          live.(p) <- marker
        | 2 ->
          (* hammer one page so it crosses the hot threshold and migrates *)
          let p = Rng.int rng npages in
          let proc = Option.get (Kernel.find_process k ~name:"pages") in
          let marker = Printf.sprintf "h%04d-p%d" step p in
          for _ = 1 to 3 do
            Kernel.write_bytes k proc ~vaddr:((vpn0 + p) * psz) (Bytes.of_string marker);
            ignore (System.checkpoint sys);
            committed := Array.copy live
          done;
          live.(p) <- marker;
          committed := Array.copy live
        | _ -> ignore (System.checkpoint sys)
      done;
      if System.version sys = 0 then ignore (System.checkpoint sys);
      System.crash sys;
      ignore (System.recover sys);
      let k = System.kernel sys in
      let proc = Option.get (Kernel.find_process k ~name:"pages") in
      let ok = ref true in
      Array.iteri
        (fun p expected ->
          if expected <> "" then begin
            let got =
              Bytes.to_string
                (Kernel.read_bytes k proc ~vaddr:((vpn0 + p) * psz) ~len:(String.length expected))
            in
            if got <> expected then ok := false
          end)
        !committed;
      !ok)

let qsuite_hybrid = List.map QCheck_alcotest.to_alcotest [ prop_hybrid_page_contents ]

(* ---- the Figure 10 ladder: one Kv_app trace per State.level ---- *)

type ladder = {
  commits : int;
  cow_faults : int;
  backup_frames : int;
  migrated_in : int;  (* summed over the trace's commits *)
  max_cached : int;  (* DRAM-cached pages, worst commit *)
  sys : System.t;
  app : Kv_app.t;
  expect : string -> string option;  (* the last committed value per key *)
}

let ladder_keys = "fresh" :: List.init 48 (Printf.sprintf "k%d")

(* 1500 sets over 48 keys with 200 us periodic checkpoints, then two
   writes after the last commit (an overwrite and a new key) that a
   correct restore rolls back. *)
let ladder_trace level =
  let features = { (State.default_features ()) with State.level } in
  let sys = System.boot ~interval_us:200 ~features () in
  let app = Kv_app.launch ~keys_hint:256 ~value_size:64 sys Kv_app.Memcached in
  let k = System.kernel sys in
  let v0 = System.version sys and cow0 = (Kernel.stats k).Kernel.cow_faults in
  let live = Hashtbl.create 64 and committed = ref (Hashtbl.create 1) in
  let migrated_in = ref 0 and max_cached = ref 0 in
  for i = 0 to 1_499 do
    let key = Printf.sprintf "k%d" (i * 7 mod 48) and value = Printf.sprintf "v%d" i in
    Kv_app.set app ~key ~value;
    Hashtbl.replace live key value;
    match System.tick sys with
    | Some r ->
      committed := Hashtbl.copy live;
      migrated_in := !migrated_in + r.Report.migrated_in;
      max_cached := max !max_cached r.Report.cached_pages
    | None -> ()
  done;
  Kv_app.set app ~key:"k0" ~value:"uncommitted";
  Kv_app.set app ~key:"fresh" ~value:"uncommitted";
  let frames = ref 0 in
  Manager.iter_oroots (System.manager sys) (fun _ o ->
      match o.Oroot.pages with
      | Some pages -> frames := !frames + Ckpt_page.backup_frames pages
      | None -> ());
  let committed = !committed in
  {
    commits = System.version sys - v0;
    cow_faults = (Kernel.stats k).Kernel.cow_faults - cow0;
    backup_frames = !frames;
    migrated_in = !migrated_in;
    max_cached = !max_cached;
    sys;
    app;
    expect = Hashtbl.find_opt committed;
  }

let off_trace = lazy (ladder_trace State.Off)

(* After a power cut, every key reads back its last committed value and
   the post-commit writes are gone. *)
let check_restores (l : ladder) =
  ignore (System.crash_and_recover l.sys);
  Kv_app.refresh l.app;
  List.iter
    (fun key ->
      Alcotest.(check (option string)) ("restored " ^ key) (l.expect key) (Kv_app.get l.app ~key))
    ladder_keys;
  check_int "audit clean" 0 (Audit.errors (System.audit l.sys))

let level_off () =
  let l = Lazy.force off_trace in
  check_int "never commits" 0 l.commits

let level_tree () =
  let l = ladder_trace State.Tree in
  check_bool "commits" true (l.commits > 0);
  let off = Lazy.force off_trace in
  check_bool "no more CoW faults than Off" true (l.cow_faults <= off.cow_faults)

let level_fault () =
  let l = ladder_trace State.Fault in
  check_bool "takes CoW faults" true (l.cow_faults > 0);
  check_int "banks no backup frames" 0 l.backup_frames

let level_cow () =
  let l = ladder_trace State.Cow in
  check_bool "banks backup frames" true (l.backup_frames > 0);
  check_int "caches no page in DRAM" 0 l.max_cached;
  check_restores l

let level_hybrid () =
  let l = ladder_trace State.Hybrid in
  check_bool "migrates pages into DRAM" true (l.migrated_in > 0);
  check_restores l

let () =
  Alcotest.run "ckpt"
    [
      ( "snapshot",
        [
          Alcotest.test_case "thread copies state" `Quick snapshot_thread;
          Alcotest.test_case "cap group slots" `Quick snapshot_cap_group;
          Alcotest.test_case "vmspace references" `Quick snapshot_vmspace_refs;
          Alcotest.test_case "eternal frames" `Quick snapshot_eternal_frames;
          Alcotest.test_case "sizes positive" `Quick snapshot_bytes_positive;
        ] );
      ( "oroot",
        [
          Alcotest.test_case "double buffering" `Quick oroot_double_buffer;
          Alcotest.test_case "latest_le" `Quick oroot_latest_le;
          Alcotest.test_case "pages_exn" `Quick oroot_pages_exn;
        ] );
      ( "cow",
        [
          Alcotest.test_case "saves pre-image, stamps global" `Quick cow_backup_saves_preimage;
          Alcotest.test_case "skips DRAM runtime" `Quick cow_backup_skips_dram;
          Alcotest.test_case "skips unmanaged page" `Quick cow_backup_unmanaged_page;
        ] );
      ( "restore-rule",
        [
          Alcotest.test_case "case 1: backup at global" `Quick restore_case_1_backup_at_global;
          Alcotest.test_case "case 2: stale backup, runtime" `Quick restore_case_2_stale_backup;
          Alcotest.test_case "case 3: no backup, runtime" `Quick restore_case_3_no_backup;
          Alcotest.test_case "born after global dropped" `Quick restore_born_after_global_dropped;
          Alcotest.test_case "in-flight copy skipped" `Quick restore_inflight_copy_skipped;
          Alcotest.test_case "DRAM runtime, highest committed" `Quick
            restore_dram_runtime_highest_committed;
          Alcotest.test_case "mid-migration crash" `Quick restore_mid_migration_lost_dram;
        ] );
      ( "hybrid-pages",
        [
          Alcotest.test_case "stop-and-copy alternates slots" `Quick stop_and_copy_alternates;
          Alcotest.test_case "migration cycle" `Quick migration_cycle;
          Alcotest.test_case "detach copies stale b2" `Quick detach_copies_when_stale;
          Alcotest.test_case "normalize keeps one spare" `Quick normalize_keeps_spare;
        ] );
      ( "active-list",
        [
          Alcotest.test_case "hotness threshold" `Quick active_threshold;
          Alcotest.test_case "cache cap" `Quick active_cap;
          Alcotest.test_case "sublists partition" `Quick active_sublists_partition;
          Alcotest.test_case "drop and compact" `Quick active_drop_and_compact;
          Alcotest.test_case "matches the table-keyed oracle" `Quick active_matches_table;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "versions and reports" `Quick ckpt_version_and_reports;
          Alcotest.test_case "CoW re-armed after protect" `Quick ckpt_cow_after_protect;
          Alcotest.test_case "GC of dead objects" `Quick ckpt_gc_dead_objects;
          Alcotest.test_case "eternal PMOs untracked" `Quick ckpt_eternal_not_tracked;
          Alcotest.test_case "callbacks fire" `Quick ckpt_callbacks_fire;
          Alcotest.test_case "fresh page born version" `Quick ckpt_fresh_page_born_version;
          Alcotest.test_case "tick policy" `Quick tick_policy;
        ] );
      ("hybrid-property", qsuite_hybrid);
      ( "levels",
        [
          Alcotest.test_case "Off never commits" `Quick level_off;
          Alcotest.test_case "Tree commits, no extra CoW faults" `Quick level_tree;
          Alcotest.test_case "Fault faults, banks no frames" `Quick level_fault;
          Alcotest.test_case "Cow banks frames, restores" `Quick level_cow;
          Alcotest.test_case "Hybrid caches pages, restores" `Quick level_hybrid;
        ] );
      ( "restore",
        [
          Alcotest.test_case "rolls back object state" `Quick restore_rolls_back_object_state;
          Alcotest.test_case "drops uncheckpointed process" `Quick
            restore_drops_uncheckpointed_process;
          Alcotest.test_case "fails without checkpoint" `Quick restore_without_checkpoint_fails;
          Alcotest.test_case "preserves census" `Quick restore_preserves_census;
          Alcotest.test_case "double crash" `Quick restore_twice;
          Alcotest.test_case "no page leak across cycles" `Quick restore_no_page_leak;
        ] );
    ]
