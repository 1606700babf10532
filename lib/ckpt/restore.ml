module Kobj = Treesls_cap.Kobj
module Radix = Treesls_cap.Radix
module Kernel = Treesls_kernel.Kernel
module Store = Treesls_nvm.Store
module Paddr = Treesls_nvm.Paddr
module Global_meta = Treesls_nvm.Global_meta
module Crash_site = Treesls_nvm.Crash_site
module Cost = Treesls_sim.Cost
module Clock = Treesls_sim.Clock
module Stats = Treesls_util.Stats
module Probe = Treesls_obs.Probe

exception No_checkpoint

exception
  Corrupt_backup of {
    pmo_id : int;
    pno : int;
    paddr : Treesls_nvm.Paddr.t;
  }

type report = {
  restored_objects : int;
  dropped_objects : int;
  pages_restored : int;
  pages_dropped : int;
  restore_ns : int;
  version : int;
}

(* Radixes of every PMO reachable in a runtime tree. At restore time the
   crash-time tree feeds the "use the runtime page" decisions; the state
   auditor calls the same walk on the live tree. *)
let tree_radixes root =
  let tbl = Hashtbl.create 64 in
  (match root with
  | None -> ()
  | Some root ->
    Kobj.iter_tree ~root (fun obj ->
        match obj with
        | Kobj.Pmo p -> Hashtbl.replace tbl p.Kobj.pmo_id p.Kobj.pmo_radix
        | Kobj.Cap_group _ | Kobj.Thread _ | Kobj.Vmspace _ | Kobj.Ipc_conn _
        | Kobj.Notification _ | Kobj.Irq_notification _ -> ()));
  tbl

(* Read-only walk over every checkpointed-page record of every ORoot alive
   at [global], reporting the restore decision each record would produce
   against [radixes]. Shared by the restore integrity pre-pass and the
   state auditor ("would a restore right now succeed?"). *)
let iter_restore_choices st ~radixes ~global f =
  Hashtbl.iter
    (fun oid (oroot : Oroot.t) ->
      if oroot.Oroot.first_ver <= global then
        match oroot.Oroot.pages with
        | None -> ()
        | Some cps ->
          let runtime_of pno =
            match Hashtbl.find_opt radixes oid with
            | Some radix -> Radix.get radix pno
            | None -> None
          in
          Ckpt_page.iter
            (fun pno cp ->
              f ~pmo_id:oid ~pno ~cp
                ~choice:(Ckpt_page.restore_choice cp ~global ~runtime:(runtime_of pno)))
            cps)
    st.State.oroots

let charge_restore st (snap : Snapshot.t) =
  let store = Kernel.store st.State.kernel in
  let c = Store.cost store in
  let copy = Cost.object_copy_ns c ~to_nvm:false ~bytes_len:(Snapshot.bytes snap) in
  let extra =
    match snap with
    | Snapshot.S_vmspace _ -> c.Cost.alloc_page_ns + (5 * copy)
    | Snapshot.S_cap_group _ -> c.Cost.alloc_small_ns + (5 * copy)
    | Snapshot.S_thread _ -> 4 * copy
    | Snapshot.S_pmo _ | Snapshot.S_ipc _ | Snapshot.S_notif _ | Snapshot.S_irq _ -> copy
  in
  Store.charge store (c.Cost.alloc_small_ns + copy + extra)

(* Per-page restore check: read the CP record, compare versions. *)
let page_check_ns store =
  let c = Store.cost store in
  int_of_float (2.0 *. c.Cost.word_copy_nvm_ns)

let run_inner st =
  let crashed_kernel = st.State.kernel in
  let store = Kernel.store crashed_kernel in
  let probe = Store.probe store in
  let clock = Store.clock store in
  let t0 = Clock.now clock in
  Probe.rto_phase_begin probe "journal_replay";
  Store.recover store;
  (* A cut inside a drain settle, after the staged version's bump: that
     version is committed, so its settle is redone here with the rest of
     the committed work — before the integrity pre-pass picks the backups
     the restore will use. *)
  Drain.roll_forward store st.State.drain ~committed:(Global_meta.version (Store.meta store));
  Probe.rto_phase_end probe;
  (* Crash sites here model a power cut during recovery itself.  Only the
     read-only prefix carries sites: journal replay and the integrity
     pre-pass are idempotent, so a second [recover] after a crash at either
     site simply starts over.  The mutating tail (oroot removal, page
     frees) is not re-entrant and stays site-free. *)
  Crash_site.hit (Store.crash_sites store) "restore.begin";
  Probe.rto_phase_begin probe "meta_validate";
  let g = Global_meta.version (Store.meta store) in
  if g = 0 then raise No_checkpoint;
  let radixes = tree_radixes st.State.crashed_root in
  (* Integrity pre-pass (paper section 8): verify every sealed backup that
     the restore would use BEFORE mutating anything, so a detected
     corruption leaves the store untouched — the caller can repair the
     frame (e.g. from an eidetic archive) and simply retry.  Every
     unsealed page verifies, so with an empty seal table the pass cannot
     raise.  Keyed on the seal table, not the checksum switch: pages
     sealed before checksums were turned off are still checked. *)
  if Store.sealed_pages store > 0 then
    iter_restore_choices st ~radixes ~global:g (fun ~pmo_id ~pno ~cp:_ ~choice ->
        match choice with
        | `Use keep when not (Store.verify_page store keep) ->
          raise (Corrupt_backup { pmo_id; pno; paddr = keep })
        | `Use _ | `Drop -> ());
  Probe.rto_phase_end probe;
  Crash_site.hit (Store.crash_sites store) "restore.precheck";
  (* A crash mid-drain abandoned a staged version: its DRAM backlog died
     with the power and its CoW restamps are moot, but the drain-saved NVM
     frames survived and are referenced by nothing at or below [g] — free
     them here, before the allocator reconciliation counts claims.
     Idempotent (the tables empty on the first pass), so a crash during
     recovery itself replays it safely. *)
  Probe.rto_phase_begin probe "drain_settle";
  let drain_dropped = Drain.abandon store st.State.drain in
  Probe.rto_phase_end probe;
  Probe.rto_phase_begin probe "oroot_select";
  (* PMO ids known to the checkpoint manager before any rollback: pages of
     any other PMO found in the crashed tree are in-flight allocations. *)
  let known_pmos = Hashtbl.create 64 in
  Hashtbl.iter
    (fun oid (o : Oroot.t) -> if o.Oroot.kind = Kobj.Pmo_k then Hashtbl.replace known_pmos oid ())
    st.State.oroots;
  (* Select the objects that belong to checkpoint [g]; mutating a table
     during iteration is undefined, so removals are collected first. *)
  let live = ref [] and dropped = ref 0 and to_drop = ref [] in
  Hashtbl.iter
    (fun oid (oroot : Oroot.t) ->
      if oroot.Oroot.first_ver > g then begin
        (* Born inside an uncommitted checkpoint: roll back. *)
        incr dropped;
        (match oroot.Oroot.pages with
        | Some pages ->
          let runtime_of pno =
            match Hashtbl.find_opt radixes oid with
            | Some radix -> Radix.get radix pno
            | None -> None
          in
          Ckpt_page.free_all store pages ~runtime_of
        | None -> ());
        to_drop := oid :: !to_drop
      end
      else
        match Oroot.latest_le oroot ~version:g with
        | Some (_, snap) -> live := (oid, oroot, snap) :: !live
        | None ->
          incr dropped;
          to_drop := oid :: !to_drop)
    st.State.oroots;
  List.iter (Hashtbl.remove st.State.oroots) !to_drop;
  Probe.rto_phase_end probe;
  (* Phase 1: materialise bare objects with their original ids. *)
  let stubs : (int, Kobj.t) Hashtbl.t = Hashtbl.create 256 in
  let pages_restored = ref 0 and pages_dropped = ref drain_dropped in
  (* Roll back page allocations of PMOs the checkpoint never saw (created
     after the last commit): the paper's comparison of the crash-time
     state against the checkpoint's state (§3, step 7). *)
  Probe.rto_phase_begin probe "page_remap";
  Hashtbl.iter
    (fun pmo_id radix ->
      if not (Hashtbl.mem known_pmos pmo_id) then
        Radix.iter
          (fun _ paddr ->
            if Paddr.is_nvm paddr then begin
              Store.free_page store paddr;
              incr pages_dropped
            end
            else if Paddr.is_ssd paddr then begin
              Store.free_ssd_page store paddr;
              incr pages_dropped
            end)
          radix)
    radixes;
  Probe.rto_phase_end probe;
  Probe.rto_phase_begin probe "materialize";
  List.iter
    (fun (oid, (oroot : Oroot.t), snap) ->
      let t_obj = Clock.now clock in
      charge_restore st snap;
      (* Roll back walk state staged by an uncommitted checkpoint: snapshot
         slots and last-seen stamps above [g] must not survive the restore,
         or a later checkpoint of the same version would find its slot
         already taken by a stale image. *)
      (match oroot.Oroot.slot_a with
      | Some (v, _) when v > g -> oroot.Oroot.slot_a <- None
      | Some _ | None -> ());
      (match oroot.Oroot.slot_b with
      | Some (v, _) when v > g -> oroot.Oroot.slot_b <- None
      | Some _ | None -> ());
      if oroot.Oroot.last_seen_ver > g then oroot.Oroot.last_seen_ver <- g;
      let obj =
        match snap with
        | Snapshot.S_cap_group { name; _ } -> Kobj.Cap_group (Kobj.make_cap_group ~id:oid ~name)
        | Snapshot.S_thread { regs; state; prio; cursor } ->
          let th = Kobj.make_thread ~id:oid ~prio in
          th.Kobj.th_regs <- Array.copy regs;
          th.Kobj.th_state <- state;
          th.Kobj.th_cursor <- cursor;
          Kobj.Thread th
        | Snapshot.S_vmspace _ -> Kobj.Vmspace (Kobj.make_vmspace ~id:oid)
        | Snapshot.S_pmo { pages; kind; eternal_frames } -> (
          let pmo = Kobj.make_pmo ~id:oid ~pages ~kind in
          match kind with
          | Kobj.Pmo_eternal ->
            (* Eternal: revive the fixed frame set; content untouched. *)
            List.iter (fun (pno, paddr) -> Radix.set pmo.Kobj.pmo_radix pno paddr) eternal_frames;
            Kobj.Pmo pmo
          | Kobj.Pmo_normal ->
            (* nested: CoW/page-table reconstruction charged to its own
               phase, subtracted from [materialize]'s exclusive time *)
            Probe.rto_phase_begin probe "page_remap";
            let cps = Oroot.pages_exn oroot in
            let runtime_of pno =
              match Hashtbl.find_opt radixes oid with
              | Some radix -> Radix.get radix pno
              | None -> None
            in
            let to_remove = ref [] in
            Ckpt_page.iter
              (fun pno cp ->
                Store.charge store (page_check_ns store);
                let runtime = runtime_of pno in
                match Ckpt_page.restore_choice cp ~global:g ~runtime with
                | `Use keep ->
                  Radix.set pmo.Kobj.pmo_radix pno keep;
                  Ckpt_page.normalize_after_restore store cp ~keep ~runtime;
                  incr pages_restored
                | `Drop ->
                  incr pages_dropped;
                  (match runtime with
                  | Some p when Paddr.is_nvm p -> Store.free_page store p
                  | Some p when Paddr.is_ssd p -> Store.free_ssd_page store p
                  | Some _ | None -> ());
                  (match cp.Ckpt_page.b1 with
                  | Some p when Paddr.is_nvm p -> Store.free_page store p
                  | Some _ | None -> ());
                  (match cp.Ckpt_page.b2 with
                  | Some p when Paddr.is_nvm p -> Store.free_page store p
                  | Some _ | None -> ());
                  to_remove := pno :: !to_remove)
              cps;
            (* Runtime pages allocated after the last walk have no CP
               record at all: roll their frames back too. Records of the
               dropped pnos above are still in place here on purpose —
               removing them first would make this sweep free the same
               runtime frame a second time. *)
            (match Hashtbl.find_opt radixes oid with
            | Some radix ->
              Radix.iter
                (fun pno p ->
                  if Ckpt_page.find cps pno = None && Paddr.is_nvm p then begin
                    Store.free_page store p;
                    incr pages_dropped
                  end)
                radix
            | None -> ());
            List.iter (fun pno -> Ckpt_page.remove cps ~pno) !to_remove;
            Probe.rto_phase_end probe;
            Kobj.Pmo pmo)
        | Snapshot.S_ipc { calls; _ } ->
          let c = Kobj.make_ipc_conn ~id:oid in
          c.Kobj.ic_calls <- calls;
          Kobj.Ipc_conn c
        | Snapshot.S_notif { count; waiters } ->
          let n = Kobj.make_notification ~id:oid in
          n.Kobj.nt_count <- count;
          n.Kobj.nt_waiters <- waiters;
          Kobj.Notification n
        | Snapshot.S_irq { line; pending } ->
          let irq = Kobj.make_irq_notification ~id:oid ~line in
          irq.Kobj.irq_pending <- pending;
          Kobj.Irq_notification irq
      in
      (* Point the ORoot's runtime at the restored object: the crashed
         object is gone, and a later dead-ORoot GC reads frames through
         this pointer. *)
      oroot.Oroot.runtime <- Some obj;
      Hashtbl.replace stubs oid obj;
      let dt = Clock.now clock - t_obj in
      Probe.rto_note_kind probe (Kobj.kind_name (Kobj.kind obj)) dt;
      Stats.add (State.obj_cost st (Kobj.kind obj)).State.restore (float_of_int dt))
    !live;
  Probe.rto_phase_end probe;
  Probe.rto_phase_begin probe "captree_rebuild";
  (* Phase 2: stitch references by object id. *)
  let find_stub oid = Hashtbl.find_opt stubs oid in
  List.iter
    (fun (oid, _oroot, snap) ->
      match (snap, find_stub oid) with
      | Snapshot.S_cap_group { slots; _ }, Some (Kobj.Cap_group cg) ->
        List.iter
          (fun (slot, target_id, rights) ->
            match find_stub target_id with
            | Some target -> Kobj.install_at cg slot { Kobj.target; rights }
            | None -> () (* referent dropped (born after g): dangling cap removed *))
          slots
      | Snapshot.S_vmspace { regions }, Some (Kobj.Vmspace vs) ->
        vs.Kobj.vs_regions <-
          List.filter_map
            (fun (vpn, pages, pmo_id, writable) ->
              match find_stub pmo_id with
              | Some (Kobj.Pmo pmo) ->
                Some { Kobj.vr_vpn = vpn; vr_pages = pages; vr_pmo = pmo; vr_writable = writable }
              | Some _ | None -> None)
            regions
      | Snapshot.S_ipc { server_tid; shared_pmo; _ }, Some (Kobj.Ipc_conn conn) ->
        (match Option.map find_stub server_tid with
        | Some (Some (Kobj.Thread th)) -> conn.Kobj.ic_server <- Some th
        | Some _ | None -> ());
        (match Option.map find_stub shared_pmo with
        | Some (Some (Kobj.Pmo p)) -> conn.Kobj.ic_shared <- Some p
        | Some _ | None -> ())
      | (Snapshot.S_thread _ | Snapshot.S_pmo _ | Snapshot.S_notif _ | Snapshot.S_irq _), _ -> ()
      | _, _ -> ())
    !live;
  (* Adopt the restored tree. *)
  let root =
    match find_stub st.State.root_id with
    | Some (Kobj.Cap_group cg) -> cg
    | Some _ | None -> failwith "Restore: root cap group missing from checkpoint"
  in
  (* The one walk of the restored tree (paper §3, step 7), kept as the
     live-tree cache: the scheduler, the dead-ORoot GC and the allocator
     reconciliation below read it, and the first checkpoint after the
     restore reuses it while the tree's edges stay as they are now. *)
  let tree = Live_tree.refresh None ~root ~oroots:st.State.oroots in
  let threads =
    Array.fold_right
      (fun (e : Live_tree.entry) acc ->
        match e.Live_tree.obj with
        | Kobj.Thread th -> th :: acc
        | Kobj.Cap_group _ | Kobj.Vmspace _ | Kobj.Pmo _ | Kobj.Ipc_conn _ | Kobj.Notification _
        | Kobj.Irq_notification _ -> acc)
      (Live_tree.entries tree) []
  in
  (* Never hand out an id an oroot still owns, even if the persisted
     high-water mark is older than this checkpoint (pre-fix stores). *)
  let ids_hwm = Hashtbl.fold (fun oid _ acc -> max acc oid) stubs st.State.ids_hwm in
  st.State.ids_hwm <- ids_hwm;
  let kernel =
    Kernel.rebuild ~store ~ncores:(Kernel.ncores crashed_kernel) ~root ~ids_hwm ~threads
  in
  st.State.kernel <- kernel;
  st.State.live_tree <- Some tree;
  st.State.crashed_root <- None;
  Active_list.clear st.State.active;
  Hashtbl.reset st.State.pending_fresh;
  Probe.rto_phase_end probe;
  Probe.rto_phase_begin probe "oroot_gc";
  (* Redo the dead-ORoot GC the crash may have interrupted: a crash between
     the version bump and [gc_dead_oroots] leaves ORoots of objects deleted
     before [g] in the table, where they would shadow recycled ids and pin
     their frames forever. Reachability from the restored root is the same
     test the committed walk would have applied. *)
  dropped := !dropped + State.gc_dead_oroots st ~live:(Live_tree.live tree);
  Probe.rto_phase_end probe;
  Probe.rto_phase_begin probe "buddy_reconcile";
  (* Final allocator reconciliation (paper section 3, step 7: compare the
     crash-time state with the checkpoint and reclaim): free every live
     buddy block no surviving subsystem claims. The canonical orphan is a
     frame whose buddy-alloc transaction committed — so the journal redo
     preserved the allocation — but which the crash cut down before any
     radix or backup slot ever referenced it. *)
  (* one byte per NVM page; [Bytes.set] bounds-checks every claim *)
  let claimed = Bytes.make (Store.nvm_pages_total store) '\000' in
  let claim_idx i = Bytes.set claimed i '\001' in
  let claim p = if Paddr.is_nvm p then claim_idx p.Paddr.idx in
  List.iter claim_idx (Treesls_nvm.Slab.slab_pages (Store.slab store));
  Array.iter
    (fun (e : Live_tree.entry) ->
      match e.Live_tree.obj with
      | Kobj.Pmo p -> Radix.iter (fun _ paddr -> claim paddr) p.Kobj.pmo_radix
      | Kobj.Cap_group _ | Kobj.Thread _ | Kobj.Vmspace _ | Kobj.Ipc_conn _ | Kobj.Notification _
      | Kobj.Irq_notification _ -> ())
    (Live_tree.entries tree);
  Hashtbl.iter
    (fun _ (o : Oroot.t) ->
      match o.Oroot.pages with
      | None -> ()
      | Some cps ->
        Ckpt_page.iter
          (fun _ cp ->
            (match cp.Ckpt_page.b1 with Some p -> claim p | None -> ());
            match cp.Ckpt_page.b2 with Some p -> claim p | None -> ())
          cps)
    st.State.oroots;
  let buddy = Store.buddy store in
  let orphans = ref [] in
  Treesls_nvm.Buddy.iter_live buddy (fun ~offset ~order ->
      let any = ref false in
      for i = offset to offset + (1 lsl order) - 1 do
        if Bytes.get claimed i <> '\000' then any := true
      done;
      if not !any then orphans := (offset, order) :: !orphans);
  List.iter
    (fun (offset, order) ->
      for i = offset + 1 to offset + (1 lsl order) - 1 do
        Store.unseal_page store (Paddr.nvm i)
      done;
      Store.free_page store (Paddr.nvm offset);
      pages_dropped := !pages_dropped + (1 lsl order))
    !orphans;
  Probe.rto_phase_end probe;
  {
    restored_objects = List.length !live;
    dropped_objects = !dropped;
    pages_restored = !pages_restored;
    pages_dropped = !pages_dropped;
    restore_ns = Clock.now clock - t0;
    version = g;
  }

let run st =
  (* Open the recovery profile (capturing the pre-crash flight tail)
     before the restore span can record anything into the ring. *)
  let probe = State.probe st in
  Probe.rto_begin_restore probe;
  let tok = Probe.enter probe "restore" in
  match run_inner st with
  | r ->
    Probe.exit probe tok ~args:(fun () ->
        [
          ("version", string_of_int r.version);
          ("restored_objects", string_of_int r.restored_objects);
          ("dropped_objects", string_of_int r.dropped_objects);
          ("pages_restored", string_of_int r.pages_restored);
          ("pages_dropped", string_of_int r.pages_dropped);
        ]);
    Probe.count probe "restore.runs" 1;
    Probe.count probe "restore.objects" r.restored_objects;
    Probe.observe probe "restore.ns" r.restore_ns;
    Probe.rto_restore_done probe ~version:r.version ~restored_objects:r.restored_objects
      ~dropped_objects:r.dropped_objects ~pages_restored:r.pages_restored
      ~pages_dropped:r.pages_dropped;
    r
  | exception e ->
    (* failed attempt: nothing trustworthy to profile; the next attempt
       opens a fresh profile (the crash instant is kept) *)
    Probe.rto_abort probe;
    Probe.exit probe tok ~args:(fun () -> [ ("failed", "true") ]);
    raise e
