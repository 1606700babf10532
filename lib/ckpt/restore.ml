module Kobj = Treesls_cap.Kobj
module Radix = Treesls_cap.Radix
module Kernel = Treesls_kernel.Kernel
module Store = Treesls_nvm.Store
module Paddr = Treesls_nvm.Paddr
module Global_meta = Treesls_nvm.Global_meta
module Crash_site = Treesls_nvm.Crash_site
module Cost = Treesls_sim.Cost
module Clock = Treesls_sim.Clock
module Dirty_log = Treesls_cap.Dirty_log
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

(* Read-only walk over every checkpointed-page record of every ORoot alive
   at [global], reporting the restore decision each record would produce
   against the frame its ORoot's runtime PMO maps.  Shared by the restore
   integrity pre-pass and the state auditor ("would a restore right now
   succeed?"). *)
let iter_restore_choices st ~global f =
  State.iter_oroots st (fun oid (oroot : Oroot.t) ->
      if oroot.Oroot.first_ver <= global then
        Option.iter
          (Ckpt_page.iter (fun pno cp ->
               f ~pmo_id:oid ~pno ~cp
                 ~choice:
                   (Ckpt_page.restore_choice cp ~global ~runtime:(Oroot.runtime_page oroot pno))))
          oroot.Oroot.pages)

(* The objects of checkpoint [global] are the ORoots with a snapshot at
   or below it ([Oroot.latest_le]).  The rest (born inside an uncommitted
   checkpoint, so every snapshot they hold is stamped above [global]) are
   not materialised, and the dead-ORoot GC after the swap drops them.
   Each pass of the restore selects them again as it scans the ORoot
   table, by ascending id (the order [restore.materialized] is hit in):
   no list of them is built.  This counts them and finds the highest id. *)
let count_selected st ~global =
  let n = ref 0 and top_id = ref (-1) in
  State.iter_oroots st (fun oid oroot ->
      match Oroot.latest_le oroot ~version:global with
      | Some _ ->
        incr n;
        top_id := oid
      | None -> ());
  (!n, !top_id)

let objects_to_materialize st =
  fst
    (count_selected st
       ~global:(Global_meta.version (Store.meta (Kernel.store st.State.kernel))))

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

(* Apply the page-record decisions after the swap: a record whose page
   the restored radix [pmo] maps keeps that frame as its runtime page (the
   crash-time frame, still read through the ORoot's runtime pointer, may
   stay as a spare); one it does not map was born after the restored
   version, and goes.  No cut lands inside restore's [oroot_gc] phase, so
   the records settle before the runtime pointer moves. *)
let settle_records store oroot cps (pmo : Kobj.pmo) =
  Ckpt_page.iter
    (fun pno cp ->
      match Radix.get pmo.Kobj.pmo_radix pno with
      | Some keep ->
        Ckpt_page.normalize_after_restore store cp ~keep ~runtime:(Oroot.runtime_page oroot pno)
      | None -> ())
    cps;
  if Ckpt_page.cardinal cps > Radix.cardinal pmo.Kobj.pmo_radix then begin
    let unborn = ref [] in
    Ckpt_page.iter
      (fun pno _ -> if not (Radix.mem pmo.Kobj.pmo_radix pno) then unborn := pno :: !unborn)
      cps;
    List.iter (fun pno -> Ckpt_page.remove cps ~pno) !unborn
  end

(* Recovery in three steps, with one free path:
   - decide: pick the checkpointed objects and, page by page, the frame
     each restored radix maps.  Reads the crash-time frames through the
     ORoots' runtime pointers; frees nothing and rewrites no page record;
   - swap: the restored tree becomes the runtime tree;
   - clean up: apply the page-record decisions and move the runtime
     pointers to the restored objects, drop the ORoots the restored tree
     does not reach, then free, in the allocator reconciliation, every
     frame and swap slot nothing names any more.
   The decide, stitch and clean-up passes each select the objects again
   by scanning the ORoot table: the restore allocates the objects it
   restores, arrays by id and little else.
   Crash sites in every step model a power cut during recovery itself.  A
   second [recover] after one starts over and reaches the same state: up
   to the swap nothing it reads has changed (the abandoned drain window
   aside, which it would forget again); after it, a record's decision is
   the same through the restored object's radix, and the reconciliation
   frees only blocks still allocated and named by nothing. *)
let run_inner st =
  let crashed_kernel = st.State.kernel in
  let store = Kernel.store crashed_kernel in
  let probe = Store.probe store in
  let clock = Store.clock store in
  let sites = Store.crash_sites store in
  let t0 = Clock.now clock in
  Probe.rto_phase_begin probe "journal_replay";
  Store.recover store;
  (* A cut inside a drain settle, after the staged version's bump: that
     version is committed, so its settle is redone here with the rest of
     the committed work — before the integrity pre-pass picks the backups
     the restore will use. *)
  Drain.roll_forward st.State.drain ~committed:(Global_meta.version (Store.meta store));
  Probe.rto_phase_end probe;
  Crash_site.hit sites "restore.begin";
  Probe.rto_phase_begin probe "meta_validate";
  let g = Global_meta.version (Store.meta store) in
  if g = 0 then raise No_checkpoint;
  (* Integrity pre-pass (paper section 8): verify every sealed backup that
     the restore would use BEFORE mutating anything, so a detected
     corruption leaves the store untouched — the caller can repair the
     frame (e.g. from an eidetic archive) and simply retry.  Every
     unsealed page verifies, so with an empty seal table the pass cannot
     raise.  Keyed on the seal table, not the checksum switch: pages
     sealed before checksums were turned off are still checked. *)
  if Store.sealed_pages store > 0 then
    iter_restore_choices st ~global:g (fun ~pmo_id ~pno ~cp:_ ~choice ->
        match choice with
        | `Use keep when not (Store.verify_page store keep) ->
          raise (Corrupt_backup { pmo_id; pno; paddr = keep })
        | `Use _ | `Drop -> ());
  Probe.rto_phase_end probe;
  Crash_site.hit sites "restore.precheck";
  (* A crash mid-drain abandoned a staged version: its DRAM backlog died
     with the power and its CoW restamps are moot.  Forget the window; its
     drain-saved frames are referenced by nothing at or below [g]. *)
  Probe.rto_phase_begin probe "drain_settle";
  Drain.abandon st.State.drain;
  Probe.rto_phase_end probe;
  Probe.rto_phase_begin probe "oroot_select";
  let selected, top_id = count_selected st ~global:g in
  Probe.rto_phase_end probe;
  Crash_site.hit sites "restore.selected";
  (* Materialise bare objects with their original ids, into [stubs]
     (indexed by id, [Kobj.absent] where nothing was selected).  A normal
     PMO's radix takes the frame each page record's restore rule picks;
     the records themselves are rewritten only after the swap.  Time is
     tallied by kind and the page remaps in one sum, and reported to the
     profiler once the loop is done, kinds in [Kobj.all_kinds] order. *)
  let stubs = Array.make (top_id + 1) Kobj.absent in
  let find_stub oid = if oid >= 0 && oid <= top_id then stubs.(oid) else Kobj.absent in
  let pages_restored = ref 0 in
  let nk = List.length Kobj.all_kinds in
  let kind_ns = Array.make nk 0 and kind_n = Array.make nk 0 in
  let remap_ns = ref 0 and remapped = ref false in
  Probe.rto_phase_begin probe "materialize";
  State.iter_oroots st (fun oid (oroot : Oroot.t) ->
      match Oroot.latest_le oroot ~version:g with
      | None -> ()
      | Some (_, snap) ->
        let t_obj = Clock.now clock in
        charge_restore st snap;
        let obj =
          match snap with
          | Snapshot.S_cap_group { name; _ } -> Kobj.Cap_group (Kobj.make_cap_group ~id:oid ~name)
          | Snapshot.S_thread { regs; state; prio; cursor } ->
            Kobj.Thread
              {
                Kobj.th_id = oid;
                th_regs = Array.copy regs;
                th_state = state;
                th_prio = prio;
                th_cursor = cursor;
              }
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
              let t_remap = Clock.now clock in
              let cps = Oroot.pages_exn oroot in
              if Ckpt_page.cardinal cps > 0 then
                Ckpt_page.iter
                  (fun pno cp ->
                    Store.charge store (page_check_ns store);
                    match
                      Ckpt_page.restore_choice cp ~global:g ~runtime:(Oroot.runtime_page oroot pno)
                    with
                    | `Use keep ->
                      Radix.set pmo.Kobj.pmo_radix pno keep;
                      incr pages_restored
                    | `Drop -> ())
                  cps;
              remap_ns := !remap_ns + (Clock.now clock - t_remap);
              remapped := true;
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
        stubs.(oid) <- obj;
        let dt = Clock.now clock - t_obj in
        let kind = Kobj.kind obj in
        let k = Kobj.kind_index kind in
        kind_n.(k) <- kind_n.(k) + 1;
        kind_ns.(k) <- kind_ns.(k) + dt;
        State.note_cost (State.obj_cost st kind).State.restore dt;
        Crash_site.hit sites "restore.materialized");
  if !remapped then Probe.rto_phase_tally probe "page_remap" !remap_ns;
  List.iter
    (fun kind ->
      let k = Kobj.kind_index kind in
      if kind_n.(k) > 0 then Probe.rto_note_kind probe (Kobj.kind_name kind) kind_ns.(k))
    Kobj.all_kinds;
  Probe.rto_phase_end probe;
  Probe.rto_phase_begin probe "captree_rebuild";
  (* Stitch references by object id.  The slot installs log into a log of
     their own, dropped with them: the restored kernel starts with an
     empty one, and the cache built below is the tree they stitched. *)
  let stitched = Dirty_log.create () in
  State.iter_oroots st (fun oid oroot ->
      match Oroot.latest_le oroot ~version:g with
      | None -> ()
      | Some (_, snap) -> (
        match (snap, stubs.(oid)) with
        | Snapshot.S_cap_group { slots; _ }, Kobj.Cap_group cg ->
          List.iter
            (fun (slot, target_id, rights) ->
              let target = find_stub target_id in
              (* a referent dropped (born after g): dangling cap removed *)
              if target != Kobj.absent then
                Kobj.install_at stitched cg slot { Kobj.target; rights })
            slots
        | Snapshot.S_vmspace { regions }, Kobj.Vmspace vs ->
          let rec restored = function
            | [] -> []
            | (vpn, pages, pmo_id, writable) :: rest -> (
              match find_stub pmo_id with
              | Kobj.Pmo pmo ->
                { Kobj.vr_vpn = vpn; vr_pages = pages; vr_pmo = pmo; vr_writable = writable }
                :: restored rest
              | Kobj.Cap_group _ | Kobj.Thread _ | Kobj.Vmspace _ | Kobj.Ipc_conn _
              | Kobj.Notification _ | Kobj.Irq_notification _ -> restored rest)
          in
          vs.Kobj.vs_regions <- restored regions
        | Snapshot.S_ipc { server_tid; shared_pmo; _ }, Kobj.Ipc_conn conn ->
          Option.iter
            (fun tid ->
              match find_stub tid with Kobj.Thread th -> conn.Kobj.ic_server <- Some th | _ -> ())
            server_tid;
          Option.iter
            (fun pid ->
              match find_stub pid with Kobj.Pmo p -> conn.Kobj.ic_shared <- Some p | _ -> ())
            shared_pmo
        | _, _ -> ()));
  (* Adopt the restored tree. *)
  let root =
    match find_stub st.State.root_id with
    | Kobj.Cap_group cg -> cg
    | _ -> failwith "Restore: root cap group missing from checkpoint"
  in
  (* The one walk of the restored tree (paper §3, step 7), kept as the
     live-tree cache: the scheduler, the dead-ORoot GC and the allocator
     reconciliation below read it, and the first checkpoint after the
     restore reuses it while the restored kernel's log notes no shape
     change.  Sized for the objects selected: the tree holds at most
     those. *)
  let tree = Live_tree.build ~objects:selected ~ids:(top_id + 1) ~root in
  let threads =
    Array.fold_right
      (fun obj acc ->
        match obj with
        | Kobj.Thread th -> th :: acc
        | Kobj.Cap_group _ | Kobj.Vmspace _ | Kobj.Pmo _ | Kobj.Ipc_conn _ | Kobj.Notification _
        | Kobj.Irq_notification _ -> acc)
      (Live_tree.entries tree) []
  in
  (* Never hand out an id an oroot still owns, even if the persisted
     high-water mark is older than this checkpoint (pre-fix stores). *)
  let ids_hwm = max st.State.ids_hwm top_id in
  st.State.ids_hwm <- ids_hwm;
  let kernel =
    Kernel.rebuild ~store ~ncores:(Kernel.ncores crashed_kernel) ~root ~ids_hwm ~threads
  in
  st.State.kernel <- kernel;
  st.State.live_tree <- Some tree;
  Active_list.clear st.State.active;
  Hashtbl.reset st.State.pending_fresh;
  Probe.rto_phase_end probe;
  Crash_site.hit sites "restore.swapped";
  Probe.rto_phase_begin probe "oroot_gc";
  State.iter_oroots st (fun oid (oroot : Oroot.t) ->
      match Oroot.latest_le oroot ~version:g with
      | None -> ()
      | Some _ ->
        (* Roll back walk state staged by an uncommitted checkpoint:
           snapshot slots stamped above [g] must not survive the restore,
           or a later checkpoint of the same version would find its slot
           already taken by a stale image. *)
        (match oroot.Oroot.slot_a with
        | Some (v, _) when v > g -> oroot.Oroot.slot_a <- None
        | Some _ | None -> ());
        (match oroot.Oroot.slot_b with
        | Some (v, _) when v > g -> oroot.Oroot.slot_b <- None
        | Some _ | None -> ());
        let obj = stubs.(oid) in
        (match (oroot.Oroot.pages, obj) with
        | Some cps, Kobj.Pmo pmo when Ckpt_page.cardinal cps > 0 ->
          settle_records store oroot cps pmo
        | _, _ -> ());
        (* The crashed object is gone: the runtime pointer names the
           restored one, whose radix maps the kept frames. *)
        oroot.Oroot.runtime <- Some obj);
  (* Drop every ORoot the restored tree does not reach: those of objects
     born after [g], and — redoing the dead-ORoot GC a crash between the
     version bump and the commit's GC interrupted — those of objects
     deleted before [g], which would shadow recycled ids and pin their
     frames forever. *)
  let dropped = List.length (State.drop_dead_oroots st ~live:tree) in
  Probe.rto_phase_end probe;
  Probe.rto_phase_begin probe "buddy_reconcile";
  (* The allocator reconciliation, the one place recovery frees (paper
     §3, step 7: compare the crash-time state with the checkpoint and
     reclaim): free every live buddy block and every used swap slot that
     nothing names by the auditor's rule ([State.iter_named_frames]).
     That is everything the rollback let go of — frames of objects and
     pages born after [g], runtime frames a restored page no longer maps,
     superseded backups, the saved frames of an abandoned drain window —
     plus any frame whose buddy-alloc transaction committed (so the
     journal redo preserved the allocation) but which the crash cut down
     before anything referenced it. *)
  (* one byte per NVM page, the state's buffer cleared; [Bytes.set]
     bounds-checks every claim *)
  let npages = Store.nvm_pages_total store in
  if Bytes.length st.State.claimed <> npages then st.State.claimed <- Bytes.create npages;
  let claimed = st.State.claimed in
  Bytes.fill claimed 0 npages '\000';
  let claim_idx i = Bytes.set claimed i '\001' in
  let ssd_named = Hashtbl.create 16 in
  (* After the ORoot GC every ORoot's runtime pointer names a restored
     object, the fresh-page notes are reset and the drain window is
     forgotten: the frames named are the slab's, the restored radixes'
     and the backups. *)
  State.iter_named_frames st ~live:tree (fun _ _ _ (p : Paddr.t) ->
      if Paddr.is_nvm p then claim_idx p.Paddr.idx
      else if Paddr.is_ssd p then Hashtbl.replace ssd_named p.Paddr.idx ());
  let buddy = Store.buddy store in
  let orphans = ref [] in
  Treesls_nvm.Buddy.iter_live buddy (fun ~offset ~order ->
      let any = ref false in
      for i = offset to offset + (1 lsl order) - 1 do
        if Bytes.get claimed i <> '\000' then any := true
      done;
      if not !any then orphans := (offset, order) :: !orphans);
  let pages_dropped = ref 0 in
  List.iter
    (fun (offset, order) ->
      for i = offset + 1 to offset + (1 lsl order) - 1 do
        Store.unseal_page store (Paddr.nvm i)
      done;
      Store.free_page store (Paddr.nvm offset);
      pages_dropped := !pages_dropped + (1 lsl order);
      Crash_site.hit sites "restore.reclaimed")
    !orphans;
  pages_dropped :=
    !pages_dropped
    + Store.reclaim_ssd_slots store ~named:(fun p -> Hashtbl.mem ssd_named p.Paddr.idx);
  Probe.rto_phase_end probe;
  {
    restored_objects = selected;
    dropped_objects = dropped;
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
