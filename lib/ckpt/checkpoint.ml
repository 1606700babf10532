module Kobj = Treesls_cap.Kobj
module Radix = Treesls_cap.Radix
module Kernel = Treesls_kernel.Kernel
module Pagetable = Treesls_kernel.Pagetable
module Store = Treesls_nvm.Store
module Paddr = Treesls_nvm.Paddr
module Global_meta = Treesls_nvm.Global_meta
module Crash_site = Treesls_nvm.Crash_site
module Cost = Treesls_sim.Cost
module Clock = Treesls_sim.Clock
module Stats = Treesls_util.Stats
module Id_gen = Treesls_cap.Id_gen
module Probe = Treesls_obs.Probe
module Wearmap = Treesls_obs.Wearmap

let now st = Clock.now (Kernel.clock st.State.kernel)
let with_writer st name f = Wearmap.with_writer (Probe.wearmap (State.probe st)) name f

let archive_page st pmo pno paddr =
  match st.State.page_archive_hook with Some h -> h pmo pno paddr | None -> ()

(* Charge the cost of copying one object's own state into its backup. A
   full (first-time) checkpoint additionally pays allocation and structure
   construction, which is what separates the Full and Incr columns of
   Table 3. *)
let charge_object_copy st obj ~full =
  let store = Kernel.store st.State.kernel in
  let c = Store.cost store in
  let bytes = Kobj.copy_bytes obj in
  let copy = Cost.object_copy_ns c ~to_nvm:true ~bytes_len:bytes in
  if full then Store.charge store (c.Cost.alloc_small_ns + (3 * copy))
  else Store.charge store copy

(* Checkpoint one object (step 2). Returns its ORoot, whether this was its
   full (first) checkpoint, and the snapshot bytes. *)
let checkpoint_object st live obj ~new_ver =
  let kernel = st.State.kernel in
  let store = Kernel.store kernel in
  let c = Store.cost store in
  let oroot, full = State.oroot_for st obj ~version:new_ver in
  oroot.Oroot.last_seen_ver <- new_ver;
  oroot.Oroot.runtime <- Some obj;
  oroot.Oroot.saved_gen <- Kobj.gen obj;
  charge_object_copy st obj ~full;
  let snap = Snapshot.take obj in
  Oroot.save oroot ~version:new_ver snap;
  (* the snapshot lands in the ORoot's NVM slot: physical bytes, but no
     single device page backs the (modeled) object store *)
  Wearmap.note (Probe.wearmap (State.probe st)) ~subsystem:"ckpt.snapshot"
    ~bytes:(Snapshot.bytes snap);
  (match obj with
  | Kobj.Pmo pmo when pmo.Kobj.pmo_kind = Kobj.Pmo_normal ->
    let pages = Oroot.pages_exn oroot in
    if full then
      (* First checkpoint of this PMO: build a checkpointed-page record
         for every present page. Dominates full-PMO checkpoint time. *)
      Radix.iter
        (fun pno paddr ->
          ignore (Ckpt_page.ensure store pages ~pno ~born_ver:new_ver);
          archive_page st pmo pno paddr)
        pmo.Kobj.pmo_radix
    else
      List.iter
        (fun pno -> ignore (Ckpt_page.ensure store pages ~pno ~born_ver:new_ver))
        (State.drain_fresh st pmo)
  | Kobj.Pmo _ | Kobj.Cap_group _ | Kobj.Thread _ | Kobj.Vmspace _ | Kobj.Ipc_conn _
  | Kobj.Notification _ | Kobj.Irq_notification _ -> ());
  (match obj with
  | Kobj.Vmspace vms when st.State.features.State.level >= State.Fault ->
    (* Re-arm copy-on-write: mark pages dirtied since the last checkpoint
       read-only again. DRAM-cached pages stay writable — they are covered
       by stop-and-copy, and leaving them writable is precisely how hybrid
       copy eliminates their faults. *)
    let pt = Kernel.pagetable kernel vms in
    let regions = Live_tree.region_index live vms in
    let protected_n =
      Pagetable.protect_dirty pt (fun vpn pte ->
          (match Region_index.resolve regions vpn with
          | Some (pmo, pno) -> archive_page st pmo pno pte.Pagetable.paddr
          | None -> ());
          if Paddr.is_dram pte.Pagetable.paddr then false
          else begin
            Store.charge store c.Cost.mark_ro_ns;
            (* clear the hardware dirty bit along with re-protection: the
               page is now exactly as cold as its checkpoint *)
            pte.Pagetable.dirty <- false;
            true
          end)
    in
    ignore protected_n
  | Kobj.Vmspace _ | Kobj.Cap_group _ | Kobj.Thread _ | Kobj.Pmo _ | Kobj.Ipc_conn _
  | Kobj.Notification _ | Kobj.Irq_notification _ -> ());
  (oroot, full, Snapshot.bytes snap)

(* The asynchronous drain rides on the hybrid/CoW machinery: below level
   [Hybrid] there is no DRAM cache whose copies could be deferred, so the
   feature silently degrades to eager capture. *)
let async_on st =
  let f = st.State.features in
  f.State.async_drain && f.State.level = State.Hybrid

(* Step 3: one core's traversal of its sub-list of the active page list. *)
let hybrid_sublist st ~new_ver entries counters =
  let kernel = st.State.kernel in
  let store = Kernel.store kernel in
  let dirty_copied, migrated_in, migrated_out = counters in
  List.iter
    (fun (e : Active_list.entry) ->
      let pmo = e.Active_list.e_pmo and pno = e.Active_list.e_pno in
      match Radix.get pmo.Kobj.pmo_radix pno with
      | None -> Active_list.drop st.State.active e
      | Some runtime ->
        if not e.Active_list.e_dram then begin
          (* newly appended: NVM -> DRAM migration (swapped-out pages wait
             until a fault brings them back to NVM) *)
          if not (Paddr.is_nvm runtime) then ()
          else
          match Store.alloc_dram_page store with
          | None -> () (* DRAM cache full; stay on NVM *)
          | Some dram ->
            let oroot, _ = State.oroot_for st (Kobj.Pmo pmo) ~version:new_ver in
            let pages = Oroot.pages_exn oroot in
            ignore (Ckpt_page.ensure store pages ~pno ~born_ver:new_ver);
            Store.copy_page store ~src:runtime ~dst:dram;
            Kernel.remap_page kernel pmo ~pno dram;
            (* The old NVM runtime page becomes the latest backup. *)
            (match Ckpt_page.find pages pno with
            | Some cp when cp.Ckpt_page.b2 = None ->
              Ckpt_page.attach_runtime_as_backup pages ~pno ~old_runtime:runtime ~new_ver;
              Store.seal_page store runtime;
              (* CPP needs both backups: materialise b1 now if absent. *)
              (match cp.Ckpt_page.b1 with
              | Some _ -> ()
              | None ->
                let b1 = Store.alloc_page store in
                Store.copy_page store ~src:dram ~dst:b1;
                Store.seal_page store b1;
                cp.Ckpt_page.b1 <- Some b1;
                cp.Ckpt_page.b1_ver <- new_ver)
            | Some _ | None ->
              (* unexpected CPP state: undo the migration and retire the
                 entry — leaving it live would retry (and fail) the same
                 migration on every checkpoint *)
              Kernel.remap_page kernel pmo ~pno runtime;
              Store.free_dram_page store dram;
              Active_list.drop st.State.active e);
            (match Radix.get pmo.Kobj.pmo_radix pno with
            | Some p when Paddr.is_dram p ->
              e.Active_list.e_dram <- true;
              e.Active_list.e_idle <- 0;
              Kernel.clear_page_dirty kernel pmo ~pno;
              incr migrated_in;
              Crash_site.hit (State.crash_sites st) "ckpt.hybrid.migrated_in"
            | Some _ | None -> ())
        end
        else begin
          let oroot, _ = State.oroot_for st (Kobj.Pmo pmo) ~version:new_ver in
          let pages = Oroot.pages_exn oroot in
          if Kernel.page_dirty kernel pmo ~pno then begin
            if async_on st then begin
              (* async drain: capture the page logically now — protect it
                 and flip the dirty bookkeeping as the eager copy would —
                 but owe the copy itself to the backlog.  A write landing
                 before the drain reaches it faults into
                 [resolve_cow_fault] and pays exactly one page. *)
              archive_page st pmo pno runtime;
              List.iter
                (fun (pt, vpn) -> Pagetable.protect pt ~vpn)
                (Kernel.mappings_of_page kernel pmo ~pno);
              Store.charge store (Store.cost store).Cost.mark_ro_ns;
              Kernel.clear_page_dirty kernel pmo ~pno;
              e.Active_list.e_idle <- 0;
              Drain.enqueue st.State.drain { Drain.d_pmo = pmo; d_cps = pages; d_pno = pno }
            end
            else begin
              (* dirty DRAM page: stop-and-copy into the stale backup *)
              archive_page st pmo pno runtime;
              Ckpt_page.stop_and_copy_dram store pages ~runtime ~pno ~new_ver;
              Kernel.clear_page_dirty kernel pmo ~pno;
              e.Active_list.e_idle <- 0;
              incr dirty_copied;
              Crash_site.hit (State.crash_sites st) "ckpt.hybrid.copied"
            end
          end
          else begin
            e.Active_list.e_idle <- e.Active_list.e_idle + 1;
            if e.Active_list.e_idle > (Active_list.config st.State.active).Active_list.idle_limit
            then begin
              (* cold: DRAM -> NVM demotion *)
              let nvm_page = Ckpt_page.detach_runtime_slot store pages ~pno ~latest:(Some runtime) in
              Kernel.remap_page kernel pmo ~pno nvm_page;
              (* back on NVM: resume copy-on-write tracking *)
              List.iter
                (fun (pt, vpn) -> Pagetable.protect pt ~vpn)
                (Kernel.mappings_of_page kernel pmo ~pno);
              Store.free_dram_page store runtime;
              e.Active_list.e_dram <- false;
              Active_list.drop st.State.active e;
              incr migrated_out;
              Crash_site.hit (State.crash_sites st) "ckpt.hybrid.migrated_out"
            end
          end
        end)
    entries

(* The probe tail of a commit: counters/gauges for the committed
   version, wear telemetry, then the black-box sample last — it snapshots
   the whole registry and fires the SLO watchdog + adaptive-interval
   hook. *)
let emit_commit_probes st (r : Report.t) =
  let store = Kernel.store st.State.kernel in
  let probe = State.probe st in
  Probe.count probe "ckpt.runs" 1;
  Probe.count probe "ckpt.objects_walked" r.Report.objects_walked;
  Probe.count probe "ckpt.objects_skipped" r.Report.objects_skipped;
  Probe.count probe "ckpt.full_objects" r.Report.full_objects;
  Probe.gauge probe "ckpt.dirty_fraction_pct"
    (100 * r.Report.objects_walked / max 1 (r.Report.objects_walked + r.Report.objects_skipped));
  Probe.count probe "ckpt.pages.protected" r.Report.pages_protected;
  Probe.count probe "ckpt.pages.dirty_copied" r.Report.dram_dirty_copied;
  Probe.count probe "ckpt.pages.migrated_in" r.Report.migrated_in;
  Probe.count probe "ckpt.pages.migrated_out" r.Report.migrated_out;
  Probe.gauge probe "ckpt.cached_pages" r.Report.cached_pages;
  Probe.gauge probe "ckpt.version" r.Report.version;
  Probe.observe probe "ckpt.stw_ns" r.Report.stw_ns;
  Probe.observe probe "ckpt.captree_ns" r.Report.captree_ns;
  Probe.observe probe "ckpt.hybrid_ns" r.Report.hybrid_ns;
  Probe.observe probe "ckpt.others_ns" r.Report.others_ns;
  (* drain telemetry: the per-window backlog (0 when eager, so the gauge —
     and its tseries column — exists in both modes), the total protection
     flips the window rode on, and the resolved copy/fault counts *)
  Probe.gauge probe "ckpt.drain.backlog" r.Report.pages_drained;
  Probe.gauge probe "ckpt.pages.protected.last" (r.Report.pages_protected + r.Report.pages_drained);
  if r.Report.pages_drained > 0 then Probe.count probe "ckpt.drain.pages" r.Report.pages_drained;
  if r.Report.cow_faults > 0 then Probe.count probe "ckpt.drain.cow_faults" r.Report.cow_faults;
  if r.Report.drain_ns > 0 then Probe.observe probe "ckpt.drain_ns" r.Report.drain_ns;
  (* wear telemetry: WAF ×100 (integer gauge), per-subsystem cumulative
     bytes, device materialisation watermarks, and — with tracing on — a
     Perfetto counter-track sample of the same per-subsystem series *)
  Probe.gauge probe "ckpt.nvm.waf"
    (100 * r.Report.nvm_bytes_written / max 1 r.Report.logical_dirty_bytes);
  Probe.count probe "ckpt.nvm.bytes" r.Report.nvm_bytes_written;
  List.iter
    (fun (name, _writes, bytes) -> Probe.gauge probe ("nvm.bytes_written." ^ name) bytes)
    (Wearmap.subsystems (Probe.wearmap probe));
  Probe.gauge probe "nvm.pages_touched" (Store.nvm_pages_touched store);
  Probe.gauge probe "dram.pages_touched" (Store.dram_pages_touched store);
  Probe.wear_counter_sample probe;
  (* black-box sample last, once every post-commit gauge above is in the
     registry: one tseries sample per committed version, then the SLO
     watchdog and the adaptive-interval feedback hook *)
  Probe.tseries_sample probe ~version:r.Report.version ~stw_ns:r.Report.stw_ns
    ~interval_ns:st.State.interval_ns

(* Step 4, the atomic commit: bump the version — THE durability point —
   then free the backups of objects the walk did not reach.  The walk's
   live set, not last_seen_ver, decides: the incremental walk leaves the
   last_seen_ver of skipped (but live) objects stale on purpose.  Runs
   inside the pause when nothing was deferred, at settle otherwise. *)
let commit_version st ~visited =
  Global_meta.commit_checkpoint (Store.meta (Kernel.store st.State.kernel));
  Crash_site.hit (State.crash_sites st) "ckpt.version_bump";
  ignore (State.gc_dead_oroots st ~live:visited);
  Crash_site.hit (State.crash_sites st) "ckpt.gc_done"

(* Release what waited on the commit, after the resume or at settle.  The
   commit + STW window is recorded first, so the extsync callbacks can
   attribute each released reply to this version.  WAF: NVM bytes landed
   since the previous commit (wearmap delta) over the application-level
   dirty delta; at most one of [dram_dirty_copied] and [pages_drained] is
   nonzero, so each captured page counts once in either mode. *)
let publish_commit st ~stw_t0 (r : Report.t) =
  let probe = State.probe st in
  Probe.ckpt_committed probe ~version:r.Report.version ~stw_t0 ~stw_t1:(stw_t0 + r.Report.stw_ns);
  List.iter (fun cb -> cb ()) st.State.ckpt_callbacks;
  let wear_now = Wearmap.total_bytes (Probe.wearmap probe) in
  let pages = r.Report.pages_protected + r.Report.dram_dirty_copied + r.Report.pages_drained in
  let r =
    {
      r with
      Report.nvm_bytes_written = wear_now - st.State.wear_mark;
      logical_dirty_bytes = (Store.cost (Kernel.store st.State.kernel)).Cost.page_size * pages;
    }
  in
  st.State.wear_mark <- wear_now;
  st.State.last_report <- Some r;
  emit_commit_probes st r;
  r

(* Copy up to [limit] backlog pages into their stale CPP slots on the
   follower cores (metered — the shared clock does not advance; ops running
   meanwhile only pay for pages they fault on). *)
let drain_copies st (p : Drain.pending) ~limit =
  let kernel = st.State.kernel in
  let store = Kernel.store kernel in
  let drain = st.State.drain in
  let copied = ref 0 in
  let meter = ref 0 in
  with_writer st "ckpt.drain" (fun () ->
      Store.with_sink store (Store.Meter meter) (fun () ->
          let exhausted = ref false in
          while (not !exhausted) && !copied < limit do
            match Drain.pop drain with
            | None -> exhausted := true
            | Some e -> (
              let pmo = e.Drain.d_pmo and pno = e.Drain.d_pno in
              match Radix.get pmo.Kobj.pmo_radix pno with
              | Some runtime when Paddr.is_dram runtime ->
                Ckpt_page.stop_and_copy_dram store e.Drain.d_cps ~runtime ~pno
                  ~new_ver:p.Drain.p_ver;
                List.iter
                  (fun (pt, vpn) -> Pagetable.unprotect pt ~vpn)
                  (Kernel.mappings_of_page kernel pmo ~pno);
                incr copied;
                p.Drain.p_drained <- p.Drain.p_drained + 1;
                Crash_site.hit (State.crash_sites st) "ckpt.drain.copied"
              | Some _ | None ->
                (* page vanished or left DRAM since the STW: no copy owed *)
                ())
          done));
  p.Drain.p_drain_ns <- p.Drain.p_drain_ns + !meter;
  !copied

(* The settle step: the backlog is empty — commit the staged version,
   then apply the CoW restamps and drain-saved frames, and publish.  The
   bump comes first because applying frees the backups that held N-1: a
   cut before the bump must still find them, and a cut after it finds the
   restamp/saved records, which restore's [drain_settle] rolls forward. *)
let settle_commit st (p : Drain.pending) =
  let store = Kernel.store st.State.kernel in
  commit_version st ~visited:p.Drain.p_visited;
  let meter = ref 0 in
  with_writer st "ckpt.drain" (fun () ->
      Store.with_sink store (Store.Meter meter) (fun () ->
          Drain.apply_settle store st.State.drain ~ver:p.Drain.p_ver));
  p.Drain.p_drain_ns <- p.Drain.p_drain_ns + !meter;
  Crash_site.hit (State.crash_sites st) "ckpt.drain.settled";
  Drain.clear_pending st.State.drain;
  let probe = State.probe st in
  let stw_t1 = p.Drain.p_stw_t0 + p.Drain.p_report.Report.stw_ns in
  Probe.span_at probe "ckpt.drain" ~ts_ns:stw_t1 ~dur_ns:(now st - stw_t1)
    ~args:
      [
        ("version", string_of_int p.Drain.p_ver);
        ("deferred", string_of_int p.Drain.p_enqueued);
        ("drained", string_of_int p.Drain.p_drained);
        ("cow_faults", string_of_int p.Drain.p_cow_faults);
      ];
  (* replies released by the publish attribute to the STW window that
     staged them *)
  ignore
    (publish_commit st ~stw_t0:p.Drain.p_stw_t0
       {
         p.Drain.p_report with
         Report.pages_drained = p.Drain.p_drained;
         cow_faults = p.Drain.p_cow_faults;
         drain_ns = p.Drain.p_drain_ns;
       })

(* One asynchronous drain step, called between operations (System.tick):
   copy a batch of [drain_batch] pages.  [run] force-settles any window
   still pending before the next capture — one staged version in flight,
   ever. *)
let drain_step st =
  match Drain.pending st.State.drain with
  | None -> 0
  | Some p ->
    let n = drain_copies st p ~limit:st.State.drain_batch in
    if Drain.backlog st.State.drain = 0 then settle_commit st p;
    n

let settle st =
  match Drain.pending st.State.drain with
  | None -> ()
  | Some p ->
    ignore (drain_copies st p ~limit:max_int);
    settle_commit st p

(* Write fault on a still-protected page while a drain window is pending
   (staged version N, committed version N-1).  Returns true when a window
   is pending — the fault was handled here and the caller (the Manager CoW
   hook) must not run the eager backup protocol on top. *)
let resolve_cow_fault st pmo pno =
  match Drain.pending st.State.drain with
  | None -> false
  | Some p ->
    let kernel = st.State.kernel in
    let store = Kernel.store kernel in
    let key = (pmo.Kobj.pmo_id, pno) in
    (match Drain.take st.State.drain key with
    | Some e -> (
      (* backlogged DRAM page: resolve its owed copy right now — the
         faulting op pays one page and the page reopens for writing *)
      match Radix.get pmo.Kobj.pmo_radix pno with
      | Some runtime when Paddr.is_dram runtime ->
        with_writer st "ckpt.cow_fault" (fun () ->
            Ckpt_page.stop_and_copy_dram store e.Drain.d_cps ~runtime ~pno
              ~new_ver:p.Drain.p_ver);
        List.iter
          (fun (pt, vpn) -> Pagetable.unprotect pt ~vpn)
          (Kernel.mappings_of_page kernel pmo ~pno);
        p.Drain.p_drained <- p.Drain.p_drained + 1;
        p.Drain.p_cow_faults <- p.Drain.p_cow_faults + 1;
        Crash_site.hit (State.crash_sites st) "ckpt.cow_fault.resolved"
      | Some _ | None -> ())
    | None -> (
      (* NVM page protected at the STW: its backup must serve two masters —
         a crash mid-window restores to N-1, a settled window to N. *)
      match Hashtbl.find_opt st.State.oroots pmo.Kobj.pmo_id with
      | None -> ()
      | Some oroot -> (
        match (oroot.Oroot.pages, Radix.get pmo.Kobj.pmo_radix pno) with
        | Some pages, Some runtime when Paddr.is_nvm runtime -> (
          match Ckpt_page.find pages pno with
          | None -> ()
          | Some cp ->
            let committed = Global_meta.version (Store.meta store) in
            with_writer st "ckpt.cow_fault" (fun () ->
                if Ckpt_page.cow_backup store pages ~runtime ~pno ~global:committed then begin
                  (* clean at N: the pre-image just banked equals the page's
                     content at both N-1 and N, so settle lifts the stamp to
                     N without another copy *)
                  Drain.note_restamp st.State.drain key cp;
                  p.Drain.p_cow_faults <- p.Drain.p_cow_faults + 1;
                  Crash_site.hit (State.crash_sites st) "ckpt.cow_fault.resolved"
                end
                else if
                  (cp.Ckpt_page.b1_ver = committed && cp.Ckpt_page.b1 <> None)
                  || (cp.Ckpt_page.b2_ver = committed && cp.Ckpt_page.b2 <> None)
                then begin
                  (* dirty at N (a backup stamped N-1 already exists): the
                     runtime holds the only copy of the staged content —
                     save it to a fresh frame before the write lands; settle
                     installs the frame as the N backup, a crash frees it *)
                  let frame = Store.alloc_page store in
                  Store.copy_page store ~src:runtime ~dst:frame;
                  Store.seal_page store frame;
                  Drain.note_saved st.State.drain key cp frame;
                  p.Drain.p_cow_faults <- p.Drain.p_cow_faults + 1;
                  Crash_site.hit (State.crash_sites st) "ckpt.cow_fault.resolved"
                end))
        | (Some _ | None), _ -> ())));
    true

type walk = {
  live : Live_tree.t;
  dirty : (Kobj.t * int * bool) list;
      (* checkpointed objects in walk order: (object, leader ns, full) *)
  fulls : int;
  skipped : int;
  snap_bytes : int;
  walk0 : int;
  walk_ns : int;
}

(* Step 2: the leader walks the capability tree.  Incremental walk: an
   object whose generation still matches the one recorded at its last
   checkpoint has not been mutated, so its backups are already current —
   skip snapshot/copy/charge entirely.  The tree comes from the live-tree
   cache, re-traversed only when its shape changed, so a clean object
   costs one generation compare; all of it is host-time only.  The cache's
   live set doubles as the liveness epoch: ORoots of unreached objects are
   the dead ones, so skipped objects need no per-object liveness write. *)
let walk_tree st ~new_ver =
  let probe = State.probe st in
  let tok = Probe.enter probe "ckpt.captree" in
  let walk0 = now st in
  let incremental = st.State.features.State.incremental_walk && not st.State.force_full in
  let root = Kernel.root st.State.kernel in
  let live = Live_tree.refresh st.State.live_tree ~root ~oroots:st.State.oroots in
  st.State.live_tree <- Some live;
  let dirty = ref [] and fulls = ref 0 and skipped = ref 0 and snap_bytes = ref 0 in
  with_writer st "ckpt.captree" (fun () ->
      Array.iter
        (fun (e : Live_tree.entry) ->
          let obj = e.Live_tree.obj in
          let clean =
            incremental
            &&
            match e.Live_tree.oroot with
            | Some o -> o.Oroot.saved_gen = Kobj.gen obj
            | None -> false
          in
          if clean then incr skipped
          else begin
            let t_obj0 = now st in
            let oroot, full, bytes = checkpoint_object st live obj ~new_ver in
            e.Live_tree.oroot <- Some oroot;
            Crash_site.hit (State.crash_sites st) "ckpt.captree.obj";
            if full then incr fulls;
            snap_bytes := !snap_bytes + bytes;
            dirty := (obj, now st - t_obj0, full) :: !dirty
          end)
        (Live_tree.entries live));
  st.State.force_full <- false;
  let walk_ns = now st - walk0 in
  Probe.exit probe tok
    ~args:
      [
        ("objects", string_of_int (List.length !dirty));
        ("full", string_of_int !fulls);
        ("skipped", string_of_int !skipped);
        ("snapshot_bytes", string_of_int !snap_bytes);
      ];
  Crash_site.hit (State.crash_sites st) "ckpt.captree.done";
  {
    live;
    dirty = List.rev !dirty;
    fulls = !fulls;
    skipped = !skipped;
    snap_bytes = !snap_bytes;
    walk0;
    walk_ns;
  }

(* Step 3: the other cores traverse their sub-lists of the active page
   list in parallel with the leader's walk, each on its own meter.  The
   pause lasts until both the leader and the slowest core finish, so the
   clock advances by the slowest core's excess over the walk.  Returns
   (ns, dirty pages copied, pages migrated in, pages migrated out). *)
let hybrid_copy st ~new_ver (w : walk) =
  if st.State.features.State.level <> State.Hybrid then (0, 0, 0, 0)
  else begin
    let kernel = st.State.kernel in
    let store = Kernel.store kernel in
    let probe = State.probe st in
    let (dirty_copied, migrated_in, migrated_out) as counters = (ref 0, ref 0, ref 0) in
    let worst = ref 0 in
    Array.iter
      (fun entries ->
        let meter = ref 0 in
        with_writer st "ckpt.hybrid" (fun () ->
            Store.with_sink store (Store.Meter meter) (fun () ->
                hybrid_sublist st ~new_ver entries counters));
        if !meter > !worst then worst := !meter)
      (Active_list.sublists st.State.active ~cores:(max 1 (Kernel.ncores kernel - 1)));
    Active_list.compact st.State.active;
    if !worst > w.walk_ns then Clock.advance (Kernel.clock kernel) (!worst - w.walk_ns);
    (* explicit timestamps: the span overlaps ckpt.captree *)
    Probe.span_at probe "ckpt.hybrid_copy" ~ts_ns:w.walk0 ~dur_ns:!worst
      ~args:
        [
          ("dirty_copied", string_of_int !dirty_copied);
          ("migrated_in", string_of_int !migrated_in);
          ("migrated_out", string_of_int !migrated_out);
        ];
    (!worst, !dirty_copied, !migrated_in, !migrated_out)
  end

(* The walk's captree time by object kind and by owning process, and the
   per-object cost samples of Table 3: host-time bookkeeping, tallied after
   the pause in walk order. *)
let attribute st (w : walk) =
  let add tbl k dt =
    Hashtbl.replace tbl k (dt + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  let pairs tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  let per_kind = Hashtbl.create 8 in
  (* group name -> (ns, objects, per-kind ns) *)
  let per_group : (string, int ref * int ref * (Kobj.kind, int) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun (obj, dt, full) ->
      let kind = Kobj.kind obj in
      add per_kind kind dt;
      let gname = Live_tree.owner w.live st.State.kernel (Kobj.id obj) in
      let g_ns, g_objs, g_kinds =
        match Hashtbl.find_opt per_group gname with
        | Some g -> g
        | None ->
          let g = (ref 0, ref 0, Hashtbl.create 8) in
          Hashtbl.add per_group gname g;
          g
      in
      g_ns := !g_ns + dt;
      incr g_objs;
      add g_kinds kind dt;
      let cost_stats = State.obj_cost st kind in
      Stats.add (if full then cost_stats.State.full else cost_stats.State.incr) (float_of_int dt))
    w.dirty;
  ( pairs per_kind,
    Hashtbl.fold
      (fun name (g_ns, g_objs, g_kinds) acc ->
        (name, { Report.g_ns = !g_ns; g_objects = !g_objs; g_kinds = pairs g_kinds }) :: acc)
      per_group [] )

let run st =
  (* one staged version in flight, ever: a window still draining must
     finish before the next capture starts *)
  settle st;
  let kernel = st.State.kernel in
  let store = Kernel.store kernel in
  let probe = State.probe st in
  let meta = Store.meta store in
  let new_ver = Global_meta.version meta + 1 in
  let t0 = now st in
  let stw_tok = Probe.enter probe "ckpt.stw" ~args:[ ("version", string_of_int new_ver) ] in
  (* step 1: quiesce *)
  let quiesce_tok = Probe.enter probe "ckpt.quiesce" in
  let ipi_ns = Kernel.quiesce kernel in
  Probe.exit probe quiesce_tok;
  Global_meta.begin_checkpoint meta;
  Crash_site.hit (State.crash_sites st) "ckpt.begin";
  (* the dirty pages step 2 re-protects, counted before it clears them *)
  let pages_protected =
    List.fold_left
      (fun acc p -> acc + Pagetable.dirty_count (Kernel.pagetable kernel p.Kernel.vms))
      0 (Kernel.processes kernel)
  in
  let w = walk_tree st ~new_ver in
  let hybrid_ns, dram_dirty_copied, migrated_in, migrated_out = hybrid_copy st ~new_ver w in
  (* step 4: atomic commit — or, with copies deferred to the drain, staging *)
  let others_tok = Probe.enter probe "ckpt.others" in
  let others0 = now st in
  (* The id high-water mark is part of the staged state: it must be in
     place BEFORE the version bump, or a crash right after the bump would
     restore with a stale mark and recycle ids still owned by restored
     objects. A crash before the bump leaves it too high for the rolled
     back version, which only costs id-space gaps. *)
  st.State.ids_hwm <- Id_gen.current (Kernel.ids kernel);
  (* Everything is staged.  With an empty backlog the commit happens right
     here; with deferred copies outstanding it waits in [settle_commit]
     until the drain empties — a mid-window crash rolls back to the
     still-committed N-1. *)
  Crash_site.hit (State.crash_sites st) "ckpt.publish";
  let enqueued = Drain.backlog st.State.drain in
  if enqueued = 0 then commit_version st ~visited:(Live_tree.live w.live);
  Store.charge store (Store.cost store).Cost.tlb_shootdown_ns;
  let others_ns = now st - others0 in
  Probe.exit probe others_tok;
  (* step 5: resume *)
  let resume_tok = Probe.enter probe "ckpt.resume" in
  let resume_ns = Kernel.resume_cores kernel in
  Probe.exit probe resume_tok;
  let stw_ns = now st - t0 in
  Probe.exit probe stw_tok ~args:[ ("stw_ns", string_of_int stw_ns) ];
  let per_kind_ns, per_group = attribute st w in
  let report =
    {
      Report.zero with
      Report.version = new_ver;
      stw_ns;
      ipi_ns = ipi_ns + resume_ns;
      captree_ns = w.walk_ns;
      others_ns;
      hybrid_ns;
      per_kind_ns;
      per_group;
      objects_walked = List.length w.dirty;
      full_objects = w.fulls;
      objects_skipped = w.skipped;
      pages_protected;
      dram_dirty_copied;
      migrated_in;
      migrated_out;
      cached_pages = Active_list.cached_count st.State.active;
      snapshot_bytes = w.snap_bytes;
    }
  in
  if enqueued = 0 then publish_commit st ~stw_t0:t0 report
  else begin
    (* async: the STW only staged version N — the drain owes [enqueued]
       copies, and the commit with everything downstream of it moves to
       [settle_commit].  The partial report carries the STW-side truth. *)
    Probe.gauge probe "ckpt.drain.backlog" enqueued;
    Drain.publish st.State.drain
      {
        Drain.p_ver = new_ver;
        p_visited = Live_tree.live w.live;
        p_stw_t0 = t0;
        p_enqueued = enqueued;
        p_report = report;
        p_drained = 0;
        p_cow_faults = 0;
        p_drain_ns = 0;
      };
    st.State.last_report <- Some report;
    report
  end
