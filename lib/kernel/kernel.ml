module Paddr = Treesls_nvm.Paddr
module Store = Treesls_nvm.Store
module Kobj = Treesls_cap.Kobj
module Id_gen = Treesls_cap.Id_gen
module Dirty_log = Treesls_cap.Dirty_log
module Radix = Treesls_cap.Radix
module Cost = Treesls_sim.Cost
module Clock = Treesls_sim.Clock
module Probe = Treesls_obs.Probe
module Metrics = Treesls_obs.Metrics
module Wearmap = Treesls_obs.Wearmap

type process = {
  pid : int;
  pname : string;
  cg : Kobj.cap_group;
  vms : Kobj.vmspace;
  pt : Pagetable.t;
  mutable threads : Kobj.thread list;
  mutable brk_vpn : int;
}

type stats = {
  mutable page_faults : int;
  mutable cow_faults : int;
  mutable alloc_faults : int;
  mutable syscalls : int;
  mutable ipc_calls : int;
  mutable swap_ins : int;
  mutable swap_outs : int;
}

(* Handles on the metrics a syscall, an IPC call or a fault samples. *)
type counters = {
  m_syscalls : Metrics.counter;
  m_ipc_calls : Metrics.counter;
  m_faults_cow : Metrics.counter;
  m_faults_alloc : Metrics.counter;
  m_faults_major : Metrics.counter;
}

let counters store =
  let c = Metrics.counter (Probe.metrics (Store.probe store)) in
  {
    m_syscalls = c "kernel.syscalls";
    m_ipc_calls = c "ipc.calls";
    m_faults_cow = c "kernel.faults.cow";
    m_faults_alloc = c "kernel.faults.alloc";
    m_faults_major = c "kernel.faults.major";
  }

type t = {
  store : Store.t;
  ids : Id_gen.t;
  dirty : Dirty_log.t; (* objects touched since the last checkpoint walk *)
  ncores : int;
  root : Kobj.cap_group;
  mutable procs : process list;
  mutable rmap : (Pagetable.t * int) list array array;
      (* reverse map: by PMO id, then page, every (table, vpn) mapping it *)
  sched : Sched.t;
  mutable cow_hook : (Kobj.pmo -> int -> unit) option;
  mutable fresh_hook : (Kobj.pmo -> int -> unit) option;
  stats : stats;
  m : counters;
  mutable ipc_handlers : (Bytes.t -> Bytes.t) option array;  (* by connection id *)
  mutable alive : bool;
}

let store t = t.store
let probe t = Store.probe t.store
let clock t = Store.clock t.store
let cost t = Store.cost t.store
let root t = t.root
let ids t = t.ids
let dirty_log t = t.dirty
let touch t obj = Kobj.touch t.dirty obj
let ncores t = t.ncores
let sched t = t.sched
let stats t = t.stats
let ipc_handler t ~conn_id =
  if conn_id < Array.length t.ipc_handlers then t.ipc_handlers.(conn_id) else None

let register_ipc_handler t ~conn_id h =
  if conn_id >= Array.length t.ipc_handlers then
    t.ipc_handlers <- Treesls_util.Arr.grow t.ipc_handlers conn_id None;
  t.ipc_handlers.(conn_id) <- Some h

let processes t = t.procs
let find_process t ~name = List.find_opt (fun p -> p.pname = name) t.procs

let pagetable t vms = List.find_map (fun p -> if p.vms == vms then Some p.pt else None) t.procs

(* The PMO's mappings by page; [[||]] for a PMO nothing mapped. *)
let rmap_pages t pmo = if pmo.Kobj.pmo_id < Array.length t.rmap then t.rmap.(pmo.Kobj.pmo_id) else [||]

let mappings_of_page t pmo ~pno =
  let pages = rmap_pages t pmo in
  if pno < Array.length pages then pages.(pno) else []

let rmap_add t pmo pno pt vpn =
  let id = pmo.Kobj.pmo_id in
  if id >= Array.length t.rmap then t.rmap <- Treesls_util.Arr.grow t.rmap id [||];
  if Array.length t.rmap.(id) = 0 then t.rmap.(id) <- Array.make pmo.Kobj.pmo_pages [];
  let pages = t.rmap.(id) in
  pages.(pno) <- (pt, vpn) :: pages.(pno)

let set_cow_hook t h = t.cow_hook <- h
let set_fresh_hook t h = t.fresh_hook <- h

let install_obj t owner obj rights =
  ignore (Kobj.install t.dirty owner { Kobj.target = obj; rights })

(* --- object creation ------------------------------------------------- *)

let new_pmo t ~pages ~kind =
  Kobj.make_pmo ~id:(Id_gen.next t.ids) ~pages ~kind

let create_notification t proc =
  let n = Kobj.make_notification ~id:(Id_gen.next t.ids) in
  install_obj t proc.cg (Kobj.Notification n) Treesls_cap.Rights.full;
  n

let create_irq t proc ~line =
  let irq = Kobj.make_irq_notification ~id:(Id_gen.next t.ids) ~line in
  install_obj t proc.cg (Kobj.Irq_notification irq) Treesls_cap.Rights.full;
  irq

let add_region t proc pmo ~writable =
  let vpn = proc.brk_vpn in
  let region = { Kobj.vr_vpn = vpn; vr_pages = pmo.Kobj.pmo_pages; vr_pmo = pmo; vr_writable = writable } in
  proc.vms.Kobj.vs_regions <- proc.vms.Kobj.vs_regions @ [ region ];
  touch t (Kobj.Vmspace proc.vms);
  Dirty_log.note_shape_change t.dirty;
  proc.brk_vpn <- vpn + pmo.Kobj.pmo_pages;
  vpn

let add_thread t proc ~prio =
  let th = Kobj.make_thread ~id:(Id_gen.next t.ids) ~prio in
  install_obj t proc.cg (Kobj.Thread th) Treesls_cap.Rights.full;
  (* one stack page per thread, like ChCore *)
  let stack = new_pmo t ~pages:1 ~kind:Kobj.Pmo_normal in
  install_obj t proc.cg (Kobj.Pmo stack) Treesls_cap.Rights.rw;
  ignore (add_region t proc stack ~writable:true);
  proc.threads <- proc.threads @ [ th ];
  Sched.enqueue t.sched th;
  th

let process cg vms ~threads ~brk_vpn =
  { pid = cg.Kobj.cg_id; pname = cg.Kobj.cg_name; cg; vms; pt = Pagetable.create (); threads; brk_vpn }

let create_process t ~name ~threads ~prio =
  let cg = Kobj.make_cap_group ~id:(Id_gen.next t.ids) ~name in
  install_obj t t.root (Kobj.Cap_group cg) Treesls_cap.Rights.full;
  let vms = Kobj.make_vmspace ~id:(Id_gen.next t.ids) in
  install_obj t cg (Kobj.Vmspace vms) Treesls_cap.Rights.full;
  let proc = process cg vms ~threads:[] ~brk_vpn:16 in
  let code = new_pmo t ~pages:1 ~kind:Kobj.Pmo_normal in
  install_obj t cg (Kobj.Pmo code) Treesls_cap.Rights.read_only;
  ignore (add_region t proc code ~writable:false);
  for _ = 1 to threads do
    ignore (add_thread t proc ~prio)
  done;
  t.procs <- t.procs @ [ proc ];
  proc

let exit_process t proc =
  List.iter
    (fun th ->
      th.Kobj.th_state <- Kobj.Exited;
      touch t (Kobj.Thread th))
    proc.threads;
  (* revoke the cap from the root group so the subtree becomes unreachable *)
  Kobj.iter_caps
    (fun slot c -> if Kobj.id c.Kobj.target = proc.pid then Kobj.revoke t.dirty t.root slot)
    t.root;
  t.procs <- List.filter (fun p -> p.pid <> proc.pid) t.procs;
  (* its mappings go with it: left in the reverse map, one would keep a
     page it shared writable, and so never evictable *)
  List.iter
    (fun r ->
      let pages = rmap_pages t r.Kobj.vr_pmo and kept (pt, _) = pt != proc.pt in
      Array.iteri (fun pno maps -> pages.(pno) <- List.filter kept maps) pages)
    proc.vms.Kobj.vs_regions

let grow_heap t proc ~pages =
  let pmo = new_pmo t ~pages ~kind:Kobj.Pmo_normal in
  install_obj t proc.cg (Kobj.Pmo pmo) Treesls_cap.Rights.rw;
  add_region t proc pmo ~writable:true

let map_shared t proc pmo ~writable =
  install_obj t proc.cg (Kobj.Pmo pmo)
    (if writable then Treesls_cap.Rights.rw else Treesls_cap.Rights.read_only);
  add_region t proc pmo ~writable

let make_eternal_pmo t ~pages =
  let pmo = new_pmo t ~pages ~kind:Kobj.Pmo_eternal in
  (* Eternal PMOs are fully materialised at creation: their radix never
     changes afterwards, which is what makes "do not roll back the pages"
     well-defined across recovery (§5). *)
  for i = 0 to pages - 1 do
    let paddr = Store.alloc_page t.store in
    Radix.set pmo.Kobj.pmo_radix i paddr
  done;
  touch t (Kobj.Pmo pmo);
  install_obj t t.root (Kobj.Pmo pmo) Treesls_cap.Rights.rw;
  pmo

(* --- memory paths ------------------------------------------------------ *)

let region_of proc vpn =
  let inside r = vpn >= r.Kobj.vr_vpn && vpn < r.Kobj.vr_vpn + r.Kobj.vr_pages in
  List.find_opt inside proc.vms.Kobj.vs_regions

let charge t ns = Store.charge t.store ns

let grant t ~from_proc ~to_proc ~slot ~rights =
  match Kobj.lookup from_proc.cg slot with
  | None -> invalid_arg "Kernel.grant: empty source slot"
  | Some cap ->
    if not cap.Kobj.rights.Treesls_cap.Rights.grant then
      invalid_arg "Kernel.grant: source capability lacks the grant right";
    if not (Treesls_cap.Rights.subset rights ~of_:cap.Kobj.rights) then
      invalid_arg "Kernel.grant: rights may only shrink";
    t.stats.syscalls <- t.stats.syscalls + 1;
    charge t (cost t).Cost.syscall_ns;
    Kobj.install t.dirty to_proc.cg { Kobj.target = cap.Kobj.target; rights }

let raise_irq t irq =
  charge t (cost t).Cost.trap_ns;
  irq.Kobj.irq_pending <- irq.Kobj.irq_pending + 1;
  (* wake one thread blocked on this IRQ line *)
  let woken = ref false in
  List.iter
    (fun p ->
      List.iter
        (fun th ->
          if (not !woken) && th.Kobj.th_state = Kobj.Blocked_notif (-irq.Kobj.irq_id) then begin
            woken := true;
            th.Kobj.th_state <- Kobj.Ready;
            touch t (Kobj.Thread th);
            Sched.enqueue t.sched th
          end)
        p.threads)
    t.procs;
  if !woken then irq.Kobj.irq_pending <- irq.Kobj.irq_pending - 1;
  touch t (Kobj.Irq_notification irq)

let wait_irq t irq th =
  t.stats.syscalls <- t.stats.syscalls + 1;
  charge t (cost t).Cost.syscall_ns;
  if irq.Kobj.irq_pending > 0 then begin
    irq.Kobj.irq_pending <- irq.Kobj.irq_pending - 1;
    touch t (Kobj.Irq_notification irq);
    true
  end
  else begin
    (* blocked-on-IRQ is encoded as a negative notification id so that it
       survives checkpointing through the same thread-state snapshot *)
    th.Kobj.th_state <- Kobj.Blocked_notif (-irq.Kobj.irq_id);
    touch t (Kobj.Thread th);
    false
  end


(* Major fault on a swapped-out page: bring it back from the SSD and
   repoint the radix and every PTE (memory over-commitment, paper
   section 8). *)
let swap_in_page t pmo ~pno slot =
  charge t (cost t).Cost.trap_ns;
  t.stats.page_faults <- t.stats.page_faults + 1;
  t.stats.swap_ins <- t.stats.swap_ins + 1;
  Metrics.count t.m.m_faults_major 1;
  let fresh = Store.swap_in t.store ~slot in
  Radix.set pmo.Kobj.pmo_radix pno fresh;
  List.iter (fun (pt, vpn) -> Pagetable.remap pt ~vpn ~paddr:fresh) (mappings_of_page t pmo ~pno);
  fresh

(* The fault paths: swap-in, copy-on-write upgrade, first mapping.
   Returns the PTE left installed, present and, when [for_write],
   writable. *)
let fault t proc ~vpn ~for_write =
  let pt = proc.pt in
  let cow_upgrade region pno =
    (match region.Kobj.vr_pmo.Kobj.pmo_kind with
    | Kobj.Pmo_eternal -> ()
    | Kobj.Pmo_normal -> (
      match t.cow_hook with Some h -> h region.Kobj.vr_pmo pno | None -> ()))
  in
  (* install a mapping and return its PTE *)
  let map ~paddr ~writable =
    Pagetable.map pt ~vpn ~paddr ~writable;
    Pagetable.find pt ~vpn
  in
  (* swapped-out pages fault back in before anything else *)
  let found =
    match Pagetable.lookup pt ~vpn with
    | Some pte as found when Paddr.is_ssd pte.Pagetable.paddr -> (
      match region_of proc vpn with
      | Some region ->
        let pno = vpn - region.Kobj.vr_vpn in
        ignore (swap_in_page t region.Kobj.vr_pmo ~pno pte.Pagetable.paddr);
        Pagetable.lookup pt ~vpn
      | None -> found)
    | found -> found
  in
  match found with
  | Some pte when (not for_write) || pte.Pagetable.writable -> pte
  | Some pte ->
    (* write to a read-only mapping: copy-on-write fault *)
    let region =
      match region_of proc vpn with
      | Some r -> r
      | None -> invalid_arg "Kernel: mapping without region"
    in
    if not region.Kobj.vr_writable then invalid_arg "Kernel: write to read-only region";
    charge t (cost t).Cost.trap_ns;
    t.stats.page_faults <- t.stats.page_faults + 1;
    t.stats.cow_faults <- t.stats.cow_faults + 1;
    Metrics.count t.m.m_faults_cow 1;
    cow_upgrade region (vpn - region.Kobj.vr_vpn);
    Pagetable.make_writable pt ~vpn;
    (* the PTE just joined the pagetable's dirty list: the next checkpoint
       must run the protect pass over this vmspace, so mark it dirty *)
    touch t (Kobj.Vmspace proc.vms);
    (* the CoW hook may have migrated the page; reload *)
    (match Pagetable.lookup pt ~vpn with Some p -> p | None -> pte)
  | None -> (
    let region =
      match region_of proc vpn with
      | Some r -> r
      | None -> invalid_arg (Printf.sprintf "Kernel: fault on unmapped vpn %d" vpn)
    in
    if for_write && not region.Kobj.vr_writable then
      invalid_arg "Kernel: write to read-only region";
    let pno = vpn - region.Kobj.vr_vpn in
    charge t (cost t).Cost.trap_ns;
    t.stats.page_faults <- t.stats.page_faults + 1;
    match Radix.get region.Kobj.vr_pmo.Kobj.pmo_radix pno with
    | Some slot when Paddr.is_ssd slot ->
      let paddr = swap_in_page t region.Kobj.vr_pmo ~pno slot in
      if for_write then begin
        t.stats.cow_faults <- t.stats.cow_faults + 1;
        cow_upgrade region pno
      end;
      let paddr =
        match Radix.get region.Kobj.vr_pmo.Kobj.pmo_radix pno with
        | Some p -> p
        | None -> paddr
      in
      let pte = map ~paddr ~writable:for_write in
      if for_write then touch t (Kobj.Vmspace proc.vms);
      rmap_add t region.Kobj.vr_pmo pno pt vpn;
      pte
    | Some paddr ->
      (* present in the PMO, just not in this page table (e.g. after a
         restore rebuilt page tables empty) *)
      if for_write then begin
        t.stats.cow_faults <- t.stats.cow_faults + 1;
        cow_upgrade region pno;
        (* reload: the hook may migrate *)
        let paddr =
          match Radix.get region.Kobj.vr_pmo.Kobj.pmo_radix pno with
          | Some p -> p
          | None -> paddr
        in
        let pte = map ~paddr ~writable:true in
        touch t (Kobj.Vmspace proc.vms);
        rmap_add t region.Kobj.vr_pmo pno pt vpn;
        pte
      end
      else begin
        let pte = map ~paddr ~writable:false in
        rmap_add t region.Kobj.vr_pmo pno pt vpn;
        pte
      end
    | None ->
      (* first touch: allocate the page on NVM *)
      t.stats.alloc_faults <- t.stats.alloc_faults + 1;
      Metrics.count t.m.m_faults_alloc 1;
      let paddr = Store.alloc_page t.store in
      (* a recycled frame still holds its previous owner's bytes (freed by
         a restore or by GC after an exit); fresh pages must read zero *)
      Wearmap.with_default_writer (Probe.wearmap (probe t)) "app" (fun () ->
          Store.zero_page t.store paddr);
      Radix.set region.Kobj.vr_pmo.Kobj.pmo_radix pno paddr;
      (* the fresh page needs a CP record at the next walk; the PMO must
         not be skipped before its pending-fresh list is drained *)
      touch t (Kobj.Pmo region.Kobj.vr_pmo);
      (match t.fresh_hook with Some h -> h region.Kobj.vr_pmo pno | None -> ());
      let pte = map ~paddr ~writable:for_write in
      if for_write then touch t (Kobj.Vmspace proc.vms);
      rmap_add t region.Kobj.vr_pmo pno pt vpn;
      pte)

(* The PTE mapping [vpn], present and, when [for_write], writable.  A hit
   (mapped, not swapped out, writable if need be) is one load from the
   process's page table; anything else takes the fault paths. *)
let ensure_mapped t proc ~vpn ~for_write =
  assert t.alive;
  let pte = Pagetable.find proc.pt ~vpn in
  let present = pte != Pagetable.absent && not (Paddr.is_ssd pte.Pagetable.paddr) in
  if present && ((not for_write) || pte.Pagetable.writable) then pte else fault t proc ~vpn ~for_write

let page_size t = (cost t).Cost.page_size

(* The generic write syscall claims the "app" wear context, but only as a
   default: when a more specific subsystem (extsync ring, checkpoint) is
   already on the wearmap's writer stack, its attribution wins.  Each
   chunk sets the hardware dirty bit on the PTE it wrote through. *)
let write_sub t proc ~vaddr (data : Bytes.t) ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length data then invalid_arg "Kernel.write_sub";
  Wearmap.with_default_writer (Probe.wearmap (probe t)) "app" @@ fun () ->
  let psz = page_size t in
  let rec loop vaddr src_off remaining =
    if remaining > 0 then begin
      let vpn = vaddr / psz and off = vaddr mod psz in
      let chunk = Int.min remaining (psz - off) in
      let pte = ensure_mapped t proc ~vpn ~for_write:true in
      Store.write_from t.store pte.Pagetable.paddr ~off data ~src_off ~len:chunk;
      pte.Pagetable.dirty <- true;
      loop (vaddr + chunk) (src_off + chunk) (remaining - chunk)
    end
  in
  loop vaddr off len

let write_bytes t proc ~vaddr data = write_sub t proc ~vaddr data ~off:0 ~len:(Bytes.length data)

let read_bytes t proc ~vaddr ~len =
  let psz = page_size t in
  let out = Bytes.create len in
  let rec loop vaddr dst_off remaining =
    if remaining > 0 then begin
      let vpn = vaddr / psz and off = vaddr mod psz in
      let chunk = Int.min remaining (psz - off) in
      let pte = ensure_mapped t proc ~vpn ~for_write:false in
      Store.read_into t.store pte.Pagetable.paddr ~off ~len:chunk out ~dst_off;
      loop (vaddr + chunk) (dst_off + chunk) (remaining - chunk)
    end
  in
  loop vaddr 0 len;
  out

(* A word inside one page is one [ensure_mapped], then one in-place device
   access: the faults, charge, wear and dirty bit of the byte path, with
   no buffer and no closure.  A word straddling two pages takes the byte
   path, charged per chunk. *)
let word_bytes ~len v =
  let b = Bytes.create len in
  if len = 8 then Bytes.set_int64_le b 0 (Int64.of_int v) else Bytes.set_int32_le b 0 (Int32.of_int v);
  b

let check_word len = if len <> 4 && len <> 8 then invalid_arg "Kernel: a word is 4 or 8 bytes"

let read_word t proc ~vaddr ~len =
  check_word len;
  let psz = page_size t in
  let off = vaddr mod psz in
  if off + len > psz then begin
    let b = read_bytes t proc ~vaddr ~len in
    if len = 8 then Int64.to_int (Bytes.get_int64_le b 0) else Int32.to_int (Bytes.get_int32_le b 0)
  end
  else
    let pte = ensure_mapped t proc ~vpn:(vaddr / psz) ~for_write:false in
    Store.read_word t.store pte.Pagetable.paddr ~off ~len

let write_word t proc ~vaddr ~len v =
  check_word len;
  let psz = page_size t in
  let off = vaddr mod psz in
  if off + len > psz then write_bytes t proc ~vaddr (word_bytes ~len v)
  else begin
    let wm = Probe.wearmap (probe t) in
    let claimed = Wearmap.claim_default wm "app" in
    match
      let pte = ensure_mapped t proc ~vpn:(vaddr / psz) ~for_write:true in
      Store.write_word t.store pte.Pagetable.paddr ~off ~len v;
      pte.Pagetable.dirty <- true
    with
    | () -> if claimed then Wearmap.release_default wm
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      if claimed then Wearmap.release_default wm;
      Printexc.raise_with_backtrace e bt
  end

let cookie = Bytes.make 8 '\x5a'

let touch_write t proc ~vpn =
  Wearmap.with_default_writer (Probe.wearmap (probe t)) "app" @@ fun () ->
  let pte = ensure_mapped t proc ~vpn ~for_write:true in
  Store.write_page t.store pte.Pagetable.paddr ~off:0 cookie;
  pte.Pagetable.dirty <- true

let page_paddr t proc ~vpn =
  match region_of proc vpn with
  | None -> None
  | Some _ -> Some (ensure_mapped t proc ~vpn ~for_write:false).Pagetable.paddr

let syscall t ~work_ns =
  t.stats.syscalls <- t.stats.syscalls + 1;
  Metrics.count t.m.m_syscalls 1;
  charge t ((cost t).Cost.syscall_ns + work_ns)

let note_ipc_call t =
  t.stats.ipc_calls <- t.stats.ipc_calls + 1;
  Metrics.count t.m.m_ipc_calls 1

(* --- page migration support --------------------------------------------- *)

let remap_page t pmo ~pno paddr =
  Radix.set pmo.Kobj.pmo_radix pno paddr;
  List.iter (fun (pt, vpn) -> Pagetable.remap pt ~vpn ~paddr) (mappings_of_page t pmo ~pno)

let page_dirty t pmo ~pno =
  List.exists (fun (pt, vpn) -> (Pagetable.find pt ~vpn).Pagetable.dirty) (mappings_of_page t pmo ~pno)

let clear_page_dirty t pmo ~pno =
  List.iter
    (fun (pt, vpn) -> (Pagetable.find pt ~vpn).Pagetable.dirty <- false)
    (mappings_of_page t pmo ~pno)

(* --- cold-page eviction (memory over-commitment, paper section 8) ----- *)

(* A page is evictable if it lives on NVM, is clean, and every mapping is
   already read-only (cold: it has not been written since its last
   checkpoint protection). *)
let evictable t pmo ~pno =
  pmo.Kobj.pmo_kind = Kobj.Pmo_normal
  && (match Radix.get pmo.Kobj.pmo_radix pno with
     | Some p -> Paddr.is_nvm p
     | None -> false)
  && (not (page_dirty t pmo ~pno))
  && List.for_all
       (fun (pt, vpn) -> not (Pagetable.find pt ~vpn).Pagetable.writable)
       (mappings_of_page t pmo ~pno)

let evict_page t pmo ~pno =
  if not (evictable t pmo ~pno) then false
  else
    match Radix.get pmo.Kobj.pmo_radix pno with
    | Some src -> (
      match Store.swap_out t.store ~src with
      | Some slot ->
        Radix.set pmo.Kobj.pmo_radix pno slot;
        List.iter (fun (pt, vpn) -> Pagetable.remap pt ~vpn ~paddr:slot) (mappings_of_page t pmo ~pno);
        t.stats.swap_outs <- t.stats.swap_outs + 1;
        true
      | None -> false)
    | None -> false

let evict_cold t ~limit =
  let evicted = ref 0 in
  (try
     List.iter
       (fun p ->
         List.iter
           (fun r ->
             let pmo = r.Kobj.vr_pmo in
             Radix.iter
               (fun pno _ ->
                 if !evicted < limit then begin
                   if evict_page t pmo ~pno then incr evicted
                 end
                 else raise Exit)
               pmo.Kobj.pmo_radix)
           p.vms.Kobj.vs_regions)
       t.procs
   with Exit -> ());
  !evicted

(* --- quiescence -------------------------------------------------------- *)

let quiesce t =
  let c = cost t in
  let ns = ((t.ncores - 1) * c.Cost.ipi_send_ns) + c.Cost.ipi_ack_ns in
  charge t ns;
  ns

let resume_cores t =
  let c = cost t in
  let ns = (t.ncores - 1) * c.Cost.ipi_send_ns in
  charge t ns;
  ns

(* --- failure ------------------------------------------------------------ *)

let crash t =
  Store.crash t.store;
  t.ipc_handlers <- [||];
  t.rmap <- [||];
  Sched.clear t.sched;
  t.procs <- [];
  t.alive <- false

let fresh_stats () =
  {
    page_faults = 0;
    cow_faults = 0;
    alloc_faults = 0;
    syscalls = 0;
    ipc_calls = 0;
    swap_ins = 0;
    swap_outs = 0;
  }

let derive_processes root =
  let procs = ref [] in
  Kobj.iter_caps
    (fun _ c ->
      match c.Kobj.target with
      | Kobj.Cap_group cg when cg.Kobj.cg_id <> root.Kobj.cg_id ->
        let vms = ref None and threads = ref [] in
        Kobj.iter_caps
          (fun _ inner ->
            match inner.Kobj.target with
            | Kobj.Vmspace v -> if !vms = None then vms := Some v
            | Kobj.Thread th -> threads := !threads @ [ th ]
            | Kobj.Cap_group _ | Kobj.Pmo _ | Kobj.Ipc_conn _ | Kobj.Notification _
            | Kobj.Irq_notification _ -> ())
          cg;
        (match !vms with
        | None -> () (* not a process-shaped cap group *)
        | Some vms ->
          let brk =
            List.fold_left
              (fun acc r -> max acc (r.Kobj.vr_vpn + r.Kobj.vr_pages))
              16 vms.Kobj.vs_regions
          in
          procs := !procs @ [ process cg vms ~threads:!threads ~brk_vpn:brk ])
      | Kobj.Cap_group _ | Kobj.Thread _ | Kobj.Vmspace _ | Kobj.Pmo _ | Kobj.Ipc_conn _
      | Kobj.Notification _ | Kobj.Irq_notification _ -> ())
    root;
  !procs

let rebuild ~store ~ncores ~root ~ids_hwm ~threads =
  let ids = Id_gen.create () in
  Id_gen.restore ids ids_hwm;
  let t =
    {
      store;
      ids;
      dirty = Dirty_log.create ();
      ncores;
      root;
      procs = [];
      rmap = [||];
      sched = Sched.create ();
      cow_hook = None;
      fresh_hook = None;
      stats = fresh_stats ();
      m = counters store;
      ipc_handlers = [||];
      alive = true;
    }
  in
  t.procs <- derive_processes root;
  Sched.rebuild t.sched threads;
  t

(* --- boot ---------------------------------------------------------------- *)

(* Services and their object populations are sized to reproduce the
   paper's Table 2 "Default" row: 6 cap groups, 27 threads, 9 IPC
   connections, 7 notifications, 71 PMOs, 6 VM spaces. *)
let service_spec =
  [
    (* name, threads, extra heap/buffer PMOs, notifications, IPC conns *)
    ("procmgr", 5, 3, 2, 2);
    ("fsmgr", 8, 4, 2, 2);
    ("netdrv", 6, 3, 1, 2);
    ("tmpfs", 4, 2, 1, 2);
    ("shell", 4, 2, 1, 1);
  ]

let boot ?(cost = Cost.default) ?(ncores = 8) ?(nvm_pages = 1 lsl 16) ?(dram_pages = 4096) () =
  let clock = Clock.create () in
  let store = Store.create ~cost ~clock ~nvm_pages ~dram_pages () in
  let ids = Id_gen.create () in
  let root = Kobj.make_cap_group ~id:(Id_gen.next ids) ~name:"root" in
  let t =
    {
      store;
      ids;
      dirty = Dirty_log.create ();
      ncores;
      root;
      procs = [];
      rmap = [||];
      sched = Sched.create ();
      cow_hook = None;
      fresh_hook = None;
      stats = fresh_stats ();
      m = counters store;
      ipc_handlers = [||];
      alive = true;
    }
  in
  (* kernel VM space + kernel buffer PMOs, reachable as special nodes *)
  let kvms = Kobj.make_vmspace ~id:(Id_gen.next ids) in
  install_obj t root (Kobj.Vmspace kvms) Treesls_cap.Rights.full;
  for i = 0 to 15 do
    let buf = new_pmo t ~pages:1 ~kind:Kobj.Pmo_normal in
    install_obj t root (Kobj.Pmo buf) Treesls_cap.Rights.rw;
    kvms.Kobj.vs_regions <-
      kvms.Kobj.vs_regions
      @ [ { Kobj.vr_vpn = 1024 + i; vr_pages = 1; vr_pmo = buf; vr_writable = true } ]
  done;
  touch t (Kobj.Vmspace kvms);
  Dirty_log.note_shape_change t.dirty;
  List.iter
    (fun (name, threads, extra_pmos, notifs, conns) ->
      let proc = create_process t ~name ~threads ~prio:10 in
      for _ = 1 to extra_pmos do
        ignore (grow_heap t proc ~pages:1)
      done;
      for _ = 1 to notifs do
        ignore (create_notification t proc)
      done;
      for _ = 1 to conns do
        let conn = Kobj.make_ipc_conn ~id:(Id_gen.next ids) in
        conn.Kobj.ic_server <- (match proc.threads with th :: _ -> Some th | [] -> None);
        let shared = new_pmo t ~pages:1 ~kind:Kobj.Pmo_normal in
        conn.Kobj.ic_shared <- Some shared;
        install_obj t proc.cg (Kobj.Ipc_conn conn) Treesls_cap.Rights.full
      done)
    service_spec;
  t
