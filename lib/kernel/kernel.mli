(** The TreeSLS microkernel model.

    Owns the capability tree, processes, page tables (DRAM), the scheduler
    and the fault paths.  Applications execute as OCaml code but every
    memory access goes through {!read_bytes}/{!write_bytes}, which walk the
    page table, take faults, charge simulated time and mutate real page
    contents — so the checkpoint/restore machinery above this module
    operates on genuine state.

    The checkpoint manager (a separate library) installs hooks:
    {!set_cow_hook} is invoked on every read-only-to-writable upgrade
    (copy-on-write backup, step 6 of Figure 5) and {!set_fresh_hook} on
    every page freshly added to a PMO. *)

module Paddr = Treesls_nvm.Paddr
module Store = Treesls_nvm.Store
module Kobj = Treesls_cap.Kobj

type process = {
  pid : int;  (** equals the cap group object id *)
  pname : string;
  cg : Kobj.cap_group;
  vms : Kobj.vmspace;
  pt : Pagetable.t;  (** the page table of [vms] (DRAM), created with the process *)
  mutable threads : Kobj.thread list;
  mutable brk_vpn : int;  (** next unused virtual page number *)
}

type stats = {
  mutable page_faults : int;  (** all faults *)
  mutable cow_faults : int;  (** faults that ran the CoW backup hook *)
  mutable alloc_faults : int;  (** faults that allocated a fresh page *)
  mutable syscalls : int;
  mutable ipc_calls : int;
  mutable swap_ins : int;  (** major faults served from the SSD *)
  mutable swap_outs : int;  (** cold pages evicted to the SSD *)
}

type t

val boot :
  ?cost:Treesls_sim.Cost.t ->
  ?ncores:int ->
  ?nvm_pages:int ->
  ?dram_pages:int ->
  unit ->
  t
(** Boot a system with the standard user-space services (process manager,
    file system, network driver, tmpfs, shell), reproducing the object
    census of the paper's Default workload (Table 2 row A). *)

val store : t -> Store.t
val clock : t -> Treesls_sim.Clock.t
val cost : t -> Treesls_sim.Cost.t
val root : t -> Kobj.cap_group
val ids : t -> Treesls_cap.Id_gen.t

val dirty_log : t -> Treesls_cap.Dirty_log.t
(** What changed since the last checkpoint walk: every mutator here and
    in {!Ipc} records the objects it writes through [Kobj.touch] on this
    log, every cap-slot change records its group and notes a shape
    change, and so does every region-list replacement.  A kernel built by
    {!boot} or {!rebuild} starts with an empty one. *)

val ncores : t -> int
val sched : t -> Sched.t
val stats : t -> stats
val processes : t -> process list

val find_process : t -> name:string -> process option

val pagetable : t -> Kobj.vmspace -> Pagetable.t option
(** The page table of the live process whose VM space this is; [None]
    for a VM space no process holds (the kernel's own, which nothing
    maps). *)

val region_of : Kobj.vmspace -> int -> Kobj.vm_region option
(** The region backing a vpn: the first one in region-list order that
    covers it, as every fault resolves it. *)

(** {2 Hooks installed by the checkpoint manager} *)

val set_cow_hook : t -> (Kobj.pmo -> int -> unit) option -> unit
(** Called with (pmo, page index) just before a page becomes writable. *)

val set_fresh_hook : t -> (Kobj.pmo -> int -> unit) option -> unit
(** Called after a fresh page is allocated into a PMO. *)

(** {2 Process and object lifecycle} *)

val create_process : t -> name:string -> threads:int -> prio:int -> process
(** New process: cap group under the root, a VM space, a 1-page code PMO,
    per-thread 1-page stack PMOs, [threads] ready threads. *)

val exit_process : t -> process -> unit
(** Marks threads exited, revokes the process's cap from the root and
    drops its page table's mappings from the reverse map. *)

val grant : t -> from_proc:process -> to_proc:process -> slot:int -> rights:Treesls_cap.Rights.t -> int
(** Capability derivation: copy the capability in [from_proc]'s [slot]
    into [to_proc] with attenuated [rights]. The source capability must
    carry the grant right and [rights] must be a subset of the source's.
    Returns the destination slot. Raises [Invalid_argument] otherwise. *)

val raise_irq : t -> Kobj.irq_notification -> unit
(** Hardware interrupt arrival: bump the pending count and wake a thread
    blocked on the IRQ notification, if any. *)

val wait_irq : t -> Kobj.irq_notification -> Kobj.thread -> bool
(** Driver thread waits for an interrupt: consumes one pending interrupt
    ([true]) or blocks ([false]). *)

val create_notification : t -> process -> Kobj.notification
val create_irq : t -> process -> line:int -> Kobj.irq_notification

val grow_heap : t -> process -> pages:int -> int
(** Append a fresh PMO-backed region of [pages]; returns its first vpn.
    Pages materialise lazily on first touch. *)

val map_shared : t -> process -> Kobj.pmo -> writable:bool -> int
(** Map an existing PMO (e.g. an eternal PMO or an IPC buffer) into the
    process; returns the first vpn. *)

val make_eternal_pmo : t -> pages:int -> Kobj.pmo
(** An eternal PMO (not rolled back on restore), owned by the root. *)

(** {2 Memory access (syscall-free fast path of user code)}

    An access is split at page boundaries and each chunk is charged on its
    own: [cachelines(chunk)] times the device's access ns.  A chunk whose
    page is mapped, not swapped out and, for a write, writable is a hit:
    one page-table lookup, then one blit between the caller's buffer and
    the device page.  Any other chunk first takes the fault paths (swap-in,
    copy-on-write upgrade, first mapping), which charge the trap and run
    the checkpoint manager's hooks.  A write sets the hardware dirty bit
    on the PTE it wrote through. *)

val write_bytes : t -> process -> vaddr:int -> Bytes.t -> unit
(** Copy bytes into the process's memory, faulting pages as needed and
    charging access costs. Raises [Invalid_argument] on unmapped regions or
    read-only regions. *)

val write_sub : t -> process -> vaddr:int -> Bytes.t -> off:int -> len:int -> unit
(** {!write_bytes} of the [len] bytes of the buffer from [off], with no
    intermediate copy: how a server stores a slice of a request in
    place.  The buffer is only read. *)

val read_bytes : t -> process -> vaddr:int -> len:int -> Bytes.t

val read_word : t -> process -> vaddr:int -> len:int -> int
(** The little-endian word of [len] bytes (4 or 8) at [vaddr]: what
    {!read_bytes} of those bytes returns, decoded as [Bytes.get_int64_le]
    or, sign-extended, [Bytes.get_int32_le] would, with the same faults
    and charges.  A word inside one page allocates nothing; one that
    straddles a page goes through {!read_bytes}. *)

val write_word : t -> process -> vaddr:int -> len:int -> int -> unit
(** {!write_bytes} of the low [len] bytes (4 or 8) of the int,
    little-endian: the same faults, charges, wear (["app"] unless a writer
    is active) and PTE dirty bit, and nothing allocated for a word inside
    one page. *)

val touch_write : t -> process -> vpn:int -> unit
(** Dirty a whole page cheaply (writes an 8-byte cookie): the common idiom
    of workload generators that model page-granular dirtying. *)

val page_paddr : t -> process -> vpn:int -> Paddr.t option
(** Physical page currently mapped at [vpn] (faults it in read-only if the
    region exists but the page was never touched). *)

val syscall : t -> work_ns:int -> unit
(** Charge a syscall crossing plus [work_ns] of kernel work. *)

val note_ipc_call : t -> unit
(** Count one IPC call in {!stats} and in the [ipc.calls] metric. *)

(** {2 Memory over-commitment (paper section 8)} *)

val evict_page : t -> Kobj.pmo -> pno:int -> bool
(** Swap one cold page out to the SSD: NVM-resident, clean, and read-only
    in every mapping. Returns whether it was evicted. *)

val evict_cold : t -> limit:int -> int
(** Sweep all processes and evict up to [limit] cold pages; returns how
    many were evicted. Intended to run under NVM pressure. *)

(** {2 Page migration support (hybrid copy)} *)

val remap_page : t -> Kobj.pmo -> pno:int -> Paddr.t -> unit
(** Point the PMO radix entry and every PTE mapping (pmo, pno) at a new
    physical page (NVM/DRAM migration; the data copy is the caller's). *)

val page_dirty : t -> Kobj.pmo -> pno:int -> bool
(** Whether any PTE mapping the page has its dirty bit set. *)

val clear_page_dirty : t -> Kobj.pmo -> pno:int -> unit
(** Clear the dirty bit in every PTE mapping the page (checkpoint time). *)

val mappings_of_page : t -> Kobj.pmo -> pno:int -> (Pagetable.t * int) list
(** The (page table, vpn) pairs mapping the page in live processes,
    newest first. *)

val register_ipc_handler : t -> conn_id:int -> (Bytes.t -> Bytes.t) -> unit

val ipc_handler : t -> conn_id:int -> (Bytes.t -> Bytes.t) option
(** Volatile registry of IPC handler closures, an array indexed by
    connection object id (a call hashes nothing).  Lost on {!crash};
    services re-register in their restore callbacks (used by {!Ipc}). *)

(** {2 Quiescence (checkpoint step 1/5 of Figure 5)} *)

val quiesce : t -> int
(** Leader IPIs all other cores and waits for acks; returns the charged
    pause contribution in ns. *)

val resume_cores : t -> int
(** Release cores after the checkpoint; returns charged ns. *)

(** {2 Failure} *)

val crash : t -> unit
(** Power failure: DRAM (page tables, cached pages) is lost, the runtime
    capability tree is declared inconsistent and dropped. The store
    survives. After this only {!store} and recovery entry points may be
    used. *)

val rebuild :
  store:Store.t ->
  ncores:int ->
  root:Kobj.cap_group ->
  ids_hwm:int ->
  threads:Kobj.thread list ->
  t
(** Recovery: adopt a revived capability tree as the new runtime tree,
    re-derive processes from cap groups, start with empty page tables, and
    rebuild the scheduler from [threads]: every thread reachable from
    [root], in {!Kobj.iter_tree} visit order.  Restore takes them from its
    one walk of the restored tree, so the kernel does not walk it again. *)
