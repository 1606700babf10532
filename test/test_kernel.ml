(* Tests for the microkernel: page tables, boot census, processes, memory
   paths and fault accounting, migration support, IPC, scheduler. *)

module Kernel = Treesls_kernel.Kernel
module Pagetable = Treesls_kernel.Pagetable
module Sched = Treesls_kernel.Sched
module Ipc = Treesls_kernel.Ipc
module Kobj = Treesls_cap.Kobj
module Census = Treesls_cap.Census
module Radix = Treesls_cap.Radix
module Paddr = Treesls_nvm.Paddr
module Store = Treesls_nvm.Store
module Clock = Treesls_sim.Clock
module Cost = Treesls_sim.Cost

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let boot () = Kernel.boot ~nvm_pages:(1 lsl 14) ~dram_pages:256 ()

(* ---- Pagetable ---- *)

let pt_map_lookup () =
  let pt = Pagetable.create () in
  Pagetable.map pt ~vpn:4 ~paddr:(Paddr.nvm 9) ~writable:false;
  (match Pagetable.lookup pt ~vpn:4 with
  | Some pte ->
    check_bool "paddr" true (Paddr.equal pte.Pagetable.paddr (Paddr.nvm 9));
    check_bool "ro" false pte.Pagetable.writable
  | None -> Alcotest.fail "not mapped");
  check_int "mapped count" 1 (Pagetable.mapped_count pt);
  Pagetable.unmap pt ~vpn:4;
  check_bool "unmapped" true (Pagetable.lookup pt ~vpn:4 = None)

let pt_double_map () =
  let pt = Pagetable.create () in
  Pagetable.map pt ~vpn:1 ~paddr:(Paddr.nvm 1) ~writable:false;
  Alcotest.check_raises "double map" (Invalid_argument "Pagetable.map: already mapped")
    (fun () -> Pagetable.map pt ~vpn:1 ~paddr:(Paddr.nvm 2) ~writable:false)

let pt_dirty_tracking () =
  let pt = Pagetable.create () in
  Pagetable.map pt ~vpn:1 ~paddr:(Paddr.nvm 1) ~writable:false;
  check_int "clean" 0 (Pagetable.dirty_count pt);
  Pagetable.make_writable pt ~vpn:1;
  check_int "dirty after upgrade" 1 (Pagetable.dirty_count pt);
  Pagetable.make_writable pt ~vpn:1;
  check_int "idempotent" 1 (Pagetable.dirty_count pt);
  let protected_n = Pagetable.protect_dirty pt (fun _ _ -> true) in
  check_int "protected" 1 protected_n;
  check_int "dirty list cleared" 0 (Pagetable.dirty_count pt);
  match Pagetable.lookup pt ~vpn:1 with
  | Some pte -> check_bool "read-only again" false pte.Pagetable.writable
  | None -> Alcotest.fail "mapped"

let pt_protect_skip () =
  let pt = Pagetable.create () in
  Pagetable.map pt ~vpn:1 ~paddr:(Paddr.dram 1) ~writable:true;
  let n = Pagetable.protect_dirty pt (fun _ pte -> not (Paddr.is_dram pte.Pagetable.paddr)) in
  check_int "skipped" 0 n;
  match Pagetable.lookup pt ~vpn:1 with
  | Some pte -> check_bool "still writable" true pte.Pagetable.writable
  | None -> Alcotest.fail "mapped"

let pt_remap_preserves_bits () =
  let pt = Pagetable.create () in
  Pagetable.map pt ~vpn:2 ~paddr:(Paddr.nvm 1) ~writable:true;
  (Option.get (Pagetable.lookup pt ~vpn:2)).Pagetable.dirty <- true;
  Pagetable.remap pt ~vpn:2 ~paddr:(Paddr.dram 5);
  let pte = Option.get (Pagetable.lookup pt ~vpn:2) in
  check_bool "new paddr" true (Paddr.equal pte.Pagetable.paddr (Paddr.dram 5));
  check_bool "writable kept" true pte.Pagetable.writable;
  check_bool "dirty kept" true pte.Pagetable.dirty

(* ---- boot census (Table 2 Default row) ---- *)

let boot_census () =
  let k = boot () in
  let c = Census.collect ~root:(Kernel.root k) in
  check_int "cap groups" 6 c.Census.cap_groups;
  check_int "threads" 27 c.Census.threads;
  check_int "ipc" 9 c.Census.ipcs;
  check_int "notifications" 7 c.Census.notifications;
  check_int "pmos" 71 c.Census.pmos;
  check_int "vmspaces" 6 c.Census.vmspaces;
  check_int "irqs" 0 c.Census.irqs

let boot_services_present () =
  let k = boot () in
  List.iter
    (fun name -> check_bool name true (Kernel.find_process k ~name <> None))
    [ "procmgr"; "fsmgr"; "netdrv"; "tmpfs"; "shell" ]

(* ---- processes & memory ---- *)

let proc_create () =
  let k = boot () in
  let p = Kernel.create_process k ~name:"app" ~threads:3 ~prio:5 in
  check_int "threads" 3 (List.length p.Kernel.threads);
  check_bool "find by name" true (Kernel.find_process k ~name:"app" <> None);
  check_int "regions: code + stacks" 4 (List.length p.Kernel.vms.Kobj.vs_regions)

let proc_exit_unreachable () =
  let k = boot () in
  let before = Census.collect ~root:(Kernel.root k) in
  let p = Kernel.create_process k ~name:"gone" ~threads:1 ~prio:5 in
  Kernel.exit_process k p;
  let after = Census.collect ~root:(Kernel.root k) in
  check_int "tree restored" (Census.total_objects before) (Census.total_objects after);
  check_bool "process list" true (Kernel.find_process k ~name:"gone" = None)

let mem_roundtrip () =
  let k = boot () in
  let p = Kernel.create_process k ~name:"app" ~threads:1 ~prio:5 in
  let vpn = Kernel.grow_heap k p ~pages:4 in
  let psz = (Kernel.cost k).Cost.page_size in
  let data = Bytes.of_string "The quick brown fox" in
  Kernel.write_bytes k p ~vaddr:((vpn * psz) + 100) data;
  Alcotest.(check string) "roundtrip" "The quick brown fox"
    (Bytes.to_string (Kernel.read_bytes k p ~vaddr:((vpn * psz) + 100) ~len:(Bytes.length data)))

let mem_cross_page () =
  let k = boot () in
  let p = Kernel.create_process k ~name:"app" ~threads:1 ~prio:5 in
  let vpn = Kernel.grow_heap k p ~pages:4 in
  let psz = (Kernel.cost k).Cost.page_size in
  let data = Bytes.init 100 (fun i -> Char.chr (i mod 256)) in
  Kernel.write_bytes k p ~vaddr:((vpn * psz) + psz - 50) data;
  Alcotest.(check bytes) "cross-page roundtrip" data
    (Kernel.read_bytes k p ~vaddr:((vpn * psz) + psz - 50) ~len:100)

let mem_unmapped_fails () =
  let k = boot () in
  let p = Kernel.create_process k ~name:"app" ~threads:1 ~prio:5 in
  Alcotest.check_raises "unmapped" (Invalid_argument "Kernel: fault on unmapped vpn 9999")
    (fun () -> Kernel.write_bytes k p ~vaddr:(9999 * 4096) (Bytes.of_string "x"))

let mem_readonly_region () =
  let k = boot () in
  let p = Kernel.create_process k ~name:"app" ~threads:1 ~prio:5 in
  Alcotest.check_raises "ro region" (Invalid_argument "Kernel: write to read-only region")
    (fun () -> Kernel.write_bytes k p ~vaddr:(16 * 4096) (Bytes.of_string "x"))

let mem_lazy_alloc_counts () =
  let k = boot () in
  let p = Kernel.create_process k ~name:"app" ~threads:1 ~prio:5 in
  let vpn = Kernel.grow_heap k p ~pages:8 in
  let s = Kernel.stats k in
  let before = s.Kernel.alloc_faults in
  Kernel.touch_write k p ~vpn;
  check_int "one alloc fault" (before + 1) s.Kernel.alloc_faults;
  Kernel.touch_write k p ~vpn;
  check_int "no second fault" (before + 1) s.Kernel.alloc_faults

let mem_charges_time () =
  let k = boot () in
  let p = Kernel.create_process k ~name:"app" ~threads:1 ~prio:5 in
  let vpn = Kernel.grow_heap k p ~pages:1 in
  let t0 = Clock.now (Kernel.clock k) in
  Kernel.touch_write k p ~vpn;
  check_bool "time passed" true (Clock.now (Kernel.clock k) > t0)

(* ---- exact charges on the access path ---- *)

(* Virtual ns that [f] charges. *)
let elapsed k f =
  let t0 = Clock.now (Kernel.clock k) in
  f ();
  Clock.now (Kernel.clock k) - t0

let cachelines len = (len + 63) / 64

let pte_of k p ~vpn = Option.get (Pagetable.lookup (Kernel.pagetable k p.Kernel.vms) ~vpn)

let heap_region p = List.nth p.Kernel.vms.Kobj.vs_regions 2

let mem_hit_charges_exact () =
  let k = boot () in
  let c = Kernel.cost k in
  let p = Kernel.create_process k ~name:"app" ~threads:1 ~prio:5 in
  let vpn = Kernel.grow_heap k p ~pages:1 in
  let vaddr = (vpn * c.Cost.page_size) + 10 in
  Kernel.touch_write k p ~vpn;
  check_bool "mapped writable on NVM" true
    (let pte = pte_of k p ~vpn in
     pte.Pagetable.writable && Paddr.is_nvm pte.Pagetable.paddr);
  let faults0 = (Kernel.stats k).Kernel.page_faults in
  let len = 200 in
  check_int "hit write" (cachelines len * c.Cost.nvm_write_ns)
    (elapsed k (fun () -> Kernel.write_bytes k p ~vaddr (Bytes.make len 'w')));
  check_int "hit read" (cachelines len * c.Cost.nvm_read_ns)
    (elapsed k (fun () -> ignore (Kernel.read_bytes k p ~vaddr ~len)));
  check_int "hit touch_write" (cachelines 8 * c.Cost.nvm_write_ns)
    (elapsed k (fun () -> Kernel.touch_write k p ~vpn));
  check_int "hit write_word" (cachelines 8 * c.Cost.nvm_write_ns)
    (elapsed k (fun () -> Kernel.write_word k p ~vaddr ~len:8 42));
  check_int "hit read_word" (cachelines 4 * c.Cost.nvm_read_ns)
    (elapsed k (fun () -> ignore (Kernel.read_word k p ~vaddr ~len:4)));
  check_int "no fault on a hit" faults0 (Kernel.stats k).Kernel.page_faults

let mem_straddle_charges_per_chunk () =
  let k = boot () in
  let c = Kernel.cost k in
  let psz = c.Cost.page_size in
  let p = Kernel.create_process k ~name:"app" ~threads:1 ~prio:5 in
  let vpn = Kernel.grow_heap k p ~pages:2 in
  Kernel.touch_write k p ~vpn;
  Kernel.touch_write k p ~vpn:(vpn + 1);
  let pmo = (heap_region p).Kobj.vr_pmo in
  Kernel.clear_page_dirty k pmo ~pno:0;
  Kernel.clear_page_dirty k pmo ~pno:1;
  (* 30 bytes end the first page and 70 start the second: one cacheline
     plus two, where one 100-byte access would be charged two *)
  let vaddr = ((vpn + 1) * psz) - 30 in
  check_int "two chunks charged apart" ((cachelines 30 + cachelines 70) * c.Cost.nvm_write_ns)
    (elapsed k (fun () -> Kernel.write_bytes k p ~vaddr (Bytes.make 100 's')));
  check_bool "first PTE dirty" true (pte_of k p ~vpn).Pagetable.dirty;
  check_bool "second PTE dirty" true (pte_of k p ~vpn:(vpn + 1)).Pagetable.dirty;
  check_int "read charged per chunk too" ((cachelines 30 + cachelines 70) * c.Cost.nvm_read_ns)
    (elapsed k (fun () -> ignore (Kernel.read_bytes k p ~vaddr ~len:100)));
  (* a word across the boundary: 3 bytes, then 5, one cacheline each *)
  Kernel.clear_page_dirty k pmo ~pno:0;
  Kernel.clear_page_dirty k pmo ~pno:1;
  let vaddr = ((vpn + 1) * psz) - 3 in
  check_int "straddling word written per chunk" (2 * c.Cost.nvm_write_ns)
    (elapsed k (fun () -> Kernel.write_word k p ~vaddr ~len:8 0x0102030405060708));
  check_bool "first PTE dirty after the word" true (pte_of k p ~vpn).Pagetable.dirty;
  check_bool "second PTE dirty after the word" true (pte_of k p ~vpn:(vpn + 1)).Pagetable.dirty;
  let got = ref 0 in
  check_int "straddling word read per chunk" (2 * c.Cost.nvm_read_ns)
    (elapsed k (fun () -> got := Kernel.read_word k p ~vaddr ~len:8));
  check_int "straddling word roundtrip" 0x0102030405060708 !got

let mem_reprotected_one_cow_fault () =
  let sys = Treesls.System.boot () in
  let k = Treesls.System.kernel sys in
  let c = Kernel.cost k in
  let p = Kernel.create_process k ~name:"app" ~threads:1 ~prio:5 in
  let vpn = Kernel.grow_heap k p ~pages:1 in
  let vaddr = (vpn * c.Cost.page_size) + 64 in
  let data = Bytes.make 100 'c' in
  Kernel.write_bytes k p ~vaddr data;
  ignore (Treesls.System.checkpoint sys);
  check_bool "checkpoint re-protected the page" false (pte_of k p ~vpn).Pagetable.writable;
  let s = Kernel.stats k in
  let faults0 = s.Kernel.page_faults and cow0 = s.Kernel.cow_faults in
  let first = elapsed k (fun () -> Kernel.write_bytes k p ~vaddr data) in
  check_int "first write: one CoW fault" (cow0 + 1) s.Kernel.cow_faults;
  check_int "first write: one fault in all" (faults0 + 1) s.Kernel.page_faults;
  let hit = cachelines 100 * c.Cost.nvm_write_ns in
  check_bool "fault costs a trap on top of the hit" true (first >= hit + c.Cost.trap_ns);
  check_bool "still on NVM" true (Paddr.is_nvm (pte_of k p ~vpn).Pagetable.paddr);
  check_int "second write charges the hit" hit
    (elapsed k (fun () -> Kernel.write_bytes k p ~vaddr data));
  check_int "second write: no fault" (faults0 + 1) s.Kernel.page_faults

(* ---- word accesses against the byte path ---- *)

(* The word primitives and a byte access of the same bytes, driven through
   the same steps on twin systems: every observation (value, ns, fault and
   CoW counts, PTE dirty bits, device pages touched, wear per writer) must
   agree.  The steps reach an untouched page, NVM hits, a page re-protected
   by a checkpoint, a DRAM-cached page, a swapped-out page and a word
   straddling two pages. *)
type access = {
  write : Kernel.t -> Kernel.process -> vaddr:int -> len:int -> int -> unit;
  read : Kernel.t -> Kernel.process -> vaddr:int -> len:int -> int;
}

let by_words = { write = Kernel.write_word; read = Kernel.read_word }

let by_bytes =
  {
    write =
      (fun k p ~vaddr ~len v ->
        let b = Bytes.create len in
        if len = 8 then Bytes.set_int64_le b 0 (Int64.of_int v)
        else Bytes.set_int32_le b 0 (Int32.of_int v);
        Kernel.write_bytes k p ~vaddr b);
    read =
      (fun k p ~vaddr ~len ->
        let b = Kernel.read_bytes k p ~vaddr ~len in
        if len = 8 then Int64.to_int (Bytes.get_int64_le b 0)
        else Int32.to_int (Bytes.get_int32_le b 0));
  }

let access_trace acc =
  let module System = Treesls.System in
  let module Manager = Treesls_ckpt.Manager in
  let module State = Treesls_ckpt.State in
  let module Active_list = Treesls_ckpt.Active_list in
  let module Wearmap = Treesls_obs.Wearmap in
  let sys = System.boot () in
  let k () = System.kernel sys in
  let p = Kernel.create_process (k ()) ~name:"app" ~threads:1 ~prio:5 in
  let vpn = Kernel.grow_heap (k ()) p ~pages:4 in
  let pmo = (heap_region p).Kobj.vr_pmo in
  let psz = (Kernel.cost (k ())).Cost.page_size in
  let va pg off = ((vpn + pg) * psz) + off in
  let log = ref [] in
  let observe what f =
    let k = k () in
    let s = Kernel.stats k in
    let value = ref 0 in
    let ns = elapsed k (fun () -> value := f k) in
    let dirty pg =
      match Pagetable.lookup (Kernel.pagetable k p.Kernel.vms) ~vpn:(vpn + pg) with
      | Some pte -> if pte.Pagetable.dirty then "D" else "c"
      | None -> "-"
    in
    let wear =
      String.concat ","
        (List.map
           (fun (name, writes, bytes) -> Printf.sprintf "%s:%d/%d" name writes bytes)
           (Wearmap.subsystems (System.wearmap sys)))
    in
    log :=
      Printf.sprintf "%s: value %d, %d ns, faults %d cow %d alloc %d swap-in %d, dirty %s, \
                      touched nvm %d dram %d, wear %s"
        what !value ns s.Kernel.page_faults s.Kernel.cow_faults s.Kernel.alloc_faults
        s.Kernel.swap_ins
        (String.concat "" (List.map dirty [ 0; 1; 2; 3 ]))
        (Store.nvm_pages_touched (Kernel.store k))
        (Store.dram_pages_touched (Kernel.store k))
        wear
      :: !log
  in
  let write what ~pg ~off ~len v =
    observe what (fun k ->
        acc.write k p ~vaddr:(va pg off) ~len v;
        0)
  in
  let read what ~pg ~off ~len = observe what (fun k -> acc.read k p ~vaddr:(va pg off) ~len) in
  read "untouched page, read" ~pg:0 ~off:100 ~len:8;
  write "untouched page, write" ~pg:1 ~off:200 ~len:8 0x1122334455667788;
  write "NVM hit, 4 bytes" ~pg:1 ~off:300 ~len:4 (-2);
  read "NVM hit, 4 bytes, sign-extended" ~pg:1 ~off:300 ~len:4;
  read "NVM hit, 8 bytes" ~pg:1 ~off:200 ~len:8;
  write "untouched page, 4 bytes" ~pg:2 ~off:0 ~len:4 0x7fffffff;
  write "straddling word" ~pg:2 ~off:(psz - 3) ~len:8 0x0a0b0c0d0e0f1011;
  read "straddling word, read" ~pg:2 ~off:(psz - 3) ~len:8;
  ignore (System.checkpoint sys);
  write "re-protected page: CoW" ~pg:1 ~off:200 ~len:8 7;
  read "re-protected page, read" ~pg:1 ~off:200 ~len:8;
  (* page 2 turns hot: the next checkpoint caches it in DRAM *)
  let st = Manager.state (System.manager sys) in
  for _ = 1 to (Active_list.config st.State.active).Active_list.hot_threshold do
    Active_list.record_fault st.State.active pmo 2
  done;
  ignore (System.checkpoint sys);
  check_bool "page 2 cached in DRAM" true
    (match Radix.get pmo.Kobj.pmo_radix 2 with Some pa -> Paddr.is_dram pa | None -> false);
  write "DRAM page, write" ~pg:2 ~off:64 ~len:8 (-9);
  read "DRAM page, read" ~pg:2 ~off:64 ~len:8;
  read "DRAM page, 4 bytes" ~pg:2 ~off:0 ~len:4;
  (* page 0 was only read: clean, read-only, on NVM — cold enough to swap *)
  check_bool "page 0 swapped out" true (Kernel.evict_page (k ()) pmo ~pno:0);
  read "swapped-out page, read" ~pg:0 ~off:100 ~len:8;
  check_bool "page 0 swapped out again" true
    (ignore (System.checkpoint sys);
     Kernel.evict_page (k ()) pmo ~pno:0);
  write "swapped-out page, write" ~pg:0 ~off:8 ~len:8 99;
  List.rev !log

let words_match_bytes () =
  Alcotest.(check (list string)) "word and byte accesses agree" (access_trace by_bytes)
    (access_trace by_words)

let word_length_checked () =
  let k = boot () in
  let p = Kernel.create_process k ~name:"app" ~threads:1 ~prio:5 in
  let vaddr = Kernel.grow_heap k p ~pages:1 * (Kernel.cost k).Cost.page_size in
  Alcotest.check_raises "2-byte word" (Invalid_argument "Kernel: a word is 4 or 8 bytes")
    (fun () -> Kernel.write_word k p ~vaddr ~len:2 1);
  Alcotest.check_raises "16-byte word" (Invalid_argument "Kernel: a word is 4 or 8 bytes")
    (fun () -> ignore (Kernel.read_word k p ~vaddr ~len:16))

let page_paddr_some () =
  let k = boot () in
  let p = Kernel.create_process k ~name:"app" ~threads:1 ~prio:5 in
  let vpn = Kernel.grow_heap k p ~pages:1 in
  check_bool "mapped region resolves" true (Kernel.page_paddr k p ~vpn <> None);
  check_bool "unmapped region is None" true (Kernel.page_paddr k p ~vpn:7777 = None)

(* ---- migration support ---- *)

let remap_updates_all () =
  let k = boot () in
  let p = Kernel.create_process k ~name:"app" ~threads:1 ~prio:5 in
  let vpn = Kernel.grow_heap k p ~pages:2 in
  Kernel.touch_write k p ~vpn;
  let pmo = (heap_region p).Kobj.vr_pmo in
  let new_paddr = Paddr.dram 42 in
  Kernel.remap_page k pmo ~pno:0 new_paddr;
  (match Radix.get pmo.Kobj.pmo_radix 0 with
  | Some pa -> check_bool "radix updated" true (Paddr.equal pa new_paddr)
  | None -> Alcotest.fail "page missing");
  let pt = Kernel.pagetable k p.Kernel.vms in
  match Pagetable.lookup pt ~vpn with
  | Some pte -> check_bool "pte updated" true (Paddr.equal pte.Pagetable.paddr new_paddr)
  | None -> Alcotest.fail "pte missing"

let dirty_bit_via_rmap () =
  let k = boot () in
  let p = Kernel.create_process k ~name:"app" ~threads:1 ~prio:5 in
  let vpn = Kernel.grow_heap k p ~pages:1 in
  Kernel.touch_write k p ~vpn;
  let pmo = (heap_region p).Kobj.vr_pmo in
  check_bool "dirty set" true (Kernel.page_dirty k pmo ~pno:0);
  Kernel.clear_page_dirty k pmo ~pno:0;
  check_bool "cleared" false (Kernel.page_dirty k pmo ~pno:0);
  check_int "one mapping" 1 (List.length (Kernel.mappings_of_page k pmo ~pno:0))

(* ---- eternal PMOs ---- *)

let eternal_eager () =
  let k = boot () in
  let pmo = Kernel.make_eternal_pmo k ~pages:3 in
  check_int "all pages materialised" 3 (Radix.cardinal pmo.Kobj.pmo_radix);
  check_bool "kind" true (pmo.Kobj.pmo_kind = Kobj.Pmo_eternal)

(* ---- quiescence ---- *)

let quiesce_cost_scales () =
  let k8 = Kernel.boot ~ncores:8 ~nvm_pages:(1 lsl 13) ~dram_pages:64 () in
  let k2 = Kernel.boot ~ncores:2 ~nvm_pages:(1 lsl 13) ~dram_pages:64 () in
  check_bool "more cores, longer quiesce" true (Kernel.quiesce k8 > Kernel.quiesce k2)

(* ---- sched ---- *)

let sched_basics () =
  let s = Sched.create () in
  let th = Kobj.make_thread ~id:1 ~prio:1 in
  Sched.enqueue s th;
  check_int "ready" 1 (Sched.ready_count s);
  (match Sched.pick s with
  | Some t -> check_int "picked" 1 t.Kobj.th_id
  | None -> Alcotest.fail "empty");
  check_bool "drained" true (Sched.pick s = None)

let sched_skips_blocked () =
  let s = Sched.create () in
  let th = Kobj.make_thread ~id:1 ~prio:1 in
  Sched.enqueue s th;
  th.Kobj.th_state <- Kobj.Blocked_notif 5;
  check_bool "skips blocked" true (Sched.pick s = None)

(* Every thread reachable from [root], in visit order: what restore hands
   [Kernel.rebuild] from its walk of the restored tree. *)
let tree_threads root =
  let acc = ref [] in
  Kobj.iter_tree ~root (fun obj ->
      match obj with
      | Kobj.Thread th -> acc := th :: !acc
      | Kobj.Cap_group _ | Kobj.Vmspace _ | Kobj.Pmo _ | Kobj.Ipc_conn _ | Kobj.Notification _
      | Kobj.Irq_notification _ -> ());
  List.rev !acc

let sched_rebuild () =
  let k = boot () in
  let s = Sched.create () in
  Sched.rebuild s (tree_threads (Kernel.root k));
  check_int "all ready threads enqueued" 27 (Sched.ready_count s)

(* ---- IPC ---- *)

let ipc_call_roundtrip () =
  let k = boot () in
  let a = Kernel.create_process k ~name:"client" ~threads:1 ~prio:5 in
  let b = Kernel.create_process k ~name:"server" ~threads:1 ~prio:5 in
  let conn = Ipc.create_conn k ~client:a ~server:b in
  check_bool "no handler yet" false (Ipc.has_handler k conn);
  Ipc.register_handler k conn (fun req -> Bytes.cat req (Bytes.of_string "!"));
  let reply = Ipc.call k conn (Bytes.of_string "ping") in
  Alcotest.(check string) "reply" "ping!" (Bytes.to_string reply);
  check_int "call count persisted in object" 1 conn.Kobj.ic_calls;
  check_int "kernel counter" 1 (Kernel.stats k).Kernel.ipc_calls

let ipc_no_handler () =
  let k = boot () in
  let a = Kernel.create_process k ~name:"c2" ~threads:1 ~prio:5 in
  let b = Kernel.create_process k ~name:"s2" ~threads:1 ~prio:5 in
  let conn = Ipc.create_conn k ~client:a ~server:b in
  Alcotest.check_raises "no handler"
    (Invalid_argument "Ipc.call: no handler registered (service not recovered?)") (fun () ->
      ignore (Ipc.call k conn (Bytes.of_string "x")))

let notification_semantics () =
  let k = boot () in
  let p = Kernel.create_process k ~name:"np" ~threads:1 ~prio:5 in
  let n = Kernel.create_notification k p in
  let th = List.hd p.Kernel.threads in
  Ipc.notify k n;
  check_int "count" 1 n.Kobj.nt_count;
  check_bool "wait consumes" true (Ipc.wait k n th);
  check_int "count consumed" 0 n.Kobj.nt_count;
  check_bool "blocks" false (Ipc.wait k n th);
  check_bool "state blocked" true (th.Kobj.th_state = Kobj.Blocked_notif n.Kobj.nt_id);
  Ipc.notify k n;
  check_bool "woken" true (th.Kobj.th_state = Kobj.Ready);
  check_int "no waiters left" 0 (List.length n.Kobj.nt_waiters)

(* ---- rebuild ---- *)

let rebuild_derives_processes () =
  let k = boot () in
  let p = Kernel.create_process k ~name:"app" ~threads:2 ~prio:5 in
  ignore (Kernel.grow_heap k p ~pages:4);
  let root = Kernel.root k in
  let store = Kernel.store k in
  let ids_hwm = Treesls_cap.Id_gen.current (Kernel.ids k) in
  let k2 =
    Kernel.rebuild ~store ~ncores:(Kernel.ncores k) ~root ~ids_hwm ~threads:(tree_threads root)
  in
  check_int "same process count" (List.length (Kernel.processes k))
    (List.length (Kernel.processes k2));
  let p2 = Option.get (Kernel.find_process k2 ~name:"app") in
  check_int "threads rederived" 2 (List.length p2.Kernel.threads);
  check_int "ready threads rescheduled" (Sched.ready_count (Kernel.sched k))
    (Sched.ready_count (Kernel.sched k2));
  check_bool "brk recomputed past regions" true (p2.Kernel.brk_vpn >= p.Kernel.brk_vpn);
  let fresh = Treesls_cap.Id_gen.next (Kernel.ids k2) in
  check_bool "id continuity" true (fresh > ids_hwm)

let () =
  Alcotest.run "kernel"
    [
      ( "pagetable",
        [
          Alcotest.test_case "map/lookup/unmap" `Quick pt_map_lookup;
          Alcotest.test_case "double map rejected" `Quick pt_double_map;
          Alcotest.test_case "dirty tracking" `Quick pt_dirty_tracking;
          Alcotest.test_case "protect can skip" `Quick pt_protect_skip;
          Alcotest.test_case "remap preserves bits" `Quick pt_remap_preserves_bits;
        ] );
      ( "boot",
        [
          Alcotest.test_case "Table 2 default census" `Quick boot_census;
          Alcotest.test_case "services present" `Quick boot_services_present;
        ] );
      ( "memory",
        [
          Alcotest.test_case "process create" `Quick proc_create;
          Alcotest.test_case "exit unreachable" `Quick proc_exit_unreachable;
          Alcotest.test_case "write/read roundtrip" `Quick mem_roundtrip;
          Alcotest.test_case "cross-page access" `Quick mem_cross_page;
          Alcotest.test_case "unmapped rejected" `Quick mem_unmapped_fails;
          Alcotest.test_case "read-only region" `Quick mem_readonly_region;
          Alcotest.test_case "lazy allocation counted" `Quick mem_lazy_alloc_counts;
          Alcotest.test_case "charges time" `Quick mem_charges_time;
          Alcotest.test_case "hit charges exact ns" `Quick mem_hit_charges_exact;
          Alcotest.test_case "straddling access charged per chunk" `Quick
            mem_straddle_charges_per_chunk;
          Alcotest.test_case "re-protected page: one CoW fault, then a hit" `Quick
            mem_reprotected_one_cow_fault;
          Alcotest.test_case "words match the byte path" `Quick words_match_bytes;
          Alcotest.test_case "word length checked" `Quick word_length_checked;
          Alcotest.test_case "page_paddr" `Quick page_paddr_some;
        ] );
      ( "migration",
        [
          Alcotest.test_case "remap updates radix and PTEs" `Quick remap_updates_all;
          Alcotest.test_case "dirty bit via rmap" `Quick dirty_bit_via_rmap;
        ] );
      ("eternal", [ Alcotest.test_case "eager materialisation" `Quick eternal_eager ]);
      ("quiesce", [ Alcotest.test_case "cost scales with cores" `Quick quiesce_cost_scales ]);
      ( "sched",
        [
          Alcotest.test_case "basics" `Quick sched_basics;
          Alcotest.test_case "skips blocked" `Quick sched_skips_blocked;
          Alcotest.test_case "rebuild from tree" `Quick sched_rebuild;
        ] );
      ( "ipc",
        [
          Alcotest.test_case "call roundtrip" `Quick ipc_call_roundtrip;
          Alcotest.test_case "no handler" `Quick ipc_no_handler;
          Alcotest.test_case "notification semantics" `Quick notification_semantics;
        ] );
      ("rebuild", [ Alcotest.test_case "derives processes" `Quick rebuild_derives_processes ]);
    ]
