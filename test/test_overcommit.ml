(* Tests for memory over-commitment (§8): SSD swap slots, cold-page
   eviction, transparent swap-in faults, and crash interactions. *)

module System = Treesls.System
module Kernel = Treesls_kernel.Kernel
module Kobj = Treesls_cap.Kobj
module Radix = Treesls_cap.Radix
module Paddr = Treesls_nvm.Paddr
module Store = Treesls_nvm.Store
module Clock = Treesls_sim.Clock
module Overcommit = Treesls_ckpt.Overcommit

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- Store-level swap ---- *)

let store_swap_roundtrip () =
  let store = Store.create ~clock:(Clock.create ()) ~nvm_pages:64 ~dram_pages:8 ~ssd_pages:16 () in
  let p = Store.alloc_page store in
  Store.write_page store p ~off:0 (Bytes.of_string "swapme");
  let free0 = Store.nvm_pages_free store in
  let slot = Option.get (Store.swap_out store ~src:p) in
  check_bool "slot on ssd" true (Paddr.is_ssd slot);
  check_int "nvm frame freed" (free0 + 1) (Store.nvm_pages_free store);
  check_int "ssd slot used" 15 (Store.ssd_slots_free store);
  let back = Store.swap_in store ~slot in
  check_bool "back on nvm" true (Paddr.is_nvm back);
  Alcotest.(check string) "content preserved" "swapme"
    (Bytes.to_string (Store.read_page store back ~off:0 ~len:6));
  check_int "ssd slot released" 16 (Store.ssd_slots_free store)

let store_swap_charges_time () =
  let clock = Clock.create () in
  let store = Store.create ~clock ~nvm_pages:64 ~dram_pages:8 ~ssd_pages:16 () in
  let p = Store.alloc_page store in
  let t0 = Clock.now clock in
  let slot = Option.get (Store.swap_out store ~src:p) in
  let t1 = Clock.now clock in
  check_bool "swap-out is expensive (us-scale)" true (t1 - t0 > 5_000);
  ignore (Store.swap_in store ~slot);
  check_bool "swap-in is expensive too" true (Clock.now clock - t1 > 5_000)

let store_ssd_exhaustion () =
  let store = Store.create ~clock:(Clock.create ()) ~nvm_pages:64 ~dram_pages:8 ~ssd_pages:2 () in
  let p1 = Store.alloc_page store and p2 = Store.alloc_page store and p3 = Store.alloc_page store in
  check_bool "1" true (Store.swap_out store ~src:p1 <> None);
  check_bool "2" true (Store.swap_out store ~src:p2 <> None);
  check_bool "full" true (Store.swap_out store ~src:p3 = None)

let store_ssd_survives_crash () =
  let store = Store.create ~clock:(Clock.create ()) ~nvm_pages:64 ~dram_pages:8 ~ssd_pages:16 () in
  let p = Store.alloc_page store in
  Store.write_page store p ~off:0 (Bytes.of_string "durable");
  let slot = Option.get (Store.swap_out store ~src:p) in
  Store.crash store;
  Store.recover store;
  Alcotest.(check string) "ssd content survives power failure" "durable"
    (Bytes.to_string (Store.read_page store slot ~off:0 ~len:7))

(* ---- kernel eviction + transparent swap-in ---- *)

(* After a recovery every swap slot is free or named by exactly one page
   of the restored tree: restore's reconciliation freed each slot the
   rollback let go of, once, and no other. *)
let ssd_slots_accounted sys ~total =
  let named = Hashtbl.create 16 and twice = ref false in
  Kobj.iter_tree ~root:(Kernel.root (System.kernel sys)) (fun obj ->
      match obj with
      | Kobj.Pmo p ->
        Radix.iter
          (fun _ (paddr : Paddr.t) ->
            if Paddr.is_ssd paddr then begin
              if Hashtbl.mem named paddr.Paddr.idx then twice := true;
              Hashtbl.replace named paddr.Paddr.idx ()
            end)
          p.Kobj.pmo_radix
      | _ -> ());
  (not !twice) && Store.ssd_slots_free (System.store sys) + Hashtbl.length named = total

let ssd_total sys = Store.ssd_slots_free (System.store sys)

let setup () =
  let sys = System.boot () in
  let k = System.kernel sys in
  let proc = Kernel.create_process k ~name:"swapper" ~threads:1 ~prio:5 in
  let vpn = Kernel.grow_heap k proc ~pages:4 in
  let psz = (Kernel.cost k).Treesls_sim.Cost.page_size in
  let pmo = (List.nth proc.Kernel.vms.Kobj.vs_regions 2).Kobj.vr_pmo in
  (sys, k, proc, vpn, pmo, psz)

let evict_requires_cold () =
  let sys, k, proc, vpn, pmo, psz = setup () in
  Kernel.write_bytes k proc ~vaddr:(vpn * psz) (Bytes.of_string "hot");
  (* freshly written: PTE writable -> not evictable *)
  check_bool "hot page not evictable" false (Kernel.evict_page k pmo ~pno:0);
  (* a checkpoint re-protects it and clears the dirty bit: now cold *)
  ignore (System.checkpoint sys);
  check_bool "cold page evictable" true (Kernel.evict_page k pmo ~pno:0);
  check_bool "radix points at ssd" true
    (match Radix.get pmo.Kobj.pmo_radix 0 with Some p -> Paddr.is_ssd p | None -> false)

let swap_in_on_read () =
  let sys, k, proc, vpn, pmo, psz = setup () in
  Kernel.write_bytes k proc ~vaddr:(vpn * psz) (Bytes.of_string "paged-out");
  ignore (System.checkpoint sys);
  check_bool "evicted" true (Kernel.evict_page k pmo ~pno:0);
  let swaps0 = (Kernel.stats k).Kernel.swap_ins in
  Alcotest.(check string) "read faults it back" "paged-out"
    (Bytes.to_string (Kernel.read_bytes k proc ~vaddr:(vpn * psz) ~len:9));
  check_int "major fault counted" (swaps0 + 1) (Kernel.stats k).Kernel.swap_ins;
  check_bool "back on nvm" true
    (match Radix.get pmo.Kobj.pmo_radix 0 with Some p -> Paddr.is_nvm p | None -> false)

let swap_in_on_write_with_cow () =
  let sys, k, proc, vpn, pmo, psz = setup () in
  let total = ssd_total sys in
  Kernel.write_bytes k proc ~vaddr:(vpn * psz) (Bytes.of_string "original");
  ignore (System.checkpoint sys);
  check_bool "evicted" true (Kernel.evict_page k pmo ~pno:0);
  (* write: swap-in + CoW backup + modification *)
  Kernel.write_bytes k proc ~vaddr:(vpn * psz) (Bytes.of_string "MODIFIED");
  let _ = System.crash_and_recover sys in
  check_bool "swap slots free or named once" true (ssd_slots_accounted sys ~total);
  let k = System.kernel sys in
  let proc = Option.get (Kernel.find_process k ~name:"swapper") in
  Alcotest.(check string) "rollback to pre-eviction content" "original"
    (Bytes.to_string (Kernel.read_bytes k proc ~vaddr:(vpn * psz) ~len:8))

let evicted_page_survives_crash () =
  let sys, k, proc, vpn, pmo, psz = setup () in
  let total = ssd_total sys in
  Kernel.write_bytes k proc ~vaddr:(vpn * psz) (Bytes.of_string "ssd-safe");
  ignore (System.checkpoint sys);
  check_bool "evicted" true (Kernel.evict_page k pmo ~pno:0);
  (* the swapped slot is now the runtime copy; crash and recover *)
  let _ = System.crash_and_recover sys in
  check_bool "swap slots free or named once" true (ssd_slots_accounted sys ~total);
  let k = System.kernel sys in
  let proc = Option.get (Kernel.find_process k ~name:"swapper") in
  Alcotest.(check string) "content restored from the swap slot" "ssd-safe"
    (Bytes.to_string (Kernel.read_bytes k proc ~vaddr:(vpn * psz) ~len:8))

let evict_cold_sweep () =
  let sys, k, proc, vpn, _, psz = setup () in
  for i = 0 to 3 do
    Kernel.write_bytes k proc ~vaddr:((vpn + i) * psz) (Bytes.of_string "cold")
  done;
  ignore (System.checkpoint sys);
  let n = Kernel.evict_cold k ~limit:3 in
  check_int "evicted up to limit" 3 n;
  check_int "stat" 3 (Kernel.stats k).Kernel.swap_outs

(* ---- policy ---- *)

let policy_relieves_pressure () =
  (* tiny NVM so application growth actually creates pressure *)
  let sys = System.boot ~nvm_pages:2048 ~interval_us:1000 () in
  let oc =
    Overcommit.attach ~low_watermark:1024 ~high_watermark:1100 ~batch:64 (System.manager sys)
  in
  let k = System.kernel sys in
  let proc = Kernel.create_process k ~name:"grower" ~threads:1 ~prio:5 in
  let vpn = Kernel.grow_heap k proc ~pages:1600 in
  (* touch pages in waves, checkpointing between waves so earlier waves
     go cold and become evictable *)
  (try
     for i = 0 to 1400 do
       Kernel.touch_write k proc ~vpn:(vpn + i);
       if i mod 100 = 99 then ignore (System.checkpoint sys)
     done
   with Out_of_memory -> Alcotest.fail "pressure not relieved");
  check_bool "pressure detected" true (Overcommit.pressure_events oc > 0);
  check_bool "pages evicted" true (Overcommit.evictions oc > 0);
  (* data is still intact through swap-in *)
  ignore (Kernel.read_bytes k proc ~vaddr:(vpn * (Kernel.cost k).Treesls_sim.Cost.page_size) ~len:8)

(* ---- property: random eviction interleavings are crash-safe ---- *)

let prop_eviction_crash_safe =
  QCheck.Test.make ~name:"overcommit: committed contents survive crash under eviction" ~count:20
    QCheck.(pair (int_bound 10_000) (int_range 15 60))
    (fun (seed, steps) ->
      let sys = System.boot () in
      let total = ssd_total sys in
      let k = System.kernel sys in
      let proc = Kernel.create_process k ~name:"pages" ~threads:1 ~prio:5 in
      let npages = 5 in
      let vpn0 = Kernel.grow_heap k proc ~pages:npages in
      let pmo = (List.nth proc.Kernel.vms.Kobj.vs_regions 2).Kobj.vr_pmo in
      let psz = (Kernel.cost k).Treesls_sim.Cost.page_size in
      let rng = Treesls_util.Rng.create (Int64.of_int seed) in
      let live = Array.make npages "" in
      let committed = ref (Array.copy live) in
      Treesls_ckpt.Manager.on_checkpoint (System.manager sys) (fun () ->
          committed := Array.copy live);
      for step = 1 to steps do
        let p = Treesls_util.Rng.int rng npages in
        match Treesls_util.Rng.int rng 4 with
        | 0 | 1 ->
          let marker = Printf.sprintf "m%04d-%d" step p in
          let proc = Option.get (Kernel.find_process k ~name:"pages") in
          Kernel.write_bytes k proc ~vaddr:((vpn0 + p) * psz) (Bytes.of_string marker);
          live.(p) <- marker
        | 2 -> ignore (Kernel.evict_page k pmo ~pno:p)
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
                (Kernel.read_bytes k proc
                   ~vaddr:((vpn0 + p) * psz)
                   ~len:(String.length expected))
            in
            if got <> expected then ok := false
          end)
        !committed;
      !ok && ssd_slots_accounted sys ~total)

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_eviction_crash_safe ]

let () =
  Alcotest.run "overcommit"
    [
      ( "store-swap",
        [
          Alcotest.test_case "roundtrip" `Quick store_swap_roundtrip;
          Alcotest.test_case "charges time" `Quick store_swap_charges_time;
          Alcotest.test_case "ssd exhaustion" `Quick store_ssd_exhaustion;
          Alcotest.test_case "ssd survives crash" `Quick store_ssd_survives_crash;
        ] );
      ( "eviction",
        [
          Alcotest.test_case "requires cold pages" `Quick evict_requires_cold;
          Alcotest.test_case "swap-in on read" `Quick swap_in_on_read;
          Alcotest.test_case "swap-in on write + CoW" `Quick swap_in_on_write_with_cow;
          Alcotest.test_case "evicted page survives crash" `Quick evicted_page_survives_crash;
          Alcotest.test_case "cold sweep" `Quick evict_cold_sweep;
        ] );
      ( "policy",
        [ Alcotest.test_case "relieves pressure" `Quick policy_relieves_pressure ] );
      ("properties", qsuite);
    ]
