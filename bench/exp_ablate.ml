(* Ablations of the design choices DESIGN.md calls out.

   (1) Page-copy strategy (Figure 7's design space): copy-on-write only
       versus hybrid copy, at 1000 Hz, on Memcached — runtime overhead and
       per-checkpoint fault/copy counts.
   (2) Checkpoint frequency sweep: STW time and checkpoint footprint as
       the interval shrinks.
   (3) Rebuild-vs-checkpoint page tables: measured PTE population versus
       the dirty set, showing what checkpointing page tables would add to
       every STW pause.

   Each table's rows are also emitted ([--json-dir] writes
   BENCH_ablate.json), one row per (ablation, configuration), all in
   virtual time: the eidetic archive and the two walks pin the protect
   pass and the walk that a refactor of the capture path must leave
   unchanged. *)

open Exp_common
module Pagetable = Treesls_kernel.Pagetable

let ablate_copy () =
  let run name feats =
    let sys = boot ~features:feats () in
    let rng = Rng.create 47L in
    let app = launch sys rng W_memcached in
    run_ops sys ~n:4_000 app.step;
    let k = System.kernel sys in
    let f0 = (Kernel.stats k).Kernel.cow_faults in
    let t0 = System.now_ns sys in
    let reports = collect_reports sys ~n:8_000 app.step in
    let dt = float_of_int (System.now_ns sys - t0) /. 1e6 in
    let faults = (Kernel.stats k).Kernel.cow_faults - f0 in
    let stw = avg_reports reports (fun r -> r.Report.stw_ns) /. 1e3 in
    let hybrid = avg_reports reports (fun r -> r.Report.hybrid_ns) /. 1e3 in
    let copies = avg_reports reports (fun r -> r.Report.dram_dirty_copied) in
    emit_row
      ~config:[ ("ablation", "copy"); ("config", name) ]
      ~metrics:
        [
          ("run_ms", dt);
          ("stw_us", stw);
          ("hybrid_us", hybrid);
          ("cow_faults", float_of_int faults);
          ("stop_and_copies_per_ckpt", copies);
        ];
    [ name; f1 dt; f1 stw; f1 hybrid; string_of_int faults; f1 copies ]
  in
  let rows =
    [
      run "copy-on-write only" (features State.Cow);
      run "hybrid copy" (features State.Hybrid);
    ]
  in
  Table.print ~title:"Ablation: page-copy strategy (Memcached, 1000 Hz, 8k ops)"
    ~header:
      [ "Strategy"; "run time (ms)"; "avg STW (us)"; "avg hybrid (us)"; "CoW faults"; "stop-and-copies/ckpt" ]
    rows

(* Incremental vs eager capability-tree walk (exp_incr_walk has the full
   sweep; this is the ablation column on a real workload). *)
let ablate_walk () =
  let run name feats =
    let sys = boot ~features:feats () in
    let rng = Rng.create 83L in
    let app = launch sys rng W_memcached in
    run_ops sys ~n:3_000 app.step;
    let reports = collect_reports sys ~n:6_000 app.step in
    let walked = avg_reports reports (fun r -> r.Report.objects_walked) in
    let skipped = avg_reports reports (fun r -> r.Report.objects_skipped) in
    let captree = avg_reports reports (fun r -> r.Report.captree_ns) /. 1e3 in
    let stw = avg_reports reports (fun r -> r.Report.stw_ns) /. 1e3 in
    emit_row
      ~config:[ ("ablation", "walk"); ("config", name) ]
      ~metrics:
        [
          ("objects_walked_per_ckpt", walked);
          ("objects_skipped_per_ckpt", skipped);
          ("captree_us", captree);
          ("stw_us", stw);
        ];
    [ name; f1 walked; f1 skipped; f1 captree; f1 stw ]
  in
  let rows =
    [
      run "eager" (features ~incr:false State.Hybrid);
      run "incremental" (features ~incr:true State.Hybrid);
    ]
  in
  Table.print ~title:"Ablation: eager vs incremental capability-tree walk (Memcached, 6k ops)"
    ~header:[ "Walk"; "objs walked/ckpt"; "objs skipped/ckpt"; "avg captree (us)"; "avg STW (us)" ]
    rows

let ablate_frequency () =
  let rows =
    List.map
      (fun interval_us ->
        let sys = boot ~interval_us () in
        let rng = Rng.create 53L in
        let app = launch sys rng W_memcached in
        run_ops sys ~n:3_000 app.step;
        let t0 = System.now_ns sys in
        let reports = collect_reports sys ~n:6_000 app.step in
        let dt_ms = float_of_int (System.now_ns sys - t0) /. 1e6 in
        let stw = avg_reports reports (fun r -> r.Report.stw_ns) /. 1e3 in
        let mib = float_of_int (Manager.checkpoint_bytes (System.manager sys)) /. (1024. *. 1024.) in
        let interval = Printf.sprintf "%g ms" (float_of_int interval_us /. 1e3) in
        emit_row
          ~config:[ ("ablation", "interval"); ("config", interval) ]
          ~metrics:
            [
              ("ckpts", float_of_int (List.length reports));
              ("stw_us", stw);
              ("run_ms", dt_ms);
              ("ckpt_mib", mib);
            ];
        [
          interval;
          string_of_int (List.length reports);
          f1 stw;
          f1 dt_ms;
          f1 mib;
        ])
      [ 500; 1000; 5000; 10_000; 50_000 ]
  in
  Table.print ~title:"Ablation: checkpoint interval sweep (Memcached, 6k ops)"
    ~header:[ "Interval"; "# ckpts"; "avg STW (us)"; "run time (ms)"; "ckpt MiB" ]
    rows

let ablate_pagetables () =
  let rows =
    List.map
      (fun w ->
        let sys = boot () in
        let rng = Rng.create 59L in
        let app = launch sys rng w in
        run_ops sys ~n:6_000 app.step;
        let k = System.kernel sys in
        let mapped =
          List.fold_left (fun acc p -> acc + Pagetable.mapped_count p.Kernel.pt) 0 (Kernel.processes k)
        in
        let reports = collect_reports sys ~n:2_000 app.step in
        let dirty = avg_reports reports (fun r -> r.Report.pages_protected) in
        (* checkpointing page tables would copy every PTE (~16 B each) on
           every pause; rebuilding only re-marks the dirty set. *)
        let c = Kernel.cost k in
        let pte_copy_us =
          float_of_int mapped
          *. c.Treesls_sim.Cost.word_copy_nvm_ns *. 2.0 /. 1e3
        in
        let mark_us = dirty *. float_of_int c.Treesls_sim.Cost.mark_ro_ns /. 1e3 in
        emit_row
          ~config:[ ("ablation", "pagetables"); ("config", workload_name w) ]
          ~metrics:
            [
              ("mapped_ptes", float_of_int mapped);
              ("dirty_per_ckpt", dirty);
              ("copy_pts_us", pte_copy_us);
              ("remark_us", mark_us);
            ];
        [ workload_name w; string_of_int mapped; f1 dirty; f1 pte_copy_us; f1 mark_us ])
      [ W_memcached; W_redis; W_kmeans ]
  in
  Table.print
    ~title:"Ablation: checkpointing page tables vs rebuild-on-restore (added us per STW pause)"
    ~header:
      [ "Workload"; "mapped PTEs"; "dirty/ckpt"; "copy-PTs cost (us)"; "re-mark cost (us)" ]
    rows

(* Eidetic mode (paper §8): maintaining every version is off the critical
   path in theory but costs archive space per version; measure both. *)
let ablate_eidetic () =
  let run ?(checksums = false) name attach =
    let sys = boot () in
    if checksums then Treesls_nvm.Store.set_checksums (System.store sys) true;
    let eid = attach sys in
    let rng = Rng.create 61L in
    let app = launch sys rng W_memcached in
    run_ops sys ~n:3_000 app.step;
    let t0 = System.now_ns sys in
    let reports = collect_reports sys ~n:6_000 app.step in
    let dt_ms = float_of_int (System.now_ns sys - t0) /. 1e6 in
    let stw = avg_reports reports (fun r -> r.Report.stw_ns) /. 1e3 in
    let space =
      match eid with
      | None -> 0.0
      | Some e ->
        let s = Treesls_ckpt.Eidetic.stats e in
        float_of_int s.Treesls_ckpt.Eidetic.page_bytes /. 1048576.0
    in
    let versions =
      match eid with
      | None -> 2 (* the normal double-buffered backups *)
      | Some e -> List.length (Treesls_ckpt.Eidetic.versions e)
    in
    emit_row
      ~config:[ ("ablation", "eidetic"); ("config", name) ]
      ~metrics:
        [
          ("versions", float_of_int versions);
          ("stw_us", stw);
          ("run_ms", dt_ms);
          ("archive_mib", space);
        ];
    [ name; string_of_int versions; f1 stw; f1 dt_ms; f2 space ]
  in
  let rows =
    [
      run "normal (2 backups)" (fun _ -> None);
      run "eidetic (64-version window)"
        (fun sys -> Some (Treesls_ckpt.Eidetic.attach ~max_versions:64 (System.manager sys)));
      run ~checksums:true "reliability (backup checksums)" (fun _ -> None);
    ]
  in
  Table.print
    ~title:"Ablation: eidetic archive & backup checksums (Memcached, 6k ops)"
    ~header:[ "Mode"; "versions kept"; "avg STW (us)"; "run time (ms)"; "archive MiB" ]
    rows

(* Memory over-commitment (paper §8): under NVM pressure, cold pages are
   evicted to the SSD; the cost is major faults on re-access. *)
let ablate_overcommit () =
  let run name nvm_pages attach =
    let sys = System.boot ~interval_us:1000 ~features:(full_features ()) ~nvm_pages () in
    (match attach with
    | true ->
      ignore
        (Treesls_ckpt.Overcommit.attach ~low_watermark:1024 ~high_watermark:1200 ~batch:128
           (System.manager sys))
    | false -> ());
    let k = System.kernel sys in
    let proc = Kernel.create_process k ~name:"grower" ~threads:1 ~prio:5 in
    let vpn = Kernel.grow_heap k proc ~pages:2400 in
    let rng = Rng.create 71L in
    let t0 = System.now_ns sys in
    let out_of_memory = ref false in
    (try
       (* waves of writes with revisits: earlier waves go cold, revisits
          force swap-ins *)
       for i = 0 to 7_999 do
         let page = if i mod 5 = 0 then Rng.int rng 2400 else i mod 2400 in
         Kernel.touch_write k proc ~vpn:(vpn + page);
         ignore (System.tick sys)
       done
     with Out_of_memory -> out_of_memory := true);
    let dt_ms = float_of_int (System.now_ns sys - t0) /. 1e6 in
    let st = Kernel.stats k in
    emit_row
      ~config:[ ("ablation", "overcommit"); ("config", name) ]
      ~metrics:
        [
          ("oom", if !out_of_memory then 1.0 else 0.0);
          ("swap_outs", float_of_int st.Kernel.swap_outs);
          ("swap_ins", float_of_int st.Kernel.swap_ins);
          ("run_ms", dt_ms);
        ];
    [
      name;
      (if !out_of_memory then "OOM" else "ok");
      string_of_int st.Kernel.swap_outs;
      string_of_int st.Kernel.swap_ins;
      f1 dt_ms;
    ]
  in
  let rows =
    [
      run "no overcommit, small NVM" 4096 false;
      run "overcommit, small NVM" 4096 true;
      run "no overcommit, large NVM" 16384 false;
    ]
  in
  Table.print
    ~title:"Ablation: memory over-commitment (2400-page working set + backups)"
    ~header:[ "Config"; "outcome"; "swap-outs"; "swap-ins"; "run time (ms)" ]
    rows

let run () =
  ablate_copy ();
  ablate_walk ();
  ablate_frequency ();
  ablate_pagetables ();
  ablate_eidetic ();
  ablate_overcommit ()
