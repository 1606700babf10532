(* Incremental capability-tree walk: captree_ns vs dirty fraction x tree
   size.

   Two identically-driven systems — one with the eager walk, one with
   [State.features.incremental_walk] — carry a pool of notification
   objects; each measurement round dirties a fixed fraction of the pool
   (through Ipc.notify, a real kernel mutator) and takes one checkpoint.
   The eager system's captree time grows with the whole tree, the
   incremental one's with the dirtied delta.

   Built-in correctness gates (the harness exits 2 if any fails):
   - conservation: incremental walked + skipped = eager walked, per round;
   - >= 5x captree speedup on every row at <= 10% dirty objects;
   - crash + recover both systems at the same version: the restored
     states must be identical object-for-object and page-for-page;
   - the state auditor finds no violations in either restored system. *)

open Exp_common
module Ipc = Treesls_kernel.Ipc
module Store = Treesls_nvm.Store
module Radix = Treesls_cap.Radix
module Snapshot = Treesls_ckpt.Snapshot

(* Whole-state fingerprint: every reachable object's snapshot, plus the
   byte contents of every normal-PMO page, sorted by object id.  Used to
   compare the two systems' restored states byte-for-byte. *)
let fingerprint sys =
  let k = System.kernel sys in
  let store = System.store sys in
  let objs = ref [] in
  Kobj.iter_tree ~root:(Kernel.root k) (fun obj ->
      let pages =
        match obj with
        | Kobj.Pmo p when p.Kobj.pmo_kind = Kobj.Pmo_normal ->
          List.sort compare
            (Radix.fold
               (fun pno paddr acc ->
                 (pno, Bytes.to_string (Store.page_bytes store paddr)) :: acc)
               p.Kobj.pmo_radix [])
        | Kobj.Pmo _ | Kobj.Cap_group _ | Kobj.Thread _ | Kobj.Vmspace _ | Kobj.Ipc_conn _
        | Kobj.Notification _ | Kobj.Irq_notification _ -> []
      in
      objs := (Kobj.id obj, Snapshot.take obj, pages) :: !objs);
  List.sort (fun (a, _, _) (b, _, _) -> compare a b) !objs

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("incr_walk: " ^ m); exit 2) fmt

let setup ~incr ~pool =
  let sys = boot ~features:(features ~incr State.Hybrid) () in
  let k = System.kernel sys in
  let p = Kernel.create_process k ~name:"pool" ~threads:1 ~prio:5 in
  let notifs = Array.init pool (fun _ -> Kernel.create_notification k p) in
  (* Seed: the first post-boot walk is forced eager in both modes; the
     second confirms steady state before measuring. *)
  ignore (System.checkpoint sys);
  ignore (System.checkpoint sys);
  (sys, k, notifs)

let rounds = 5

(* Dirty [dirty] pool objects and checkpoint, [rounds] times; returns the
   reports. *)
let measure sys k notifs ~dirty =
  List.init rounds (fun _ ->
      for i = 0 to dirty - 1 do
        Ipc.notify k notifs.(i)
      done;
      System.checkpoint sys)

let run () =
  let sizes = if !smoke then [ 128; 512 ] else [ 256; 1024; 4096 ] in
  let fracs = [ 0.02; 0.10; 0.50 ] in
  let table = ref [] in
  List.iter
    (fun pool ->
      let sys_e, k_e, notifs_e = setup ~incr:false ~pool in
      let sys_i, k_i, notifs_i = setup ~incr:true ~pool in
      List.iter
        (fun frac ->
          let dirty = max 1 (int_of_float (frac *. float_of_int pool)) in
          let reps_e = measure sys_e k_e notifs_e ~dirty in
          let reps_i = measure sys_i k_i notifs_i ~dirty in
          (* conservation: the incremental walk accounts for every object
             the eager walk visits *)
          List.iter2
            (fun (e : Report.t) (i : Report.t) ->
              if i.Report.objects_walked + i.Report.objects_skipped <> e.Report.objects_walked
              then
                die "v%d: walked %d + skipped %d <> eager %d" i.Report.version
                  i.Report.objects_walked i.Report.objects_skipped e.Report.objects_walked)
            reps_e reps_i;
          let total = (List.hd reps_e).Report.objects_walked in
          let dirty_pct = 100.0 *. float_of_int dirty /. float_of_int total in
          let captree_e = avg_reports reps_e (fun r -> r.Report.captree_ns) in
          let captree_i = avg_reports reps_i (fun r -> r.Report.captree_ns) in
          let speedup = if captree_i > 0.0 then captree_e /. captree_i else 0.0 in
          if dirty_pct <= 10.0 && speedup < 5.0 then
            die "pool %d, %.0f%% dirty: speedup %.1fx < 5x (eager %.0fns, incr %.0fns)" pool
              dirty_pct speedup captree_e captree_i;
          table :=
            !table
            @ [
                [
                  string_of_int pool;
                  string_of_int total;
                  string_of_int dirty;
                  f1 dirty_pct;
                  f1 (captree_e /. 1e3);
                  f1 (captree_i /. 1e3);
                  f1 speedup;
                  f1 (avg_reports reps_i (fun r -> r.Report.objects_skipped));
                ];
              ];
          emit_row
            ~config:[ ("pool", string_of_int pool); ("dirty_frac", f2 frac) ]
            ~metrics:
              [
                ("objects", float_of_int total);
                ("dirty_objects", float_of_int dirty);
                ("dirty_pct", dirty_pct);
                ("captree_eager_ns", captree_e);
                ("captree_incr_ns", captree_i);
                ("speedup", speedup);
                ("skipped_avg", avg_reports reps_i (fun r -> r.Report.objects_skipped));
              ])
        fracs;
      (* restore equivalence: both systems committed the same version with
         the same driven state; their restores must agree exactly *)
      ignore (System.crash_and_recover sys_e);
      ignore (System.crash_and_recover sys_i);
      if fingerprint sys_e <> fingerprint sys_i then
        die "pool %d: eager and incremental restores differ" pool;
      audit_or_die sys_e ~where:(Printf.sprintf "incr_walk eager pool=%d post-restore" pool);
      audit_or_die sys_i ~where:(Printf.sprintf "incr_walk incr pool=%d post-restore" pool);
      (* and a post-restore checkpoint on the incremental system must
         resync eagerly (force_full), not skip against stale generations *)
      let r = System.checkpoint sys_i in
      if r.Report.objects_skipped <> 0 then
        die "pool %d: first post-restore checkpoint skipped %d objects" pool
          r.Report.objects_skipped)
    sizes;
  Table.print
    ~title:
      (Printf.sprintf
         "Incremental walk: captree vs dirty fraction x tree size (%d rounds each; restore \
          equivalence + audit checked)"
         rounds)
    ~header:
      [
        "pool";
        "objects";
        "dirty";
        "dirty %";
        "eager captree (us)";
        "incr captree (us)";
        "speedup";
        "skipped/ckpt";
      ]
    !table
