(* Figure 10: breakdown of runtime overhead and the effect of hybrid
   copy, at 1000 Hz checkpointing. The bars are the cumulative levels of
   [State.level]:
     base            Off     no checkpointing
     +checkpoint     Tree    STW tree checkpoint only (pages untracked)
     +page fault     Fault   dirty pages re-protected, faults taken, no copying
     +page memcpy    Cow     full copy-on-write backups (correct persistence)
     +hybrid copy    Hybrid  hot pages cached in DRAM and stop-and-copied
   The bars report run time normalised to base.  [--smoke] runs two
   workloads over fewer ops; every (workload, bar) point is also emitted
   as a row, so `make bench-diff` pins each bar's virtual run time, CoW
   faults and commits. *)

open Exp_common

let configs =
  [
    ("base (no checkpoint)", State.Off);
    ("+ checkpoint", State.Tree);
    ("+ page fault", State.Fault);
    ("+ page memcpy", State.Cow);
    ("+ hybrid copy", State.Hybrid);
  ]

let workloads () =
  if !smoke then [ W_memcached; W_kmeans ] else [ W_memcached; W_redis; W_kmeans; W_pca ]
let warmup_ops () = if !smoke then 500 else 2_000
let measured_ops () = if !smoke then 2_000 else 10_000

(* Virtual run time, CoW faults and commits over the measured ops. *)
let measure w level =
  let sys = boot ~features:(features level) () in
  let rng = Rng.create 17L in
  let app = launch sys rng w in
  (* warmup outside measurement *)
  run_ops sys ~n:(warmup_ops ()) app.step;
  let k = System.kernel sys in
  let t0 = System.now_ns sys in
  let f0 = (Kernel.stats k).Kernel.cow_faults in
  let v0 = System.version sys in
  run_ops sys ~n:(measured_ops ()) app.step;
  (System.now_ns sys - t0, (Kernel.stats k).Kernel.cow_faults - f0, System.version sys - v0)

let run () =
  let rows =
    List.map
      (fun w ->
        let points = List.map (fun (name, level) -> (name, measure w level)) configs in
        let _, (base_ns, _, _) = List.hd points in
        let base = float_of_int base_ns in
        List.iter
          (fun (name, (t, faults, commits)) ->
            emit_row
              ~config:
                [
                  ("workload", workload_name w);
                  ("bar", name);
                  ("ops", string_of_int (measured_ops ()));
                ]
              ~metrics:
                [
                  ("run_ns", float_of_int t);
                  ("normalised", float_of_int t /. base);
                  ("cow_faults", float_of_int faults);
                  ("commits", float_of_int commits);
                ])
          points;
        workload_name w :: List.map (fun (_, (t, _, _)) -> f2 (float_of_int t /. base)) points)
      (workloads ())
  in
  Table.print ~title:"Figure 10: runtime overhead breakdown (normalised run time)"
    ~header:("Workload" :: List.map fst configs)
    rows
