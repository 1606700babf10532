(* Table 3: checkpoint/restore time of a single object, per type.
   Full = first checkpoint (allocation + structure building);
   Incr = subsequent checkpoints; Restore measured during recovery.
   Min/Max taken across all workloads, like the paper. *)

open Exp_common

let merge_range (a : State.cost_range) (b : State.cost_range) =
  { State.n = a.State.n + b.State.n; min_ns = min a.min_ns b.min_ns; max_ns = max a.max_ns b.max_ns }

let run () =
  let merged : (Kobj.kind, State.obj_cost) Hashtbl.t = Hashtbl.create 8 in
  let merge kind (c : State.obj_cost) =
    match Hashtbl.find_opt merged kind with
    | None -> Hashtbl.replace merged kind c
    | Some acc ->
      Hashtbl.replace merged kind
        {
          State.full = merge_range acc.State.full c.State.full;
          incr = merge_range acc.State.incr c.State.incr;
          restore = merge_range acc.State.restore c.State.restore;
        }
  in
  List.iter
    (fun w ->
      let sys = boot () in
      let rng = Rng.create 13L in
      let app = launch sys rng w in
      let ops = match w with W_default -> 200 | _ -> 3_000 in
      run_ops sys ~n:ops app.step;
      ignore (System.checkpoint sys);
      (* measure restore costs with a real crash *)
      ignore (System.crash_and_recover sys);
      app.refresh ();
      List.iter (fun (k, c) -> merge k c) (Manager.obj_costs (System.manager sys)))
    table2_workloads;
  (* an object kind some workload never restores prints "n/a" *)
  let min_max (r : State.cost_range) =
    if r.State.n = 0 then [ "n/a"; "n/a" ]
    else List.map (fun ns -> Printf.sprintf "%.2f" (float_of_int ns /. 1e3)) [ r.min_ns; r.max_ns ]
  in
  (* one BENCH row per kind: each collector's count, and its min and max
     in ns when it has samples *)
  let metrics_of name (r : State.cost_range) =
    (name ^ "_n", float_of_int r.State.n)
    ::
    (if r.State.n = 0 then []
     else [ (name ^ "_min_ns", float_of_int r.min_ns); (name ^ "_max_ns", float_of_int r.max_ns) ])
  in
  let rows =
    List.filter_map
      (fun kind ->
        match Hashtbl.find_opt merged kind with
        | None -> None
        | Some c ->
          emit_row
            ~config:[ ("object", Kobj.kind_name kind) ]
            ~metrics:
              (metrics_of "incr" c.State.incr
              @ metrics_of "full" c.State.full
              @ metrics_of "restore" c.State.restore);
          Some
            ((Kobj.kind_name kind :: min_max c.State.incr)
            @ min_max c.State.full
            @ min_max c.State.restore))
      Kobj.all_kinds
  in
  Table.print ~title:"Table 3: checkpoint/restore time of a single object (us)"
    ~header:
      [ "Object"; "Incr Min"; "Incr Max"; "Full Min"; "Full Max"; "Restore Min"; "Restore Max" ]
    rows
