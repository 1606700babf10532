(* Tests for the capability layer: radix tree, kernel objects, census. *)

module Radix = Treesls_cap.Radix
module Kobj = Treesls_cap.Kobj
module Rights = Treesls_cap.Rights
module Id_gen = Treesls_cap.Id_gen
module Dirty_log = Treesls_cap.Dirty_log
module Census = Treesls_cap.Census
module Rng = Treesls_util.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- Radix ---- *)

let radix_basics () =
  let r = Radix.create () in
  check_bool "empty" true (Radix.get r 0 = None);
  Radix.set r 5 "five";
  Alcotest.(check (option string)) "get" (Some "five") (Radix.get r 5);
  check_bool "mem" true (Radix.mem r 5);
  check_int "cardinal" 1 (Radix.cardinal r);
  Radix.remove r 5;
  check_bool "removed" false (Radix.mem r 5);
  check_int "cardinal 0" 0 (Radix.cardinal r)

let radix_growth () =
  let r = Radix.create () in
  Radix.set r 0 "a";
  Radix.set r 1_000_000 "b";
  Alcotest.(check (option string)) "small key survives growth" (Some "a") (Radix.get r 0);
  Alcotest.(check (option string)) "large key" (Some "b") (Radix.get r 1_000_000)

let radix_overwrite () =
  let r = Radix.create () in
  Radix.set r 7 "x";
  Radix.set r 7 "y";
  Alcotest.(check (option string)) "overwrite" (Some "y") (Radix.get r 7);
  check_int "cardinal still 1" 1 (Radix.cardinal r)

let radix_iter_order () =
  let r = Radix.create () in
  List.iter (fun k -> Radix.set r k (string_of_int k)) [ 9; 3; 77; 1 ];
  let keys = Radix.fold (fun k _ acc -> k :: acc) r [] in
  Alcotest.(check (list int)) "ascending iteration" [ 1; 3; 9; 77 ] (List.rev keys)

let radix_copy_shares_values () =
  let r = Radix.create () in
  Radix.set r 3 "v";
  let c = Radix.copy r in
  Radix.set r 4 "w";
  Alcotest.(check (option string)) "copy has old" (Some "v") (Radix.get c 3);
  check_bool "copy lacks new" true (Radix.get c 4 = None);
  check_int "node counts tracked" (Radix.cardinal c) 1

let radix_negative_key () =
  let r = Radix.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Radix.get: negative key") (fun () ->
      ignore (Radix.get r (-1)))

let radix_clear () =
  let r = Radix.create () in
  Radix.set r 100 1;
  Radix.clear r;
  check_int "cleared" 0 (Radix.cardinal r);
  check_int "nodes reset" 1 (Radix.node_count r)

let radix_node_count_grows () =
  let r = Radix.create () in
  let n0 = Radix.node_count r in
  Radix.set r 100_000 1;
  check_bool "interior nodes added" true (Radix.node_count r > n0)

let radix_model_check () =
  (* compare against a Hashtbl model under random ops *)
  let r = Radix.create () in
  let model = Hashtbl.create 64 in
  let rng = Rng.create 123L in
  for _ = 1 to 5_000 do
    let k = Rng.int rng 10_000 in
    if Rng.bool rng then begin
      Radix.set r k k;
      Hashtbl.replace model k k
    end
    else begin
      Radix.remove r k;
      Hashtbl.remove model k
    end
  done;
  check_int "cardinal matches model" (Hashtbl.length model) (Radix.cardinal r);
  Hashtbl.iter (fun k v -> Alcotest.(check (option int)) "value" (Some v) (Radix.get r k)) model

(* A reference radix: the bindings, and every key set since the last
   clear.  Removing a key frees no node, so the node set is fixed by the
   keys ever set: the root chain down the leftmost edge (a grown root
   becomes child 0 of the new one), plus every set key's path, a node at
   [l] levels above the leaves named by the key's prefix above its own
   [6 * (l + 1)] low bits. *)
module Int_map = Map.Make (Int)

type model = { map : int Int_map.t; touched : unit Int_map.t }

let model_nodes m =
  let top = Int_map.fold (fun k () acc -> max k acc) m.touched 0 in
  let height = ref 0 in
  while top >= 1 lsl (6 * (!height + 1)) do
    incr height
  done;
  let nodes = Hashtbl.create 16 in
  for l = 0 to !height do
    Hashtbl.replace nodes (l, 0) ()
  done;
  Int_map.iter
    (fun k () ->
      for l = 0 to !height - 1 do
        Hashtbl.replace nodes (l, k lsr (6 * (l + 1))) ()
      done)
    m.touched;
  Hashtbl.length nodes

let check_against name r m =
  check_int (name ^ ": cardinal") (Int_map.cardinal m.map) (Radix.cardinal r);
  check_int (name ^ ": node count") (model_nodes m) (Radix.node_count r);
  Alcotest.(check (list (pair int int)))
    (name ^ ": iter ascending") (Int_map.bindings m.map)
    (List.rev (Radix.fold (fun k v acc -> (k, v) :: acc) r []))

(* Random set/remove/get/iter/fold/copy/clear sequences against the
   reference, keys out of order and at every width and height edge. *)
let radix_differential () =
  let edges = [| 0; 1; 2; 3; 7; 8; 63; 64; 65; 4095; 4096; 4097; 262_143; 262_144; 1_000_000 |] in
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let key () =
        match Rng.int rng 3 with
        | 0 -> edges.(Rng.int rng (Array.length edges))
        | 1 -> Rng.int rng 130
        | _ -> Rng.int rng 300_000
      in
      let r = ref (Radix.create ()) and m = ref { map = Int_map.empty; touched = Int_map.empty } in
      let frozen = ref [] in
      for step = 1 to 2_000 do
        let name = Printf.sprintf "seed %Ld step %d" seed step in
        (match Rng.int rng 16 with
        | 0 | 1 | 2 | 3 | 4 | 5 ->
          let k = key () and v = Rng.int rng 1_000 in
          Radix.set !r k v;
          m := { map = Int_map.add k v !m.map; touched = Int_map.add k () !m.touched }
        | 6 | 7 | 8 ->
          let k = key () in
          Radix.remove !r k;
          m := { !m with map = Int_map.remove k !m.map }
        | 9 | 10 | 11 ->
          let k = key () in
          Alcotest.(check (option int)) (name ^ ": get") (Int_map.find_opt k !m.map) (Radix.get !r k);
          check_bool (name ^ ": mem") (Int_map.mem k !m.map) (Radix.mem !r k)
        | 12 ->
          let seen = ref [] in
          Radix.iter (fun k v -> seen := (k, v) :: !seen) !r;
          Alcotest.(check (list (pair int int)))
            (name ^ ": iter") (Int_map.bindings !m.map) (List.rev !seen)
        | 13 ->
          check_int (name ^ ": fold") (Int_map.fold (fun k v acc -> acc + k + v) !m.map 0)
            (Radix.fold (fun k v acc -> acc + k + v) !r 0)
        | 14 ->
          (* keep working on either side; the other must never change *)
          let c = Radix.copy !r in
          if Rng.bool rng then frozen := (c, !m) :: !frozen
          else begin
            frozen := (!r, !m) :: !frozen;
            r := c
          end
        | _ ->
          if Rng.int rng 4 = 0 then begin
            Radix.clear !r;
            m := { map = Int_map.empty; touched = Int_map.empty }
          end);
        check_against name !r !m
      done;
      List.iteri (fun i (c, cm) -> check_against (Printf.sprintf "seed %Ld copy %d" seed i) c cm)
        !frozen)
    [ 1L; 7L; 42L ]

(* A radix holding one low key is one narrow root, not a 64-slot node. *)
let radix_small_root () =
  let r = Radix.create () in
  Radix.set r 0 17;
  let words = Obj.reachable_words (Obj.repr r) in
  check_bool (Printf.sprintf "key 0 alone: %d words <= 16" words) true (words <= 16)

(* ---- Rights ---- *)

let rights_subset () =
  check_bool "ro <= full" true (Rights.subset Rights.read_only ~of_:Rights.full);
  check_bool "full </= ro" false (Rights.subset Rights.full ~of_:Rights.read_only);
  check_bool "none <= anything" true (Rights.subset Rights.none ~of_:Rights.read_only);
  check_bool "rw <= rw" true (Rights.subset Rights.rw ~of_:Rights.rw)

let rights_pp () =
  Alcotest.(check string) "pp full" "rwxg" (Format.asprintf "%a" Rights.pp Rights.full);
  Alcotest.(check string) "pp ro" "r---" (Format.asprintf "%a" Rights.pp Rights.read_only)

(* ---- Id_gen ---- *)

let idgen_monotonic () =
  let g = Id_gen.create () in
  let a = Id_gen.next g and b = Id_gen.next g in
  check_bool "monotonic" true (b > a);
  check_int "current" b (Id_gen.current g);
  Id_gen.restore g 100;
  check_int "restored" 101 (Id_gen.next g)

(* ---- Kobj ---- *)

let ids = Id_gen.create ()
let fresh () = Id_gen.next ids
let log = Dirty_log.create ()

let cap_group_slots () =
  let g = Kobj.make_cap_group ~id:(fresh ()) ~name:"g" in
  let th = Kobj.Thread (Kobj.make_thread ~id:(fresh ()) ~prio:1) in
  let s0 = Kobj.install log g { Kobj.target = th; rights = Rights.full } in
  check_int "first slot" 0 s0;
  check_int "count" 1 (Kobj.caps_count g);
  check_bool "lookup" true (Kobj.lookup g s0 <> None);
  Kobj.revoke log g s0;
  check_int "after revoke" 0 (Kobj.caps_count g);
  check_bool "slot empty" true (Kobj.lookup g s0 = None)

let cap_group_grows () =
  let g = Kobj.make_cap_group ~id:(fresh ()) ~name:"g" in
  for i = 0 to 19 do
    let th = Kobj.Thread (Kobj.make_thread ~id:(fresh ()) ~prio:1) in
    check_int "dense slots" i (Kobj.install log g { Kobj.target = th; rights = Rights.full })
  done;
  check_int "twenty caps" 20 (Kobj.caps_count g);
  check_bool "array grew" true (Kobj.slots_len g >= 20)

let cap_group_reuses_slots () =
  let g = Kobj.make_cap_group ~id:(fresh ()) ~name:"g" in
  let mk () = Kobj.Thread (Kobj.make_thread ~id:(fresh ()) ~prio:1) in
  let s0 = Kobj.install log g { Kobj.target = mk (); rights = Rights.full } in
  ignore (Kobj.install log g { Kobj.target = mk (); rights = Rights.full });
  Kobj.revoke log g s0;
  check_int "freed slot reused" s0 (Kobj.install log g { Kobj.target = mk (); rights = Rights.full })

let install_at_specific () =
  let g = Kobj.make_cap_group ~id:(fresh ()) ~name:"g" in
  let th = Kobj.Thread (Kobj.make_thread ~id:(fresh ()) ~prio:1) in
  Kobj.install_at log g 13 { Kobj.target = th; rights = Rights.rw };
  check_bool "slot 13 filled" true (Kobj.lookup g 13 <> None);
  Alcotest.check_raises "occupied" (Invalid_argument "Kobj.install_at: slot occupied")
    (fun () -> Kobj.install_at log g 13 { Kobj.target = th; rights = Rights.rw })

(* ---- Dirty_log ---- *)

let dirty_log_each_id_once () =
  let l = Dirty_log.create () in
  List.iter (Dirty_log.record l) [ 7; 3; 7; 500; 3; 0 ];
  Alcotest.(check (list int))
    "first-recording order, no repeats" [ 7; 3; 500; 0 ]
    (List.init (Dirty_log.length l) (Dirty_log.get l));
  check_bool "mem" true (Dirty_log.mem l 500);
  check_bool "not recorded" false (Dirty_log.mem l 4);
  check_bool "past the marks" false (Dirty_log.mem l 100_000);
  check_bool "no shape change yet" false (Dirty_log.shape_changed l);
  Dirty_log.note_shape_change l;
  Dirty_log.clear l;
  check_int "cleared" 0 (Dirty_log.length l);
  check_bool "marks cleared" false (List.exists (Dirty_log.mem l) [ 7; 3; 500; 0 ]);
  check_bool "shape change forgotten" false (Dirty_log.shape_changed l);
  Dirty_log.record l 3;
  check_int "recorded again after clear" 1 (Dirty_log.length l)

(* every slot change records its group and notes a shape change *)
let slot_changes_logged () =
  let g = Kobj.make_cap_group ~id:(fresh ()) ~name:"g" in
  let th = Kobj.Thread (Kobj.make_thread ~id:(fresh ()) ~prio:1) in
  let logged name f =
    let l = Dirty_log.create () in
    f l;
    check_bool (name ^ ": group logged") true (Dirty_log.mem l g.Kobj.cg_id);
    check_bool (name ^ ": shape change") true (Dirty_log.shape_changed l)
  in
  let slot = ref 0 in
  logged "install" (fun l -> slot := Kobj.install l g { Kobj.target = th; rights = Rights.full });
  logged "revoke" (fun l -> Kobj.revoke l g !slot);
  logged "install_at" (fun l -> Kobj.install_at l g 5 { Kobj.target = th; rights = Rights.full });
  let l = Dirty_log.create () in
  Kobj.touch l th;
  check_bool "touch logs" true (Dirty_log.mem l (Kobj.id th));
  check_bool "touch is no shape change" false (Dirty_log.shape_changed l)

let iter_tree_dedup () =
  let root = Kobj.make_cap_group ~id:(fresh ()) ~name:"root" in
  let shared = Kobj.Pmo (Kobj.make_pmo ~id:(fresh ()) ~pages:1 ~kind:Kobj.Pmo_normal) in
  let child = Kobj.make_cap_group ~id:(fresh ()) ~name:"child" in
  ignore (Kobj.install log root { Kobj.target = shared; rights = Rights.rw });
  ignore (Kobj.install log root { Kobj.target = Kobj.Cap_group child; rights = Rights.full });
  ignore (Kobj.install log child { Kobj.target = shared; rights = Rights.read_only });
  let visits = ref 0 in
  Kobj.iter_tree ~root (fun obj -> if Kobj.id obj = Kobj.id shared then incr visits);
  check_int "shared object visited once" 1 !visits

let iter_tree_reaches_regions () =
  let root = Kobj.make_cap_group ~id:(fresh ()) ~name:"root" in
  let vms = Kobj.make_vmspace ~id:(fresh ()) in
  let pmo = Kobj.make_pmo ~id:(fresh ()) ~pages:2 ~kind:Kobj.Pmo_normal in
  vms.Kobj.vs_regions <-
    [ { Kobj.vr_vpn = 0; vr_pages = 2; vr_pmo = pmo; vr_writable = true } ];
  ignore (Kobj.install log root { Kobj.target = Kobj.Vmspace vms; rights = Rights.full });
  let found = ref false in
  Kobj.iter_tree ~root (fun obj -> if Kobj.id obj = pmo.Kobj.pmo_id then found := true);
  check_bool "pmo reachable via region" true !found

let copy_bytes_monotonic () =
  let small = Kobj.make_cap_group ~id:(fresh ()) ~name:"s" in
  let large = Kobj.make_cap_group ~id:(fresh ()) ~name:"l" in
  for _ = 1 to 30 do
    let th = Kobj.Thread (Kobj.make_thread ~id:(fresh ()) ~prio:1) in
    ignore (Kobj.install log large { Kobj.target = th; rights = Rights.full })
  done;
  check_bool "more caps, more bytes" true
    (Kobj.copy_bytes (Kobj.Cap_group large) > Kobj.copy_bytes (Kobj.Cap_group small))

let kind_names_distinct () =
  let names = List.map Kobj.kind_name Kobj.all_kinds in
  check_int "distinct" (List.length names) (List.length (List.sort_uniq compare names))

(* ---- Census ---- *)

let census_counts () =
  let root = Kobj.make_cap_group ~id:(fresh ()) ~name:"root" in
  let th = Kobj.make_thread ~id:(fresh ()) ~prio:1 in
  let pmo = Kobj.make_pmo ~id:(fresh ()) ~pages:4 ~kind:Kobj.Pmo_normal in
  Radix.set pmo.Kobj.pmo_radix 0 (Treesls_nvm.Paddr.nvm 1);
  Radix.set pmo.Kobj.pmo_radix 2 (Treesls_nvm.Paddr.nvm 2);
  ignore (Kobj.install log root { Kobj.target = Kobj.Thread th; rights = Rights.full });
  ignore (Kobj.install log root { Kobj.target = Kobj.Pmo pmo; rights = Rights.rw });
  let c = Census.collect ~root in
  check_int "cap groups" 1 c.Census.cap_groups;
  check_int "threads" 1 c.Census.threads;
  check_int "pmos" 1 c.Census.pmos;
  check_int "pages" 2 c.Census.app_pages;
  check_int "total" 3 (Census.total_objects c);
  check_int "count by kind" 1 (Census.count c Kobj.Thread_k)

let census_diff () =
  let base =
    { Census.cap_groups = 1; threads = 2; ipcs = 3; notifications = 4; pmos = 5; vmspaces = 6; irqs = 0; app_pages = 10 }
  in
  let now =
    { Census.cap_groups = 2; threads = 4; ipcs = 6; notifications = 8; pmos = 10; vmspaces = 12; irqs = 0; app_pages = 30 }
  in
  let d = Census.diff now base in
  check_int "threads diff" 2 d.Census.threads;
  check_int "pages diff" 20 d.Census.app_pages

(* ---- qcheck ---- *)

let prop_radix_set_get =
  QCheck.Test.make ~name:"radix: set then get" ~count:300
    QCheck.(pair (int_bound 1_000_000) small_int)
    (fun (k, v) ->
      let r = Radix.create () in
      Radix.set r k v;
      Radix.get r k = Some v)

let prop_radix_cardinal =
  QCheck.Test.make ~name:"radix: cardinal = distinct keys" ~count:100
    QCheck.(list_of_size Gen.(0 -- 100) (int_bound 1000))
    (fun ks ->
      let r = Radix.create () in
      List.iter (fun k -> Radix.set r k k) ks;
      Radix.cardinal r = List.length (List.sort_uniq compare ks))

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_radix_set_get; prop_radix_cardinal ]

let () =
  Alcotest.run "cap"
    [
      ( "radix",
        [
          Alcotest.test_case "basics" `Quick radix_basics;
          Alcotest.test_case "growth" `Quick radix_growth;
          Alcotest.test_case "overwrite" `Quick radix_overwrite;
          Alcotest.test_case "iteration order" `Quick radix_iter_order;
          Alcotest.test_case "copy isolation" `Quick radix_copy_shares_values;
          Alcotest.test_case "negative key" `Quick radix_negative_key;
          Alcotest.test_case "clear" `Quick radix_clear;
          Alcotest.test_case "node count grows" `Quick radix_node_count_grows;
          Alcotest.test_case "model check" `Quick radix_model_check;
          Alcotest.test_case "differential against a map" `Quick radix_differential;
          Alcotest.test_case "one low key, one narrow root" `Quick radix_small_root;
        ] );
      ( "rights",
        [
          Alcotest.test_case "subset" `Quick rights_subset;
          Alcotest.test_case "pretty printing" `Quick rights_pp;
        ] );
      ("id_gen", [ Alcotest.test_case "monotonic + restore" `Quick idgen_monotonic ]);
      ("dirty_log", [ Alcotest.test_case "each id once" `Quick dirty_log_each_id_once ]);
      ( "kobj",
        [
          Alcotest.test_case "cap group slots" `Quick cap_group_slots;
          Alcotest.test_case "cap group growth" `Quick cap_group_grows;
          Alcotest.test_case "slot reuse" `Quick cap_group_reuses_slots;
          Alcotest.test_case "install_at" `Quick install_at_specific;
          Alcotest.test_case "slot changes logged" `Quick slot_changes_logged;
          Alcotest.test_case "iter_tree dedup" `Quick iter_tree_dedup;
          Alcotest.test_case "iter_tree reaches regions" `Quick iter_tree_reaches_regions;
          Alcotest.test_case "copy_bytes monotonic" `Quick copy_bytes_monotonic;
          Alcotest.test_case "kind names distinct" `Quick kind_names_distinct;
        ] );
      ( "census",
        [
          Alcotest.test_case "counts" `Quick census_counts;
          Alcotest.test_case "diff" `Quick census_diff;
        ] );
      ("properties", qsuite);
    ]
