(* Tests for the NVM substrate: devices, journaled word area, buddy and
   slab allocators, and the store — including crash injection at every
   journal phase. *)

module Paddr = Treesls_nvm.Paddr
module Device = Treesls_nvm.Device
module Warea = Treesls_nvm.Warea
module Txn = Treesls_nvm.Txn
module Buddy = Treesls_nvm.Buddy
module Slab = Treesls_nvm.Slab
module Store = Treesls_nvm.Store
module Global_meta = Treesls_nvm.Global_meta
module Clock = Treesls_sim.Clock
module Rng = Treesls_util.Rng
module Probe = Treesls_obs.Probe
module Wearmap = Treesls_obs.Wearmap

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Standalone devices and word areas record into throwaway telemetry. *)
let device ~kind ~pages ~page_size =
  Device.create ~wearmap:(Wearmap.create ()) ~kind ~pages ~page_size

let warea ~words = Warea.create ~probe:(Probe.create ~clock:(Clock.create ())) ~words

(* ---- Paddr ---- *)

let paddr_basics () =
  let a = Paddr.nvm 3 and b = Paddr.dram 3 in
  check_bool "nvm" true (Paddr.is_nvm a);
  check_bool "dram" true (Paddr.is_dram b);
  check_bool "distinct devices" false (Paddr.equal a b);
  check_bool "ordering nvm < dram" true (Paddr.compare a b < 0);
  Alcotest.(check string) "to_string" "nvm:3" (Paddr.to_string a)

(* ---- Device ---- *)

let device_rw () =
  let d = device ~kind:Paddr.Nvm ~pages:8 ~page_size:128 in
  Device.write d 2 ~off:10 (Bytes.of_string "hello");
  Alcotest.(check string) "read back" "hello" (Bytes.to_string (Device.read d 2 ~off:10 ~len:5))

let device_lazy () =
  let d = device ~kind:Paddr.Nvm ~pages:100 ~page_size:64 in
  check_int "untouched" 0 (Device.touched d);
  ignore (Device.page d 5);
  check_int "one page materialised" 1 (Device.touched d)

let device_crash_semantics () =
  let nvm = device ~kind:Paddr.Nvm ~pages:4 ~page_size:64 in
  let dram = device ~kind:Paddr.Dram ~pages:4 ~page_size:64 in
  Device.write nvm 0 ~off:0 (Bytes.of_string "keep");
  Device.write dram 0 ~off:0 (Bytes.of_string "lose");
  Device.crash nvm;
  Device.crash dram;
  Alcotest.(check string) "nvm survives" "keep" (Bytes.to_string (Device.read nvm 0 ~off:0 ~len:4));
  Alcotest.(check string) "dram wiped" "\000\000\000\000"
    (Bytes.to_string (Device.read dram 0 ~off:0 ~len:4))

let device_copy () =
  let a = device ~kind:Paddr.Nvm ~pages:2 ~page_size:32 in
  let b = device ~kind:Paddr.Dram ~pages:2 ~page_size:32 in
  Device.write a 0 ~off:0 (Bytes.of_string "xy");
  Device.copy_page ~src:a ~src_idx:0 ~dst:b ~dst_idx:1;
  Alcotest.(check string) "copied" "xy" (Bytes.to_string (Device.read b 1 ~off:0 ~len:2))

let device_zero () =
  let d = device ~kind:Paddr.Nvm ~pages:2 ~page_size:16 in
  Device.write d 0 ~off:0 (Bytes.of_string "abc");
  Device.zero_page d 0;
  Alcotest.(check string) "zeroed" "\000\000\000"
    (Bytes.to_string (Device.read d 0 ~off:0 ~len:3))

(* Pages live in 256-page chunks allocated on first touch; none of that
   shows through the interface. *)
let device_first_touch_one_page () =
  let d = device ~kind:Paddr.Nvm ~pages:1000 ~page_size:32 in
  Device.write d 700 ~off:0 (Bytes.of_string "x");
  check_int "a first touch materialises one page" 1 (Device.touched d);
  Device.write d 700 ~off:1 (Bytes.of_string "y");
  check_int "a second touch none" 1 (Device.touched d);
  Alcotest.(check string) "a chunk neighbour reads zeros" "\000\000"
    (Bytes.to_string (Device.read d 701 ~off:0 ~len:2));
  check_int "reading it materialises it" 2 (Device.touched d);
  ignore (Device.page d 999);
  check_int "last page" 3 (Device.touched d)

let device_zero_untouched_no_wear () =
  let wm = Wearmap.create () in
  let d = Device.create ~wearmap:wm ~kind:Paddr.Nvm ~pages:600 ~page_size:64 in
  Device.zero_page d 5;
  Device.zero_page d 599;
  check_int "no page materialised" 0 (Device.touched d);
  check_int "no wear recorded" 0 (Wearmap.total_bytes wm);
  Device.write d 5 ~off:0 (Bytes.of_string "ab");
  Device.zero_page d 6;
  check_int "an untouched chunk neighbour stays untouched" 1 (Device.touched d);
  check_int "only the write's wear" 2 (Wearmap.total_bytes wm);
  Device.zero_page d 5;
  check_int "zeroing a written page wears it" (2 + 64) (Wearmap.total_bytes wm)

let device_crash_drops_dram_chunks () =
  let nvm = device ~kind:Paddr.Nvm ~pages:700 ~page_size:16 in
  let dram = device ~kind:Paddr.Dram ~pages:700 ~page_size:16 in
  List.iter
    (fun i ->
      Device.write nvm i ~off:0 (Bytes.of_string "keep");
      Device.write dram i ~off:0 (Bytes.of_string "lose"))
    [ 0; 255; 256; 699 ];
  Device.crash nvm;
  Device.crash dram;
  check_int "nvm keeps its pages" 4 (Device.touched nvm);
  check_int "dram forgets its pages" 0 (Device.touched dram);
  List.iter
    (fun i ->
      Alcotest.(check string) "nvm content" "keep"
        (Bytes.to_string (Device.read nvm i ~off:0 ~len:4));
      Alcotest.(check string) "dram content" "\000\000\000\000"
        (Bytes.to_string (Device.read dram i ~off:0 ~len:4)))
    [ 0; 255; 256; 699 ];
  check_int "dram reads materialise fresh pages" 4 (Device.touched dram)

(* Index 8 of an 8-page device lies inside its only chunk, but past the
   device: it must raise like index -1, for every entry point. *)
let device_out_of_range_raises () =
  let raises what f =
    match f () with
    | () -> Alcotest.failf "%s did not raise" what
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun (kind, pages) ->
      let d = device ~kind ~pages ~page_size:16 in
      let other = device ~kind:Paddr.Nvm ~pages:8 ~page_size:16 in
      List.iter
        (fun idx ->
          let what op = Printf.sprintf "%s %d of %d pages" op idx pages in
          raises (what "page") (fun () -> ignore (Device.page d idx));
          raises (what "read") (fun () -> ignore (Device.read d idx ~off:0 ~len:1));
          raises (what "write") (fun () -> Device.write d idx ~off:0 (Bytes.of_string "x"));
          raises (what "zero_page") (fun () -> Device.zero_page d idx);
          raises (what "copy from") (fun () ->
              Device.copy_page ~src:d ~src_idx:idx ~dst:other ~dst_idx:0);
          raises (what "copy to") (fun () ->
              Device.copy_page ~src:other ~src_idx:0 ~dst:d ~dst_idx:idx))
        [ -1; pages ];
      check_int "nothing materialised" 0 (Device.touched d))
    [ (Paddr.Dram, 8); (Paddr.Nvm, 8); (Paddr.Ssd, 300); (Paddr.Nvm, 512) ]

(* ---- Warea ---- *)

let warea_commit_read () =
  let w = warea ~words:16 in
  Warea.commit w ~desc:"t" [ (0, 42); (3, 7) ];
  check_int "word 0" 42 (Warea.read w 0);
  check_int "word 3" 7 (Warea.read w 3);
  check_int "commits" 1 (Warea.commits w);
  check_int "words written" 2 (Warea.words_written w)

let warea_duplicate_index () =
  let w = warea ~words:4 in
  Alcotest.check_raises "duplicate" (Invalid_argument "Warea.commit: duplicate index")
    (fun () -> Warea.commit w ~desc:"d" [ (1, 1); (1, 2) ])

let warea_crash_atomicity phase expect_applied () =
  let w = warea ~words:8 in
  Warea.commit w ~desc:"init" [ (0, 1); (1, 1) ];
  Warea.set_crash_plan w (Some phase);
  (try
     Warea.commit w ~desc:"update" [ (0, 2); (1, 2) ];
     Alcotest.fail "expected crash"
   with Warea.Crashed _ -> ());
  Warea.recover w;
  check_bool "no in-flight record" false (Warea.in_flight w);
  let expected = if expect_applied then 2 else 1 in
  check_int "word0 atomic" expected (Warea.read w 0);
  check_int "word1 atomic" expected (Warea.read w 1);
  (* both words always agree: no torn state *)
  check_int "no tearing" (Warea.read w 0) (Warea.read w 1)

let warea_recover_idempotent () =
  let w = warea ~words:4 in
  Warea.set_crash_plan w (Some Warea.Mid_apply);
  (try Warea.commit w ~desc:"x" [ (0, 9); (1, 9) ] with Warea.Crashed _ -> ());
  Warea.recover w;
  Warea.recover w;
  check_int "applied" 9 (Warea.read w 0)

(* Full phase matrix on a wide transaction: after recovery the words are
   always ALL old or ALL new — never a mix — and a torn (incomplete)
   record is discarded, not replayed. *)
let warea_phase_matrix () =
  List.iter
    (fun phase ->
      let w = warea ~words:8 in
      Warea.commit w ~desc:"init" (List.init 6 (fun i -> (i, 100)));
      Warea.set_crash_plan w (Some phase);
      (try
         Warea.commit w ~desc:"update" (List.init 6 (fun i -> (i, 200)));
         Alcotest.fail "expected crash"
       with Warea.Crashed _ -> ());
      (* every phase but Before_log leaves a complete record *)
      check_bool (Warea.phase_name phase ^ " leaves a record") true (Warea.in_flight w);
      Warea.recover w;
      check_bool "record truncated" false (Warea.in_flight w);
      let v0 = Warea.read w 0 in
      check_bool "all-old or all-new" true (v0 = 100 || v0 = 200);
      for i = 1 to 5 do
        check_int (Printf.sprintf "%s word %d agrees" (Warea.phase_name phase) i) v0
          (Warea.read w i)
      done;
      if phase = Warea.Before_log then check_int "torn record discarded" 100 v0
      else check_int "complete record replayed" 200 v0)
    Warea.all_phases

let warea_duplicate_before_side_effects () =
  let w = warea ~words:4 in
  Warea.set_crash_plan w (Some Warea.Before_log);
  Alcotest.check_raises "duplicate rejected first" (Invalid_argument "Warea.commit: duplicate index")
    (fun () -> Warea.commit w ~desc:"d" [ (1, 1); (1, 2) ]);
  check_bool "no torn record staged" false (Warea.in_flight w);
  check_int "no commit point consumed" 0 (Warea.commit_points w);
  (* validation ran before the crash machinery: the plan is still armed
     and fires on the next well-formed commit *)
  (try
     Warea.commit w ~desc:"ok" [ (1, 5) ];
     Alcotest.fail "expected armed plan to fire"
   with Warea.Crashed _ -> ());
  Warea.recover w;
  check_int "before-log rolled back" 0 (Warea.read w 1)

let warea_empty_point_counts () =
  let w = warea ~words:4 in
  Warea.commit w ~desc:"a" [ (0, 1) ];
  check_int "one point" 1 (Warea.commit_points w);
  Warea.consume_point w ~desc:"empty";
  check_int "empty txn consumed a point" 2 (Warea.commit_points w);
  check_int "commits unchanged" 1 (Warea.commits w);
  Warea.commit w ~desc:"b" [ (0, 2) ];
  check_int "numbering continues" 3 (Warea.commit_points w)

let warea_empty_point_fires_armed_plan () =
  let w = warea ~words:4 in
  Warea.set_crash_plan w (Some Warea.After_log);
  (try
     Warea.consume_point w ~desc:"empty";
     Alcotest.fail "expected crash"
   with Warea.Crashed _ -> ());
  check_bool "no journal side effects" false (Warea.in_flight w);
  Warea.recover w;
  check_int "point still consumed" 1 (Warea.commit_points w)

let warea_schedule_fires_at_absolute_point () =
  let w = warea ~words:4 in
  Warea.set_crash_schedule w (Some (3, Warea.After_log));
  Warea.commit w ~desc:"p1" [ (0, 1) ];
  Warea.commit w ~desc:"p2" [ (0, 2) ];
  (try
     Warea.commit w ~desc:"p3" [ (0, 3) ];
     Alcotest.fail "expected crash at point 3"
   with Warea.Crashed _ -> ());
  check_bool "self-disarmed" true (Warea.crash_schedule w = None);
  Warea.recover w;
  check_int "after-log rolls forward" 3 (Warea.read w 0);
  (* points 1 and 2 committed untouched *)
  check_int "points consumed" 3 (Warea.commit_points w)

(* Words live in chunks allocated on first non-zero write; none of that
   shows through [read], and [iter_nonzero] sees exactly the non-zero
   words, ascending, however they were written. *)
let nonzero w ~lo ~hi =
  let acc = ref [] in
  Warea.iter_nonzero w ~lo ~hi (fun i v -> acc := (i, v) :: !acc);
  List.rev !acc

let check_words = Alcotest.(check (list (pair int int)))

let warea_unwritten_reads_zero () =
  let w = warea ~words:1000 in
  List.iter (fun i -> check_int (Printf.sprintf "word %d" i) 0 (Warea.read w i)) [ 0; 255; 256; 999 ];
  check_words "nothing non-zero" [] (nonzero w ~lo:0 ~hi:1000);
  Warea.commit w ~desc:"zero" [ (300, 0) ];
  check_int "a zero write reads zero" 0 (Warea.read w 300);
  Warea.commit w ~desc:"one" [ (301, 7) ];
  check_int "its chunk neighbour reads zero" 0 (Warea.read w 302)

let warea_nonzero_ascending () =
  let w = warea ~words:1000 in
  Warea.commit w ~desc:"a" [ (700, 3); (5, 1); (999, 4); (300, 2); (6, 9) ];
  Warea.commit w ~desc:"b" [ (6, 0) ];
  check_words "ascending, zeros skipped" [ (5, 1); (300, 2); (700, 3); (999, 4) ]
    (nonzero w ~lo:0 ~hi:1000);
  check_words "sub-range" [ (300, 2) ] (nonzero w ~lo:6 ~hi:700);
  check_words "empty range" [] (nonzero w ~lo:300 ~hi:300)

let warea_nonzero_sees_crash_and_replay () =
  let w = warea ~words:1000 in
  Warea.set_crash_plan w (Some Warea.Mid_apply);
  (try
     Warea.commit w ~desc:"x" [ (10, 1); (600, 2); (300, 3); (900, 4) ];
     Alcotest.fail "expected crash"
   with Warea.Crashed _ -> ());
  check_words "the half a mid-apply crash wrote" [ (10, 1); (600, 2) ]
    (nonzero w ~lo:0 ~hi:1000);
  Warea.recover w;
  check_words "the replay's words too" [ (10, 1); (300, 3); (600, 2); (900, 4) ]
    (nonzero w ~lo:0 ~hi:1000)

let warea_out_of_range_raises () =
  let w = warea ~words:300 in
  let invalid f = match f () with _ -> false | exception Invalid_argument _ -> true in
  check_bool "read -1" true (invalid (fun () -> Warea.read w (-1)));
  check_bool "read size" true (invalid (fun () -> Warea.read w 300));
  check_bool "read past the last chunk" true (invalid (fun () -> Warea.read w 512));
  check_bool "iter past size" true (invalid (fun () -> nonzero w ~lo:0 ~hi:301));
  check_bool "iter below 0" true (invalid (fun () -> nonzero w ~lo:(-1) ~hi:10));
  Warea.set_crash_plan w (Some Warea.Mid_apply);
  check_bool "commit past size" true (invalid (fun () -> Warea.commit w ~desc:"x" [ (0, 1); (300, 1) ]));
  check_bool "commit below 0" true (invalid (fun () -> Warea.commit w ~desc:"x" [ (-1, 1) ]));
  check_bool "no torn record staged" false (Warea.in_flight w);
  check_int "no commit point consumed" 0 (Warea.commit_points w);
  check_int "nothing applied" 0 (Warea.read w 0)

(* ---- Txn ---- *)

let txn_read_through () =
  let w = warea ~words:8 in
  Warea.commit w ~desc:"i" [ (2, 5) ];
  let t = Txn.create w in
  check_int "reads durable" 5 (Txn.read t 2);
  Txn.write t 2 6;
  check_int "reads pending" 6 (Txn.read t 2);
  check_int "durable unchanged" 5 (Warea.read w 2);
  Txn.commit t ~desc:"c";
  check_int "now durable" 6 (Warea.read w 2)

let txn_empty_commit () =
  let w = warea ~words:4 in
  let t = Txn.create w in
  Txn.commit t ~desc:"empty";
  check_int "no commit recorded" 0 (Warea.commits w);
  (* ...but a commit point IS consumed: numbering must not depend on
     whether a transaction happened to stage any writes *)
  check_int "commit point consumed" 1 (Warea.commit_points w)

let txn_rewrite_single_entry () =
  let w = warea ~words:4 in
  let t = Txn.create w in
  Txn.write t 1 10;
  Txn.write t 1 20;
  check_int "pending count" 1 (Txn.pending t);
  Txn.commit t ~desc:"c";
  check_int "last wins" 20 (Warea.read w 1)

(* ---- Buddy ---- *)

let mk_buddy pages =
  let w = warea ~words:(Buddy.words_needed ~total_pages:pages) in
  (w, Buddy.format w ~base:0 ~total_pages:pages)

let buddy_basics () =
  let _, b = mk_buddy 16 in
  check_int "all free" 16 (Buddy.free_pages b);
  let p0 = Option.get (Buddy.alloc b ~order:0) in
  check_int "free after alloc" 15 (Buddy.free_pages b);
  Buddy.free b ~offset:p0;
  check_int "free after free" 16 (Buddy.free_pages b);
  Buddy.check_invariants b

let buddy_orders () =
  let _, b = mk_buddy 16 in
  let p = Option.get (Buddy.alloc b ~order:2) in
  check_int "aligned to order" 0 (p mod 4);
  check_int "free count" 12 (Buddy.free_pages b);
  Alcotest.(check (option int)) "order recorded" (Some 2) (Buddy.order_of b ~offset:p);
  Buddy.check_invariants b;
  Buddy.free b ~offset:p;
  Buddy.check_invariants b

let buddy_exhaustion () =
  let _, b = mk_buddy 4 in
  let a1 = Buddy.alloc b ~order:1 and a2 = Buddy.alloc b ~order:1 in
  check_bool "both succeed" true (a1 <> None && a2 <> None);
  check_bool "exhausted" true (Buddy.alloc b ~order:0 = None);
  Buddy.free b ~offset:(Option.get a1);
  check_bool "after free, fits" true (Buddy.alloc b ~order:1 <> None)

let buddy_merge () =
  let _, b = mk_buddy 8 in
  let ps = List.init 8 (fun _ -> Option.get (Buddy.alloc b ~order:0)) in
  check_bool "full" true (Buddy.alloc b ~order:0 = None);
  List.iter (fun p -> Buddy.free b ~offset:p) ps;
  (* all buddies must have merged back into one max block *)
  check_bool "whole region mergeable" true (Buddy.alloc b ~order:3 <> None);
  Buddy.check_invariants b

let buddy_double_free () =
  let _, b = mk_buddy 4 in
  let p = Option.get (Buddy.alloc b ~order:0) in
  Buddy.free b ~offset:p;
  Alcotest.check_raises "double free" (Invalid_argument "Buddy.free: not a live allocation")
    (fun () -> Buddy.free b ~offset:p)

let buddy_bad_order () =
  let _, b = mk_buddy 4 in
  Alcotest.check_raises "too large" (Invalid_argument "Buddy.alloc: bad order") (fun () ->
      ignore (Buddy.alloc b ~order:5))

let buddy_crash_during_alloc phase () =
  let w, b = mk_buddy 16 in
  ignore (Option.get (Buddy.alloc b ~order:0));
  let free_before = Buddy.free_pages b in
  Warea.set_crash_plan w (Some phase);
  (try ignore (Buddy.alloc b ~order:1)
   with Warea.Crashed _ -> ());
  Warea.recover w;
  Buddy.check_invariants b;
  let free_after = Buddy.free_pages b in
  check_bool "atomic: all-or-nothing" true
    (free_after = free_before || free_after = free_before - 2)

let buddy_random_ops () =
  let w, b = mk_buddy 64 in
  ignore w;
  let rng = Rng.create 77L in
  let live = ref [] in
  for _ = 1 to 2_000 do
    if Rng.bool rng && List.length !live < 40 then begin
      let order = Rng.int rng 3 in
      match Buddy.alloc b ~order with
      | Some p -> live := p :: !live
      | None -> ()
    end
    else
      match !live with
      | [] -> ()
      | p :: rest ->
        Buddy.free b ~offset:p;
        live := rest
  done;
  Buddy.check_invariants b

(* Corrupted words must fail the audit, wherever they are not stale by
   design.  The word layout ([Buddy]'s interface): tree node [i] at [i],
   order records from [2n], the counter at [3n] (base 0).  Every
   corruption is relative (+k), so it corrupts under any word encoding. *)
let corrupt w i ~by = Warea.commit w ~desc:"corrupt" [ (i, Warea.read w i + by) ]

let raises f = match f () with () -> false | exception Failure _ -> true

let buddy_corruption_detected () =
  let pages = 16 in
  let fresh () =
    let w, b = mk_buddy pages in
    ignore (Option.get (Buddy.alloc b ~order:0));
    (w, b)
  in
  (* node 3 (the free right half) and the root (above the allocation) *)
  List.iter
    (fun node ->
      let w, b = fresh () in
      Buddy.check_invariants b;
      corrupt w node ~by:1;
      check_bool (Printf.sprintf "tree word %d" node) true
        (raises (fun () -> Buddy.check_invariants b)))
    [ 3; 1 ];
  let w, b = fresh () in
  corrupt w (3 * pages) ~by:1;
  check_bool "drifted counter" true (raises (fun () -> Buddy.check_invariants b));
  (* an order-1 block at page 0, then a record claiming page 1 as well *)
  let w, b = mk_buddy pages in
  check_int "order-1 block at 0" 0 (Option.get (Buddy.alloc b ~order:1));
  corrupt w ((2 * pages) + 1) ~by:1;
  Alcotest.check_raises "overlapping records" (Failure "buddy: overlapping allocations") (fun () ->
      Buddy.check_invariants b);
  let w, b = mk_buddy pages in
  corrupt w ((2 * pages) + 1) ~by:2;
  Alcotest.check_raises "misaligned record" (Failure "buddy: misaligned allocation record")
    (fun () -> Buddy.check_invariants b)

let buddy_stale_words_accepted () =
  let pages = 16 in
  let w, b = mk_buddy pages in
  (* order 2 at page 0 is node 4; nodes 8, 9 and 16-19 lie under it *)
  check_int "order-2 block at 0" 0 (Option.get (Buddy.alloc b ~order:2));
  List.iter (fun node -> corrupt w node ~by:3) [ 8; 9; 16; 19 ];
  Buddy.check_invariants b

(* The reference check: the dense O(pages) pass over the word layout of
   [Buddy]'s interface (base 0), with an order record's tag [order + 1]
   limited to [1 .. log2 pages + 1].  Every page's record is read, a
   coverage array marks allocated pages, and every tree node outside an
   allocated block is compared with the value recomputed from coverage.
   [Buddy.check_invariants] visits only written words and must reach the
   same verdict. *)
let dense_check w ~pages =
  let read = Warea.read w in
  let max_order = Treesls_util.Bits.log2_int pages in
  let covered = Array.make pages false in
  let used = ref 0 in
  for p = 0 to pages - 1 do
    let tag = read ((2 * pages) + p) in
    if tag < 0 || tag - 1 > max_order then failwith "order record out of range";
    if tag > 0 then begin
      let size = 1 lsl (tag - 1) in
      if p mod size <> 0 then failwith "misaligned allocation record";
      for q = p to p + size - 1 do
        if covered.(q) then failwith "overlapping allocations";
        covered.(q) <- true
      done;
      used := !used + size
    end
  done;
  if read (3 * pages) <> !used then failwith "used count";
  let rec expect node nsize ~under =
    let got = if under then 0 else nsize - read node in
    let e =
      if nsize = 1 then if covered.(node - pages) then 0 else 1
      else
        let under = under || got = 0 in
        let l = expect (2 * node) (nsize / 2) ~under
        and r = expect ((2 * node) + 1) (nsize / 2) ~under in
        if l = nsize / 2 && r = nsize / 2 then nsize else max l r
    in
    if (not under) && got <> e then failwith "tree node";
    e
  in
  ignore (expect 1 pages ~under:false)

let verdict f = match f () with () -> true | exception Failure _ -> false

(* Seeded random allocator states on 4- to 128-page buddies, each then
   hit by 0-2 relative corruptions: the sparse check and the dense
   reference must agree on every one.  A third of the corruptions land
   on order words, where records overlap, misalign or leave the range. *)
let buddy_sparse_check_matches_dense () =
  let rng = Rng.create 2024L in
  let deltas = [| -3; -2; -1; 1; 1; 2; 3; 17; 64 |] in
  let states = 6_000 in
  let passed = ref 0 in
  for state = 1 to states do
    let pages = 1 lsl (2 + Rng.int rng 6) in
    let w, b = mk_buddy pages in
    let max_order = Treesls_util.Bits.log2_int pages in
    let live = ref [] in
    for _ = 1 to Rng.int rng (2 * pages) do
      if Rng.int rng 3 > 0 || !live = [] then begin
        let order = if Rng.bool rng then 0 else Rng.int rng (max_order + 1) in
        Option.iter (fun p -> live := p :: !live) (Buddy.alloc b ~order)
      end
      else begin
        let p = List.nth !live (Rng.int rng (List.length !live)) in
        Buddy.free b ~offset:p;
        live := List.filter (( <> ) p) !live
      end
    done;
    let words = Buddy.words_needed ~total_pages:pages in
    for _ = 1 to Rng.int rng 3 do
      let i =
        if Rng.int rng 3 = 0 then (2 * pages) + Rng.int rng pages else Rng.int rng words
      in
      corrupt w i ~by:deltas.(Rng.int rng (Array.length deltas))
    done;
    let dense = verdict (fun () -> dense_check w ~pages) in
    let sparse = verdict (fun () -> Buddy.check_invariants b) in
    if dense <> sparse then
      Alcotest.failf "state %d (%d pages): dense %s, sparse %s" state pages
        (if dense then "passes" else "fails")
        (if sparse then "passes" else "fails");
    if dense then incr passed
  done;
  (* both verdicts must be well represented for the agreement to mean much *)
  check_bool (Printf.sprintf "%d of %d states pass" !passed states) true
    (!passed > states / 4 && !passed < states * 3 / 4)

(* ---- Slab ---- *)

let mk_slab () =
  let pages = 64 in
  let bw = Buddy.words_needed ~total_pages:pages in
  let sw = Slab.words_needed ~max_slabs_per_class:8 in
  let w = warea ~words:(bw + sw) in
  let b = Buddy.format w ~base:0 ~total_pages:pages in
  let s = Slab.format w ~base:bw ~buddy:b ~page_size:4096 ~max_slabs_per_class:8 in
  (w, b, s)

let slab_class_of_size () =
  Alcotest.(check (option int)) "32" (Some 0) (Slab.class_of_size 1);
  Alcotest.(check (option int)) "exact" (Some 0) (Slab.class_of_size 32);
  Alcotest.(check (option int)) "rounds up" (Some 1) (Slab.class_of_size 33);
  Alcotest.(check (option int)) "largest" (Some 6) (Slab.class_of_size 2048);
  Alcotest.(check (option int)) "too big" None (Slab.class_of_size 4096)

let slab_alloc_free () =
  let _, b, s = mk_slab () in
  let h = Option.get (Slab.alloc s ~size:100) in
  check_int "live" 1 (Slab.live s);
  check_int "class" 2 h.Slab.cls;
  check_bool "page taken from buddy" true (Buddy.free_pages b < 64);
  Slab.check_invariants s;
  Slab.free s h;
  check_int "live after free" 0 (Slab.live s);
  check_int "page returned" 64 (Buddy.free_pages b);
  Slab.check_invariants s

let slab_fills_slab_before_growing () =
  let _, b, s = mk_slab () in
  let h1 = Option.get (Slab.alloc s ~size:2048) in
  let h2 = Option.get (Slab.alloc s ~size:2048) in
  check_int "same slab" h1.Slab.slot h2.Slab.slot;
  check_int "one page used" 63 (Buddy.free_pages b);
  let h3 = Option.get (Slab.alloc s ~size:2048) in
  check_bool "grew a slab" true (h3.Slab.slot <> h1.Slab.slot);
  check_int "two pages used" 62 (Buddy.free_pages b)

let slab_double_free () =
  let _, _, s = mk_slab () in
  let h = Option.get (Slab.alloc s ~size:64) in
  Slab.free s h;
  Alcotest.check_raises "double free" (Invalid_argument "Slab.free: slab slot not in use")
    (fun () -> Slab.free s h)

let slab_crash_during_grow phase () =
  let w, b, s = mk_slab () in
  let free0 = Buddy.free_pages b in
  Warea.set_crash_plan w (Some phase);
  (try ignore (Slab.alloc s ~size:64) with Warea.Crashed _ -> ());
  Warea.recover w;
  Buddy.check_invariants b;
  Slab.check_invariants s;
  (* no leak: either the whole grow happened (page used, object live) or
     none of it did *)
  let free1 = Buddy.free_pages b in
  if free1 = free0 then check_int "nothing allocated" 0 (Slab.live s)
  else begin
    check_int "one page" (free0 - 1) free1;
    check_int "one object" 1 (Slab.live s)
  end

let slab_live_in_class () =
  let _, _, s = mk_slab () in
  ignore (Option.get (Slab.alloc s ~size:32));
  ignore (Option.get (Slab.alloc s ~size:32));
  ignore (Option.get (Slab.alloc s ~size:512));
  check_int "class 0" 2 (Slab.live_in_class s 0);
  check_int "class 4" 1 (Slab.live_in_class s 4);
  check_int "total" 3 (Slab.live s)

let slab_random_ops () =
  let _, b, s = mk_slab () in
  let rng = Rng.create 88L in
  let live = ref [] in
  for _ = 1 to 2_000 do
    if Rng.bool rng && List.length !live < 100 then begin
      let size = 1 + Rng.int rng 2048 in
      match Slab.alloc s ~size with
      | Some h -> live := h :: !live
      | None -> ()
    end
    else
      match !live with
      | [] -> ()
      | h :: rest ->
        Slab.free s h;
        live := rest
  done;
  Slab.check_invariants s;
  Buddy.check_invariants b

(* ---- Global_meta ---- *)

let meta_commit_protocol () =
  let m = Global_meta.create ~wearmap:(Wearmap.create ()) in
  check_int "initial version" 0 (Global_meta.version m);
  Global_meta.begin_checkpoint m;
  check_bool "in progress" true (Global_meta.status m = Global_meta.In_progress);
  Global_meta.commit_checkpoint m;
  check_int "bumped" 1 (Global_meta.version m);
  check_bool "idle" true (Global_meta.status m = Global_meta.Idle);
  Global_meta.begin_checkpoint m;
  Global_meta.abort_in_flight m;
  check_int "abort keeps version" 1 (Global_meta.version m)

(* ---- Store ---- *)

let mk_store () =
  Store.create ~clock:(Clock.create ()) ~nvm_pages:64 ~dram_pages:8 ()

(* A fresh word area is already all-free, so formatting the buddy and
   the slabs costs one journaled word and one commit point each. *)
let store_format_journals_two_words () =
  let s = Store.create ~clock:(Clock.create ()) ~nvm_pages:65536 ~dram_pages:8 () in
  let w = Store.warea s in
  check_int "commit points" 2 (Warea.commit_points w);
  check_int "words written" 2 (Warea.words_written w);
  check_int "all free" 65536 (Store.nvm_pages_free s);
  Buddy.check_invariants (Store.buddy s);
  Slab.check_invariants (Store.slab s)

let store_pages () =
  let s = mk_store () in
  let p = Store.alloc_page s in
  check_bool "on nvm" true (Paddr.is_nvm p);
  check_int "free" 63 (Store.nvm_pages_free s);
  Store.free_page s p;
  check_int "freed" 64 (Store.nvm_pages_free s)

let store_charges_time () =
  let s = mk_store () in
  let t0 = Clock.now (Store.clock s) in
  ignore (Store.alloc_page s);
  check_bool "time advanced" true (Clock.now (Store.clock s) > t0)

let store_sink_redirect () =
  let s = mk_store () in
  let meter = ref 0 in
  let t0 = Clock.now (Store.clock s) in
  Store.with_sink s (Store.Meter meter) (fun () -> ignore (Store.alloc_page s));
  check_int "clock untouched" t0 (Clock.now (Store.clock s));
  check_bool "meter charged" true (!meter > 0);
  (* sink restored *)
  ignore (Store.alloc_page s);
  check_bool "clock charged after" true (Clock.now (Store.clock s) > t0)

let store_dram_exhaustion () =
  let s = mk_store () in
  let taken = ref [] in
  let rec drain () =
    match Store.alloc_dram_page s with
    | Some p ->
      taken := p :: !taken;
      drain ()
    | None -> ()
  in
  drain ();
  check_int "all 8 taken" 8 (List.length !taken);
  Store.free_dram_page s (List.hd !taken);
  check_bool "one available again" true (Store.alloc_dram_page s <> None)

let store_page_io () =
  let s = mk_store () in
  let p = Store.alloc_page s in
  Store.write_page s p ~off:100 (Bytes.of_string "data!");
  Alcotest.(check string) "roundtrip" "data!"
    (Bytes.to_string (Store.read_page s p ~off:100 ~len:5));
  let q = Store.alloc_page s in
  Store.copy_page s ~src:p ~dst:q;
  Alcotest.(check string) "copy" "data!" (Bytes.to_string (Store.read_page s q ~off:100 ~len:5))

let store_objects () =
  let s = mk_store () in
  let h = Store.alloc_obj s ~size:128 in
  check_int "live" 1 (Store.live_objects s);
  Store.free_obj s h;
  check_int "live after free" 0 (Store.live_objects s)

let store_crash_recover () =
  let s = mk_store () in
  let p = Store.alloc_page s in
  Store.write_page s p ~off:0 (Bytes.of_string "nvm");
  let d = Option.get (Store.alloc_dram_page s) in
  Store.write_page s d ~off:0 (Bytes.of_string "dram");
  Store.crash s;
  Store.recover s;
  Alcotest.(check string) "nvm content survives" "nvm"
    (Bytes.to_string (Store.read_page s p ~off:0 ~len:3));
  check_int "dram allocator reset" 8 (Store.dram_pages_free s);
  Alcotest.(check string) "dram content lost" "\000\000\000\000"
    (Bytes.to_string (Store.read_page s d ~off:0 ~len:4))

(* The DRAM and SSD free lists the store kept before its frame
   allocators became a bump index plus a stack of returned frames: lists
   seeded with every index in ascending order, popped at the head and
   freed onto it.  A crash empties the DRAM list and recovery refills it;
   the reconciliation frees, in slot order, every slot that is neither
   in the SSD list nor named. *)
module Free_lists = struct
  type t = { dram_pages : int; mutable dram : int list; mutable ssd : int list }

  let create ~dram_pages ~ssd_pages =
    { dram_pages; dram = List.init dram_pages Fun.id; ssd = List.init ssd_pages Fun.id }

  let pop l = match l with [] -> (None, []) | i :: rest -> (Some i, rest)

  let alloc_dram t =
    let i, rest = pop t.dram in
    t.dram <- rest;
    i

  let free_dram t i = t.dram <- i :: t.dram

  let alloc_ssd t =
    let i, rest = pop t.ssd in
    t.ssd <- rest;
    i

  let free_ssd t i = t.ssd <- i :: t.ssd
  let crash t = t.dram <- []
  let recover t = t.dram <- List.init t.dram_pages Fun.id

  let reclaim t ~ssd_pages ~named =
    let freed =
      List.filter (fun i -> not (List.mem i t.ssd || named i)) (List.init ssd_pages Fun.id)
    in
    List.iter (free_ssd t) freed;
    List.length freed
end

(* Seeded sequences of DRAM and swap traffic, crashes, recoveries and
   reconciliations on small devices (so both run dry), against the
   reference lists: the same frame out of every allocation, the same
   count out of every reconciliation, and equal free counts after every
   step. *)
let store_frames_match_free_lists () =
  for seed = 1 to 300 do
    let rng = Rng.create (Int64.of_int seed) in
    let dram_pages = 1 + Rng.int rng 24 and ssd_pages = 1 + Rng.int rng 24 in
    let s = Store.create ~clock:(Clock.create ()) ~nvm_pages:256 ~dram_pages ~ssd_pages () in
    let r = Free_lists.create ~dram_pages ~ssd_pages in
    let dram = ref [] and slots = ref [] and crashed = ref false in
    let pick l = List.nth l (Rng.int rng (List.length l)) in
    let remove x l = List.filter (fun y -> y <> x) l in
    let fail step what = Alcotest.failf "seed %d step %d: %s" seed step what in
    for step = 1 to 200 do
      (match Rng.int rng 10 with
      | _ when !crashed ->
        Store.recover s;
        Free_lists.recover r;
        crashed := false
      | 0 | 1 | 2 -> (
        match (Store.alloc_dram_page s, Free_lists.alloc_dram r) with
        | None, None -> ()
        | Some p, Some i when p.Paddr.idx = i && Paddr.is_dram p -> dram := i :: !dram
        | _ -> fail step "alloc_dram_page hands out another frame")
      | 3 | 4 when !dram <> [] ->
        let i = pick !dram in
        dram := remove i !dram;
        Store.free_dram_page s (Paddr.dram i);
        Free_lists.free_dram r i
      | 5 -> (
        let src = Store.alloc_page s in
        match (Store.swap_out s ~src, Free_lists.alloc_ssd r) with
        | None, None -> Store.free_page s src
        | Some p, Some i when p.Paddr.idx = i && Paddr.is_ssd p -> slots := i :: !slots
        | _ -> fail step "swap_out takes another slot")
      | 6 when !slots <> [] ->
        let i = pick !slots in
        slots := remove i !slots;
        Store.free_page s (Store.swap_in s ~slot:(Paddr.ssd i));
        Free_lists.free_ssd r i
      | 7 ->
        let named = List.filter (fun _ -> Rng.bool rng) !slots in
        let n = Store.reclaim_ssd_slots s ~named:(fun p -> List.mem p.Paddr.idx named) in
        if n <> Free_lists.reclaim r ~ssd_pages ~named:(fun i -> List.mem i named) then
          fail step "reclaim_ssd_slots frees another number of slots";
        slots := named
      | 8 when Rng.int rng 4 = 0 ->
        Store.crash s;
        Free_lists.crash r;
        dram := [];
        crashed := true
      | _ -> ());
      check_int
        (Printf.sprintf "seed %d step %d: dram_pages_free" seed step)
        (List.length r.Free_lists.dram) (Store.dram_pages_free s);
      check_int
        (Printf.sprintf "seed %d step %d: ssd_slots_free" seed step)
        (List.length r.Free_lists.ssd) (Store.ssd_slots_free s)
    done
  done

(* ---- qcheck: journaled allocator atomicity under random crashes ---- *)

let prop_buddy_crash_consistency =
  QCheck.Test.make ~name:"buddy: invariants after crash at any phase" ~count:100
    QCheck.(pair (int_bound 3) (int_bound 1000))
    (fun (phase_i, seed) ->
      let phase =
        match phase_i with
        | 0 -> Warea.Before_log
        | 1 -> Warea.After_log
        | 2 -> Warea.Mid_apply
        | _ -> Warea.After_apply
      in
      let w, b = mk_buddy 32 in
      let rng = Rng.create (Int64.of_int seed) in
      let live = ref [] in
      (* random warm-up ops *)
      for _ = 1 to 20 do
        if Rng.bool rng then (
          match Buddy.alloc b ~order:(Rng.int rng 3) with
          | Some p -> live := p :: !live
          | None -> ())
        else
          match !live with
          | p :: rest ->
            Buddy.free b ~offset:p;
            live := rest
          | [] -> ()
      done;
      Warea.set_crash_plan w (Some phase);
      (try
         if Rng.bool rng then ignore (Buddy.alloc b ~order:(Rng.int rng 2))
         else
           match !live with
           | p :: _ -> Buddy.free b ~offset:p
           | [] -> ignore (Buddy.alloc b ~order:0)
       with Warea.Crashed _ -> ());
      Warea.set_crash_plan w None;
      Warea.recover w;
      Buddy.check_invariants b;
      true)

let prop_slab_crash_consistency =
  QCheck.Test.make ~name:"slab: invariants after crash at any phase" ~count:100
    QCheck.(pair (int_bound 3) (int_bound 1000))
    (fun (phase_i, seed) ->
      let phase =
        match phase_i with
        | 0 -> Warea.Before_log
        | 1 -> Warea.After_log
        | 2 -> Warea.Mid_apply
        | _ -> Warea.After_apply
      in
      let w, b, s = mk_slab () in
      let rng = Rng.create (Int64.of_int seed) in
      let live = ref [] in
      for _ = 1 to 30 do
        if Rng.bool rng then (
          match Slab.alloc s ~size:(1 + Rng.int rng 2048) with
          | Some h -> live := h :: !live
          | None -> ())
        else
          match !live with
          | h :: rest ->
            Slab.free s h;
            live := rest
          | [] -> ()
      done;
      Warea.set_crash_plan w (Some phase);
      (try
         if Rng.bool rng then ignore (Slab.alloc s ~size:(1 + Rng.int rng 2048))
         else
           match !live with
           | h :: _ -> Slab.free s h
           | [] -> ignore (Slab.alloc s ~size:64)
       with Warea.Crashed _ -> ());
      Warea.set_crash_plan w None;
      Warea.recover w;
      Slab.check_invariants s;
      Buddy.check_invariants b;
      true)

(* The buddy against a model: every allocation takes the leftmost
   order-aligned run of free pages, and freeing makes the run free again. *)
let prop_buddy_model =
  let pages = 64 in
  QCheck.Test.make ~name:"buddy: leftmost aligned fit, as the model" ~count:200
    QCheck.(list_of_size Gen.(0 -- 300) (pair bool (int_bound 1000)))
    (fun ops ->
      let _, b = mk_buddy pages in
      let used = Array.make pages false in
      let live = ref [] in
      let model_alloc order =
        let size = 1 lsl order in
        let fits o = Array.for_all not (Array.sub used o size) in
        let rec find o = if o >= pages then None else if fits o then Some o else find (o + size) in
        find 0
      in
      let mark o size v = Array.fill used o size v in
      List.iter
        (fun (is_alloc, r) ->
          (if is_alloc || !live = [] then begin
             let order = r mod 4 in
             let got = Buddy.alloc b ~order and want = model_alloc order in
             if got <> want then
               QCheck.Test.fail_reportf "order %d: buddy %s, model %s" order
                 (Option.fold ~none:"none" ~some:string_of_int got)
                 (Option.fold ~none:"none" ~some:string_of_int want);
             Option.iter
               (fun o ->
                 mark o (1 lsl order) true;
                 live := (o, order) :: !live)
               got
           end
           else
             let o, order = List.nth !live (r mod List.length !live) in
             Buddy.free b ~offset:o;
             mark o (1 lsl order) false;
             live := List.filter (fun (o', _) -> o' <> o) !live);
          let model_free = Array.fold_left (fun n u -> if u then n else n + 1) 0 used in
          if Buddy.free_pages b <> model_free then
            QCheck.Test.fail_reportf "free_pages %d, model %d" (Buddy.free_pages b) model_free;
          Buddy.check_invariants b)
        ops;
      true)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_buddy_model; prop_buddy_crash_consistency; prop_slab_crash_consistency ]

let () =
  Alcotest.run "nvm"
    [
      ("paddr", [ Alcotest.test_case "basics" `Quick paddr_basics ]);
      ( "device",
        [
          Alcotest.test_case "read/write" `Quick device_rw;
          Alcotest.test_case "lazy materialisation" `Quick device_lazy;
          Alcotest.test_case "crash semantics" `Quick device_crash_semantics;
          Alcotest.test_case "cross-device copy" `Quick device_copy;
          Alcotest.test_case "zero page" `Quick device_zero;
          Alcotest.test_case "a first touch materialises one page" `Quick
            device_first_touch_one_page;
          Alcotest.test_case "zeroing an untouched page records no wear" `Quick
            device_zero_untouched_no_wear;
          Alcotest.test_case "a DRAM crash drops its chunks" `Quick device_crash_drops_dram_chunks;
          Alcotest.test_case "out-of-range indices raise" `Quick device_out_of_range_raises;
        ] );
      ( "warea",
        [
          Alcotest.test_case "commit and read" `Quick warea_commit_read;
          Alcotest.test_case "duplicate index rejected" `Quick warea_duplicate_index;
          Alcotest.test_case "crash before-log rolls back" `Quick
            (warea_crash_atomicity Warea.Before_log false);
          Alcotest.test_case "crash after-log rolls forward" `Quick
            (warea_crash_atomicity Warea.After_log true);
          Alcotest.test_case "crash mid-apply rolls forward" `Quick
            (warea_crash_atomicity Warea.Mid_apply true);
          Alcotest.test_case "crash after-apply rolls forward" `Quick
            (warea_crash_atomicity Warea.After_apply true);
          Alcotest.test_case "recover idempotent" `Quick warea_recover_idempotent;
          Alcotest.test_case "full phase matrix: never a mix" `Quick warea_phase_matrix;
          Alcotest.test_case "duplicate validated before side effects" `Quick
            warea_duplicate_before_side_effects;
          Alcotest.test_case "empty txn consumes a commit point" `Quick warea_empty_point_counts;
          Alcotest.test_case "empty txn fires armed plan" `Quick warea_empty_point_fires_armed_plan;
          Alcotest.test_case "schedule fires at absolute point" `Quick
            warea_schedule_fires_at_absolute_point;
          Alcotest.test_case "unwritten words read zero" `Quick warea_unwritten_reads_zero;
          Alcotest.test_case "non-zero words ascending" `Quick warea_nonzero_ascending;
          Alcotest.test_case "non-zero words after crash and replay" `Quick
            warea_nonzero_sees_crash_and_replay;
          Alcotest.test_case "out-of-range indices raise" `Quick warea_out_of_range_raises;
        ] );
      ( "txn",
        [
          Alcotest.test_case "read-through" `Quick txn_read_through;
          Alcotest.test_case "empty commit" `Quick txn_empty_commit;
          Alcotest.test_case "rewrite keeps single entry" `Quick txn_rewrite_single_entry;
        ] );
      ( "buddy",
        [
          Alcotest.test_case "alloc/free roundtrip" `Quick buddy_basics;
          Alcotest.test_case "orders and alignment" `Quick buddy_orders;
          Alcotest.test_case "exhaustion" `Quick buddy_exhaustion;
          Alcotest.test_case "merging" `Quick buddy_merge;
          Alcotest.test_case "double free rejected" `Quick buddy_double_free;
          Alcotest.test_case "bad order rejected" `Quick buddy_bad_order;
          Alcotest.test_case "crash before-log" `Quick (buddy_crash_during_alloc Warea.Before_log);
          Alcotest.test_case "crash after-log" `Quick (buddy_crash_during_alloc Warea.After_log);
          Alcotest.test_case "crash mid-apply" `Quick (buddy_crash_during_alloc Warea.Mid_apply);
          Alcotest.test_case "random ops keep invariants" `Quick buddy_random_ops;
          Alcotest.test_case "corrupted words detected" `Quick buddy_corruption_detected;
          Alcotest.test_case "stale words under a block accepted" `Quick
            buddy_stale_words_accepted;
          Alcotest.test_case "sparse check agrees with the dense reference" `Quick
            buddy_sparse_check_matches_dense;
        ] );
      ( "slab",
        [
          Alcotest.test_case "class_of_size" `Quick slab_class_of_size;
          Alcotest.test_case "alloc/free with page return" `Quick slab_alloc_free;
          Alcotest.test_case "fills before growing" `Quick slab_fills_slab_before_growing;
          Alcotest.test_case "double free rejected" `Quick slab_double_free;
          Alcotest.test_case "crash during grow (after-log)" `Quick
            (slab_crash_during_grow Warea.After_log);
          Alcotest.test_case "crash during grow (before-log)" `Quick
            (slab_crash_during_grow Warea.Before_log);
          Alcotest.test_case "crash during grow (mid-apply)" `Quick
            (slab_crash_during_grow Warea.Mid_apply);
          Alcotest.test_case "live per class" `Quick slab_live_in_class;
          Alcotest.test_case "random ops keep invariants" `Quick slab_random_ops;
        ] );
      ("global_meta", [ Alcotest.test_case "commit protocol" `Quick meta_commit_protocol ]);
      ( "store",
        [
          Alcotest.test_case "page alloc/free" `Quick store_pages;
          Alcotest.test_case "charges simulated time" `Quick store_charges_time;
          Alcotest.test_case "sink redirect" `Quick store_sink_redirect;
          Alcotest.test_case "dram exhaustion" `Quick store_dram_exhaustion;
          Alcotest.test_case "page io + copy" `Quick store_page_io;
          Alcotest.test_case "small objects" `Quick store_objects;
          Alcotest.test_case "crash and recover" `Quick store_crash_recover;
          Alcotest.test_case "format journals two words" `Quick store_format_journals_two_words;
          Alcotest.test_case "frames match the free-list reference" `Quick
            store_frames_match_free_lists;
        ] );
      ("properties", qsuite);
    ]
