(* Unit and property tests for treesls_util. *)

module Rng = Treesls_util.Rng
module Zipf = Treesls_util.Zipf
module Stats = Treesls_util.Stats
module Histogram = Treesls_util.Histogram
module Bits = Treesls_util.Bits
module Table = Treesls_util.Table
module Json = Treesls_util.Json

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ---- Rng ---- *)

let rng_deterministic () =
  let a = Rng.create 1L and b = Rng.create 1L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let rng_seed_sensitivity () =
  let a = Rng.create 1L and b = Rng.create 2L in
  check_bool "different seeds differ" false (Rng.int64 a = Rng.int64 b)

let rng_int_bounds () =
  let r = Rng.create 3L in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done

let rng_float_bounds () =
  let r = Rng.create 4L in
  for _ = 1 to 10_000 do
    let v = Rng.float r 2.5 in
    check_bool "in range" true (v >= 0.0 && v < 2.5)
  done

let rng_split_independent () =
  let parent = Rng.create 5L in
  let child = Rng.split parent in
  let a = Rng.int64 child and b = Rng.int64 parent in
  check_bool "split stream differs from parent" false (a = b)

let rng_copy_preserves () =
  let r = Rng.create 6L in
  ignore (Rng.int64 r);
  let c = Rng.copy r in
  Alcotest.(check int64) "copy replays" (Rng.int64 r) (Rng.int64 c)

let rng_shuffle_permutation () =
  let r = Rng.create 7L in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let rng_bool_balanced () =
  let r = Rng.create 8L in
  let trues = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.bool r then incr trues
  done;
  check_bool "roughly balanced" true (!trues > 4_500 && !trues < 5_500)

let rng_pick_member () =
  let r = Rng.create 9L in
  let a = [| 2; 4; 8 |] in
  for _ = 1 to 100 do
    check_bool "member" true (Array.mem (Rng.pick r a) a)
  done

(* ---- Zipf ---- *)

let zipf_bounds () =
  let r = Rng.create 10L in
  let z = Zipf.create ~n:100 r in
  for _ = 1 to 10_000 do
    let v = Zipf.next z in
    check_bool "in domain" true (v >= 0 && v < 100)
  done

let zipf_scrambled_bounds () =
  let r = Rng.create 11L in
  let z = Zipf.create ~n:1000 r in
  for _ = 1 to 10_000 do
    let v = Zipf.scrambled z in
    check_bool "in domain" true (v >= 0 && v < 1000)
  done

let zipf_skew () =
  let r = Rng.create 12L in
  let z = Zipf.create ~n:1000 r in
  let zero = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Zipf.next z = 0 then incr zero
  done;
  (* item 0 should receive far more than the uniform 1/1000 share *)
  check_bool "head is hot" true (!zero > n / 100)

let zipf_theta_effect () =
  let freq theta =
    let r = Rng.create 13L in
    let z = Zipf.create ~theta ~n:1000 r in
    let zero = ref 0 in
    for _ = 1 to 20_000 do
      if Zipf.next z = 0 then incr zero
    done;
    !zero
  in
  check_bool "higher theta is more skewed" true (freq 1.2 > freq 0.7)

(* ---- Stats ---- *)

let stats_empty () =
  let s = Stats.create () in
  check_int "count" 0 (Stats.count s);
  check_bool "is_empty" true (Stats.is_empty s);
  Alcotest.check_raises "percentile on empty" (Invalid_argument "Stats.percentile: empty")
    (fun () -> ignore (Stats.percentile s 50.0))

let stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  check_float "mean" 2.5 (Stats.mean s);
  check_float "min" 1.0 (Stats.min s);
  check_float "max" 4.0 (Stats.max s);
  check_float "total" 10.0 (Stats.total s)

let stats_percentile_interpolation () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 10.0; 20.0; 30.0 ];
  check_float "p50 is median" 20.0 (Stats.p50 s);
  check_float "p0 is min" 10.0 (Stats.percentile s 0.0);
  check_float "p100 is max" 30.0 (Stats.percentile s 100.0);
  check_float "p25 interpolates" 15.0 (Stats.percentile s 25.0)

let stats_stddev () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check (float 1e-6)) "sample stddev" 2.13809 (Stats.stddev s)

let stats_merge () =
  let a = Stats.create () and b = Stats.create () in
  Stats.add a 1.0;
  Stats.add b 3.0;
  let m = Stats.merge a b in
  check_int "merged count" 2 (Stats.count m);
  check_float "merged mean" 2.0 (Stats.mean m);
  check_int "a untouched" 1 (Stats.count a)

let stats_add_after_sort () =
  let s = Stats.create () in
  Stats.add s 5.0;
  check_float "max" 5.0 (Stats.max s);
  Stats.add s 1.0;
  check_float "min after re-sort" 1.0 (Stats.min s);
  check_float "max after re-sort" 5.0 (Stats.max s)

let stats_clear () =
  let s = Stats.create () in
  Stats.add s 1.0;
  Stats.clear s;
  check_int "cleared" 0 (Stats.count s)

let stats_opt_accessors () =
  let s = Stats.create () in
  check_bool "empty percentile_opt" true (Stats.percentile_opt s 50.0 = None);
  check_bool "empty min_opt" true (Stats.min_opt s = None);
  check_bool "empty max_opt" true (Stats.max_opt s = None);
  List.iter (Stats.add s) [ 10.0; 20.0 ];
  check_float "percentile_opt agrees" 15.0 (Option.get (Stats.percentile_opt s 50.0));
  check_float "min_opt agrees" 10.0 (Option.get (Stats.min_opt s));
  check_float "max_opt agrees" 20.0 (Option.get (Stats.max_opt s))

let stats_growth () =
  let s = Stats.create () in
  for i = 1 to 1000 do
    Stats.add s (float_of_int i)
  done;
  check_int "count" 1000 (Stats.count s);
  check_float "p50" 500.5 (Stats.p50 s)

(* ---- Histogram ---- *)

let hist_empty () =
  let h = Histogram.create () in
  check_int "count" 0 (Histogram.count h);
  check_int "p50 of empty" 0 (Histogram.percentile h 50.0)

let hist_exact_small () =
  let h = Histogram.create () in
  (* values below sub_buckets are recorded exactly *)
  List.iter (Histogram.add h) [ 1; 2; 3; 4; 5 ];
  check_int "p50 small exact" 3 (Histogram.percentile h 50.0);
  check_int "max" 5 (Histogram.max_value h)

let hist_bounded_error () =
  let h = Histogram.create () in
  for v = 1 to 100_000 do
    Histogram.add h v
  done;
  let p50 = Histogram.percentile h 50.0 in
  (* log buckets with 16 sub-buckets: <= ~6.25% relative error *)
  check_bool "p50 within bucket error" true (p50 >= 50_000 && p50 <= 53_500);
  let p99 = Histogram.percentile h 99.0 in
  check_bool "p99 within bucket error" true (p99 >= 99_000 && p99 <= 106_000)

let hist_mean_total () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 10; 20; 30 ];
  check_int "total" 60 (Histogram.total h);
  check_float "mean" 20.0 (Histogram.mean h)

let hist_negative_clamped () =
  let h = Histogram.create () in
  Histogram.add h (-5);
  check_int "clamped to zero" 0 (Histogram.percentile h 50.0)

let hist_percentile_is_recorded_value () =
  (* after the per-bucket min/max fix, a percentile is always one of the
     values actually recorded — never a synthetic bucket upper bound *)
  let h = Histogram.create () in
  let vals = [ 3; 17; 1_000; 123_456; 123_456; 999_999 ] in
  List.iter (Histogram.add h) vals;
  List.iter
    (fun p ->
      let v = Histogram.percentile h p in
      check_bool (Printf.sprintf "p%.0f is a recorded value" p) true (List.mem v vals))
    [ 0.0; 25.0; 50.0; 75.0; 99.0; 100.0 ];
  check_int "p100 is the max" 999_999 (Histogram.percentile h 100.0);
  check_int "min_value" 3 (Histogram.min_value h)

let hist_clear () =
  let h = Histogram.create () in
  Histogram.add h 42;
  Histogram.clear h;
  check_int "count" 0 (Histogram.count h);
  check_int "max" 0 (Histogram.max_value h)

(* merge ~into must be indistinguishable from having observed both sample
   streams directly: counts, totals, mean, min/max, every percentile *)
let hist_merge_equals_direct () =
  let rng = Treesls_util.Rng.create 99L in
  let stream_a = List.init 500 (fun _ -> Treesls_util.Rng.int rng 1_000_000) in
  let stream_b = List.init 300 (fun _ -> 1 + Treesls_util.Rng.int rng 500) in
  let a = Histogram.create () and b = Histogram.create () and direct = Histogram.create () in
  List.iter (Histogram.add a) stream_a;
  List.iter (Histogram.add b) stream_b;
  List.iter (Histogram.add direct) (stream_a @ stream_b);
  Histogram.merge ~into:a b;
  check_int "count" (Histogram.count direct) (Histogram.count a);
  check_int "total" (Histogram.total direct) (Histogram.total a);
  check_float "mean" (Histogram.mean direct) (Histogram.mean a);
  check_int "min" (Histogram.min_value direct) (Histogram.min_value a);
  check_int "max" (Histogram.max_value direct) (Histogram.max_value a);
  List.iter
    (fun p ->
      check_int
        (Printf.sprintf "p%.1f" p)
        (Histogram.percentile direct p) (Histogram.percentile a p))
    [ 0.0; 10.0; 25.0; 50.0; 75.0; 90.0; 99.0; 99.9; 100.0 ];
  (* src is unchanged *)
  check_int "src count" (List.length stream_b) (Histogram.count b)

let hist_merge_empty_cases () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.add a 7;
  (* empty source: no-op *)
  Histogram.merge ~into:a b;
  check_int "count after empty src" 1 (Histogram.count a);
  check_int "min preserved" 7 (Histogram.min_value a);
  (* empty destination: becomes a copy of the source's distribution *)
  Histogram.merge ~into:b a;
  check_int "empty dst count" 1 (Histogram.count b);
  check_int "empty dst min" 7 (Histogram.min_value b);
  check_int "empty dst p50" 7 (Histogram.percentile b 50.0)

let hist_merge_mismatched_buckets () =
  let a = Histogram.create ~sub_buckets:16 () in
  let b = Histogram.create ~sub_buckets:32 () in
  Alcotest.check_raises "sub_buckets mismatch"
    (Invalid_argument "Histogram.merge: sub_buckets mismatch (16 vs 32)") (fun () ->
      Histogram.merge ~into:a b)

(* ---- Histogram.Windowed ---- *)

(* The contract Tseries/Interval_ctl rely on: a windowed percentile equals
   the percentile of a plain histogram that observed only the retained
   samples — rotation retires whole slices exactly, never partially. *)
let windowed_merge_equivalence () =
  let module W = Histogram.Windowed in
  let slices = 3 and rounds = 6 and per_round = 250 in
  let rng = Rng.create 11L in
  let data = Array.init rounds (fun _ -> Array.init per_round (fun _ -> Rng.int rng 1_000_000)) in
  let w = W.create ~slices () in
  for i = 0 to rounds - 1 do
    if i > 0 then W.rotate w;
    Array.iter (W.add w) data.(i)
  done;
  check_int "rotations" (rounds - 1) (W.rotations w);
  check_int "slices" slices (W.slices w);
  (* retained window = the last [slices] rounds *)
  let direct = Histogram.create () in
  for i = rounds - slices to rounds - 1 do
    Array.iter (Histogram.add direct) data.(i)
  done;
  check_int "count equals direct" (Histogram.count direct) (W.count w);
  check_float "mean equals direct" (Histogram.mean direct) (W.mean w);
  check_int "max equals direct" (Histogram.max_value direct) (W.max_value w);
  List.iter
    (fun p ->
      check_int
        (Printf.sprintf "p%.0f equals direct" p)
        (Histogram.percentile direct p) (W.percentile w p))
    [ 1.0; 25.0; 50.0; 75.0; 90.0; 99.0; 100.0 ];
  (* merged returns a standalone histogram with the same view *)
  let m = W.merged w in
  check_int "merged count" (W.count w) (Histogram.count m);
  check_int "merged p99" (W.percentile w 99.0) (Histogram.percentile m 99.0);
  (* the current slice holds only the newest round *)
  check_int "current slice count" per_round (Histogram.count (W.current w));
  W.clear w;
  check_int "clear empties" 0 (W.count w)

let windowed_decay () =
  let module W = Histogram.Windowed in
  let w = W.create ~slices:2 () in
  W.add w 1_000_000;
  W.rotate w;
  W.add w 10;
  (* the old spike is still in the window of 2 slices... *)
  check_bool "old spike retained" true (W.max_value w >= 1_000_000);
  W.rotate w;
  W.add w 20;
  (* ...and gone after it rotates out *)
  check_bool "old spike aged out" true (W.max_value w < 1_000);
  check_int "only fresh samples" 2 (W.count w)

(* ---- Bits ---- *)

let bits_log2 () =
  check_int "log2 1" 0 (Bits.log2_int 1);
  check_int "log2 2" 1 (Bits.log2_int 2);
  check_int "log2 3" 1 (Bits.log2_int 3);
  check_int "log2 1024" 10 (Bits.log2_int 1024)

let bits_pow2 () =
  check_bool "1 is pow2" true (Bits.is_power_of_two 1);
  check_bool "6 is not" false (Bits.is_power_of_two 6);
  check_int "next pow2 of 5" 8 (Bits.next_power_of_two 5);
  check_int "next pow2 of 8" 8 (Bits.next_power_of_two 8);
  check_int "next pow2 of 1" 1 (Bits.next_power_of_two 1)

let bits_invalid () =
  Alcotest.check_raises "log2 0" (Invalid_argument "Bits.log2_int: non-positive") (fun () ->
      ignore (Bits.log2_int 0))

(* ---- Table ---- *)

let table_render () =
  let out = Table.render ~header:[ "a"; "bb" ] [ [ "xxx"; "1" ]; [ "y"; "22" ] ] in
  let lines = String.split_on_char '\n' out in
  check_int "rows + header + sep" 4 (List.length lines);
  (* all lines equal width *)
  match lines with
  | first :: rest ->
    List.iter (fun l -> check_int "aligned" (String.length first) (String.length l)) rest
  | [] -> Alcotest.fail "no output"

let table_formats () =
  check_string "us" "12.34" (Table.fmt_us 12.341);
  check_string "ratio" "2.20x" (Table.fmt_ratio 2.2);
  check_string "pct" "46%" (Table.fmt_pct 0.46)

(* ---- Json ---- *)

let json_parse_decodes () =
  let v =
    Json.parse
      (" {\"a\" : [0, -2.5e+3, true, false, null], "
      ^ "\"s\": \"q\\\"b\\\\s\\/ \\n\\t\\r\\b\\f\\u0001\\u00e9\\ud83d\\ude00\"}\n")
  in
  check_bool "every escape form decodes; a surrogate pair is one UTF-8 code point" true
    (v
    = Json.Obj
        [
          ( "a",
            Json.Arr
              [ Json.Num "0"; Json.Num "-2.5e+3"; Json.Bool true; Json.Bool false; Json.Null ] );
          ("s", Json.Str "q\"b\\s/ \n\t\r\b\012\001\xc3\xa9\xf0\x9f\x98\x80");
        ]);
  check_bool "member" true (Json.member "s" v <> None);
  check_bool "member absent" true (Json.member "zz" v = None);
  check_bool "member of a non-object" true (Json.member "a" (Json.Arr []) = None);
  check_float "to_float" (-2500.0) (Option.get (Json.to_float (Json.Num "-2.5e+3")));
  check_bool "to_float of a string" true (Json.to_float (Json.Str "1") = None)

(* BENCH files and CLI output are read back from outside the process *)
let json_rejects_malformed () =
  List.iter
    (fun (what, text) ->
      match Json.parse text with
      | _ -> Alcotest.failf "%s: %S parsed" what text
      | exception Json.Parse_error _ -> ())
    [
      ("trailing garbage", "{} x");
      ("two documents", "{}\n{}");
      ("unterminated string", "\"abc");
      ("unterminated object", "{\"a\":1");
      ("trailing comma", "[1,]");
      ("bad escape", "\"a\\qb\"");
      ("truncated \\u escape", "\"\\u12\"");
      ("non-hex \\u escape", "\"\\u12g4\"");
      ("lone surrogate", "\"\\ud83d\"");
      ("raw control byte", "\"a\nb\"");
      ("leading zero", "01");
      ("bare minus", "-");
      ("plus sign", "+1");
      ("no fraction digits", "1.");
      ("no exponent digits", "1e+");
      ("leading dot", ".5");
      ("nan", "nan");
      ("empty input", "");
    ]

(* ---- qcheck properties ---- *)

let prop_stats_percentile_bounds =
  QCheck.Test.make ~name:"stats: percentiles within [min,max]" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.0)) (float_bound_inclusive 100.0))
    (fun (xs, p) ->
      QCheck.assume (xs <> []);
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      let v = Stats.percentile s p in
      v >= Stats.min s -. 1e-9 && v <= Stats.max s +. 1e-9)

let prop_hist_percentile_monotone =
  QCheck.Test.make ~name:"histogram: percentile is monotone in p" ~count:100
    QCheck.(list_of_size Gen.(1 -- 100) (int_bound 1_000_000))
    (fun xs ->
      QCheck.assume (xs <> []);
      let h = Histogram.create () in
      List.iter (Histogram.add h) xs;
      let prev = ref 0 in
      List.for_all
        (fun p ->
          let v = Histogram.percentile h p in
          let ok = v >= !prev in
          prev := v;
          ok)
        [ 10.0; 25.0; 50.0; 75.0; 90.0; 99.0; 100.0 ])

let prop_rng_int_uniformish =
  QCheck.Test.make ~name:"rng: all residues hit" ~count:20
    QCheck.(int_range 2 10)
    (fun bound ->
      let r = Rng.create 99L in
      let seen = Array.make bound false in
      for _ = 1 to 1000 do
        seen.(Rng.int r bound) <- true
      done;
      Array.for_all Fun.id seen)

let prop_bits_next_pow2 =
  QCheck.Test.make ~name:"bits: next_power_of_two properties" ~count:500
    QCheck.(int_range 1 (1 lsl 30))
    (fun v ->
      let p = Bits.next_power_of_two v in
      Bits.is_power_of_two p && p >= v && (p = 1 || p / 2 < v))

(* strings mix raw bytes (non-ASCII, control) with every escaped byte;
   numbers come from the producers' own constructors *)
let json_arb =
  let open QCheck.Gen in
  let byte = oneof [ char; oneofl [ '"'; '\\'; '/'; '\n'; '\r'; '\t'; '\000' ] ] in
  let str = string_size ~gen:byte (0 -- 8) in
  let num = oneof [ map Json.int int; map2 Json.fixed (0 -- 6) (float_range (-1e9) 1e9) ] in
  let gen =
    sized
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 return Json.Null;
                 map (fun b -> Json.Bool b) bool;
                 num;
                 map (fun s -> Json.Str s) str;
               ]
           in
           if n <= 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 (1, map (fun l -> Json.Arr l) (list_size (0 -- 4) (self (n / 4))));
                 (1, map (fun l -> Json.Obj l) (list_size (0 -- 4) (pair str (self (n / 4)))));
               ])
  in
  QCheck.make ~print:Json.to_string gen

let prop_json_roundtrip =
  QCheck.Test.make ~name:"json: parse (to_string v) = v" ~count:500 json_arb (fun v ->
      Json.parse (Json.to_string v) = v)

let qsuite = List.map QCheck_alcotest.to_alcotest
  [
    prop_stats_percentile_bounds;
    prop_hist_percentile_monotone;
    prop_rng_int_uniformish;
    prop_bits_next_pow2;
    prop_json_roundtrip;
  ]

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick rng_int_bounds;
          Alcotest.test_case "float bounds" `Quick rng_float_bounds;
          Alcotest.test_case "split independent" `Quick rng_split_independent;
          Alcotest.test_case "copy preserves" `Quick rng_copy_preserves;
          Alcotest.test_case "shuffle permutation" `Quick rng_shuffle_permutation;
          Alcotest.test_case "bool balanced" `Quick rng_bool_balanced;
          Alcotest.test_case "pick member" `Quick rng_pick_member;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "bounds" `Quick zipf_bounds;
          Alcotest.test_case "scrambled bounds" `Quick zipf_scrambled_bounds;
          Alcotest.test_case "skew" `Quick zipf_skew;
          Alcotest.test_case "theta effect" `Quick zipf_theta_effect;
        ] );
      ( "stats",
        [
          Alcotest.test_case "empty" `Quick stats_empty;
          Alcotest.test_case "basic" `Quick stats_basic;
          Alcotest.test_case "percentile interpolation" `Quick stats_percentile_interpolation;
          Alcotest.test_case "stddev" `Quick stats_stddev;
          Alcotest.test_case "merge" `Quick stats_merge;
          Alcotest.test_case "add after sort" `Quick stats_add_after_sort;
          Alcotest.test_case "opt accessors" `Quick stats_opt_accessors;
          Alcotest.test_case "clear" `Quick stats_clear;
          Alcotest.test_case "growth" `Quick stats_growth;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "empty" `Quick hist_empty;
          Alcotest.test_case "exact small values" `Quick hist_exact_small;
          Alcotest.test_case "bounded error" `Quick hist_bounded_error;
          Alcotest.test_case "mean and total" `Quick hist_mean_total;
          Alcotest.test_case "negative clamped" `Quick hist_negative_clamped;
          Alcotest.test_case "percentile is a recorded value" `Quick
            hist_percentile_is_recorded_value;
          Alcotest.test_case "clear" `Quick hist_clear;
          Alcotest.test_case "merge equals direct observation" `Quick hist_merge_equals_direct;
          Alcotest.test_case "merge empty cases" `Quick hist_merge_empty_cases;
          Alcotest.test_case "merge mismatched sub_buckets" `Quick hist_merge_mismatched_buckets;
        ] );
      ( "windowed",
        [
          Alcotest.test_case "merge equivalence" `Quick windowed_merge_equivalence;
          Alcotest.test_case "slices decay" `Quick windowed_decay;
        ] );
      ( "bits",
        [
          Alcotest.test_case "log2" `Quick bits_log2;
          Alcotest.test_case "powers of two" `Quick bits_pow2;
          Alcotest.test_case "invalid input" `Quick bits_invalid;
        ] );
      ( "table",
        [
          Alcotest.test_case "render alignment" `Quick table_render;
          Alcotest.test_case "formatters" `Quick table_formats;
        ] );
      ( "json",
        [
          Alcotest.test_case "parse decodes every escape" `Quick json_parse_decodes;
          Alcotest.test_case "parse rejects malformed input" `Quick json_rejects_malformed;
        ] );
      ("properties", qsuite);
    ]
