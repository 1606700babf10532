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
  (* the current slice holds only the newest round *)
  check_int "current slice count" per_round (Histogram.count (W.current w));
  (* keep rotating, to four times the slice count, with every fourth
     round empty and values from 0 (and below) to past the last bucket:
     after each round the window still reads exactly like a histogram of
     the last [slices] rounds *)
  let value () =
    match Rng.int rng 20 with
    | 0 -> 0
    | 1 -> -5
    | 2 -> (1 lsl 55) + Rng.int rng 1_000
    | _ -> Rng.int rng 1_000_000
  in
  let extra =
    Array.init (4 * slices) (fun i ->
        if i mod 4 = 2 then [||] else Array.init (1 + Rng.int rng 300) (fun _ -> value ()))
  in
  let all = Array.append data extra in
  Array.iteri
    (fun k round ->
      let i = rounds + k in
      W.rotate w;
      Array.iter (W.add w) round;
      let direct = Histogram.create () in
      for j = i - slices + 1 to i do
        Array.iter (Histogram.add direct) all.(j)
      done;
      let label what = Printf.sprintf "round %d: %s equals direct" i what in
      check_int (label "count") (Histogram.count direct) (W.count w);
      check_float (label "mean") (Histogram.mean direct) (W.mean w);
      check_int (label "max") (Histogram.max_value direct) (W.max_value w);
      List.iter
        (fun p ->
          check_int
            (label (Printf.sprintf "p%g" p))
            (Histogram.percentile direct p) (W.percentile w p))
        [ 0.0; 1.0; 50.0; 99.0; 99.9; 100.0 ])
    extra;
  check_int "rotations past the slice count" (rounds - 1 + (4 * slices)) (W.rotations w);
  (* [slices] rotations with no samples leave an empty window *)
  for _ = 1 to slices do
    W.rotate w
  done;
  check_int "empty window count" 0 (W.count w);
  check_float "empty window mean" 0.0 (W.mean w);
  check_int "empty window max" 0 (W.max_value w);
  check_int "empty window p50" 0 (W.percentile w 50.0);
  check_int "empty window p99" 0 (W.percentile w 99.0);
  W.add w 7;
  check_int "one sample after an empty window" 7 (W.percentile w 99.0);
  W.clear w;
  check_int "clear empties" 0 (W.count w)

(* [clear] resets only the buckets between the smallest and largest
   sample; a cleared histogram must still read like a fresh one. *)
let clear_then_reuse () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ -3; 0; 17; 5_000; 1 lsl 40; 1 lsl 60 ];
  Histogram.clear h;
  check_int "cleared count" 0 (Histogram.count h);
  check_int "cleared p99" 0 (Histogram.percentile h 99.0);
  let fresh = Histogram.create () in
  List.iter
    (fun v ->
      Histogram.add h v;
      Histogram.add fresh v)
    [ 3; 90; 1 lsl 30 ];
  List.iter
    (fun p ->
      check_int (Printf.sprintf "p%g after clear" p) (Histogram.percentile fresh p)
        (Histogram.percentile h p))
    [ 0.0; 34.0; 50.0; 67.0; 100.0 ];
  check_int "min after clear" 3 (Histogram.min_value h);
  check_int "max after clear" (1 lsl 30) (Histogram.max_value h)

(* The histogram as it was before its bucket arrays grew on demand: the
   full 48-octave layout allocated up front.  The reference for
   [hist_matches_fixed_layout]. *)
module Fixed = struct
  type t = {
    counts : int array;
    bucket_max : int array;
    bucket_min : int array;
    mutable n : int;
    mutable sum : int;
    mutable maxv : int;
    mutable minv : int;
  }

  let sub_buckets = 16
  let buckets = 48 * sub_buckets

  let create () =
    {
      counts = Array.make buckets 0;
      bucket_max = Array.make buckets 0;
      bucket_min = Array.make buckets max_int;
      n = 0;
      sum = 0;
      maxv = 0;
      minv = max_int;
    }

  let bucket_of v =
    let idx =
      if v < sub_buckets then v
      else begin
        let bits = Bits.log2_int v and low_bits = Bits.log2_int sub_buckets in
        ((bits - low_bits + 1) * sub_buckets) + (v lsr (bits - low_bits)) - sub_buckets
      end
    in
    min idx (buckets - 1)

  let add t v =
    let v = max v 0 in
    let i = bucket_of v in
    t.counts.(i) <- t.counts.(i) + 1;
    t.bucket_max.(i) <- max t.bucket_max.(i) v;
    t.bucket_min.(i) <- min t.bucket_min.(i) v;
    t.n <- t.n + 1;
    t.sum <- t.sum + v;
    t.maxv <- max t.maxv v;
    t.minv <- min t.minv v

  let merge ~into src =
    for i = 0 to buckets - 1 do
      into.counts.(i) <- into.counts.(i) + src.counts.(i);
      into.bucket_max.(i) <- max into.bucket_max.(i) src.bucket_max.(i);
      into.bucket_min.(i) <- min into.bucket_min.(i) src.bucket_min.(i)
    done;
    into.n <- into.n + src.n;
    into.sum <- into.sum + src.sum;
    into.maxv <- max into.maxv src.maxv;
    into.minv <- min into.minv src.minv

  let clear t =
    Array.fill t.counts 0 buckets 0;
    Array.fill t.bucket_max 0 buckets 0;
    Array.fill t.bucket_min 0 buckets max_int;
    t.n <- 0;
    t.sum <- 0;
    t.maxv <- 0;
    t.minv <- max_int

  (* The percentile of the union of [hs], scanning every bucket. *)
  let percentile_of hs p =
    let n = List.fold_left (fun a h -> a + h.n) 0 hs in
    let maxv = List.fold_left (fun a h -> max a h.maxv) 0 hs in
    if n = 0 then 0
    else begin
      let target = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))) in
      let rec scan i acc =
        let acc = List.fold_left (fun a h -> a + h.counts.(i)) acc hs in
        if acc >= target then min maxv (List.fold_left (fun a h -> max a h.bucket_max.(i)) 0 hs)
        else if i = buckets - 1 then maxv
        else scan (i + 1) acc
      in
      scan 0 0
    end

  let count hs = List.fold_left (fun a h -> a + h.n) 0 hs
  let total hs = List.fold_left (fun a h -> a + h.sum) 0 hs
end

(* [total] and [min_value] are [None] for a windowed histogram, which
   reads neither. *)
let check_like_fixed label ~count ~total ~mean ~min_value ~max_value ~percentile hs =
  let n = Fixed.count hs in
  let l what = Printf.sprintf "%s: %s" label what in
  check_int (l "count") n count;
  Option.iter (check_int (l "total") (Fixed.total hs)) total;
  check_float (l "mean")
    (if n = 0 then 0.0 else float_of_int (Fixed.total hs) /. float_of_int n)
    mean;
  Option.iter
    (check_int (l "min")
       (if n = 0 then 0 else List.fold_left (fun a h -> min a h.Fixed.minv) max_int hs))
    min_value;
  check_int (l "max") (List.fold_left (fun a h -> max a h.Fixed.maxv) 0 hs) max_value;
  List.iter
    (fun p -> check_int (l (Printf.sprintf "p%g" p)) (Fixed.percentile_of hs p) (percentile p))
    [ 0.0; 1.0; 50.0; 90.0; 99.0; 99.9; 100.0 ]

(* Seeded samples (0, negatives, values in every octave and past the last
   bucket), merges both ways between histograms of different widths,
   [clear] and reuse, and a windowed histogram rotated to four times its
   slice count: after every step each reads exactly like the fixed
   layout. *)
let hist_matches_fixed_layout () =
  let rng = Rng.create 23L in
  let value () =
    match Rng.int rng 10 with
    | 0 -> 0
    | 1 -> -1 - Rng.int rng 1_000
    | 2 -> (1 lsl 51) + Rng.int rng (1 lsl 40)
    | 3 -> (1 lsl 61) + Rng.int rng 1_000
    | 4 -> Rng.int rng 16
    | _ -> (1 lsl Rng.int rng 50) + Rng.int rng 1_000
  in
  let a = Histogram.create () and fa = Fixed.create () in
  let b = ref (Histogram.create ()) and fb = ref (Fixed.create ()) in
  let check label h f =
    check_like_fixed label ~count:(Histogram.count h) ~total:(Some (Histogram.total h))
      ~mean:(Histogram.mean h) ~min_value:(Some (Histogram.min_value h))
      ~max_value:(Histogram.max_value h) ~percentile:(Histogram.percentile h) [ f ]
  in
  for step = 1 to 400 do
    (* [a] takes any value; [b] only values below 1,000 and is often
       replaced, so it stays narrower than [a] until [a] is merged into it *)
    (match Rng.int rng 12 with
    | 0 ->
      Histogram.merge ~into:a !b;
      Fixed.merge ~into:fa !fb
    | 1 ->
      Histogram.merge ~into:!b a;
      Fixed.merge ~into:!fb fa
    | 2 ->
      Histogram.clear a;
      Fixed.clear fa
    | 3 ->
      Histogram.clear !b;
      Fixed.clear !fb
    | 4 ->
      b := Histogram.create ();
      fb := Fixed.create ()
    | k ->
      let h, f, v =
        if k mod 2 = 0 then (a, fa, value) else (!b, !fb, fun () -> Rng.int rng 1_000)
      in
      for _ = 1 to 1 + Rng.int rng 20 do
        let v = v () in
        Histogram.add h v;
        Fixed.add f v
      done);
    check (Printf.sprintf "step %d: a" step) a fa;
    check (Printf.sprintf "step %d: b" step) !b !fb
  done;
  let module W = Histogram.Windowed in
  let slices = 4 in
  let w = W.create ~slices () in
  let fw = Array.init slices (fun _ -> Fixed.create ()) and cur = ref 0 in
  for round = 1 to 4 * slices do
    if round > 1 then begin
      W.rotate w;
      cur := (!cur + 1) mod slices;
      Fixed.clear fw.(!cur)
    end;
    (* some rounds stay empty; the first slice only ever holds values
       below 64, so it stays narrower than the slices after it *)
    let n = if round mod 5 = 3 then 0 else Rng.int rng 200 in
    let small = !cur = 0 in
    for _ = 1 to n do
      let v = if small then Rng.int rng 64 else value () in
      W.add w v;
      Fixed.add fw.(!cur) v
    done;
    check_like_fixed
      (Printf.sprintf "window round %d" round)
      ~count:(W.count w) ~total:None ~mean:(W.mean w) ~min_value:None
      ~max_value:(W.max_value w) ~percentile:(W.percentile w)
      (Array.to_list fw)
  done

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
          Alcotest.test_case "matches the fixed layout" `Quick hist_matches_fixed_layout;
        ] );
      ( "windowed",
        [
          Alcotest.test_case "merge equivalence" `Quick windowed_merge_equivalence;
          Alcotest.test_case "slices decay" `Quick windowed_decay;
          Alcotest.test_case "clear then reuse" `Quick clear_then_reuse;
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
