(* The bucket arrays cover the buckets from 0 to the highest one a sample
   or a merge has reached: they start empty and double as needed, up to
   the full [octaves * sub_buckets] layout. *)
type t = {
  sub_buckets : int;
  mutable counts : int array; (* octave * sub_buckets + sub index *)
  mutable bucket_max : int array; (* largest recorded value per bucket *)
  mutable bucket_min : int array; (* smallest recorded value per bucket *)
  mutable n : int;
  mutable sum : int;
  mutable maxv : int;
  mutable minv : int;
}

let octaves = 48

let create ?(sub_buckets = 16) () =
  {
    sub_buckets;
    counts = [||];
    bucket_max = [||];
    bucket_min = [||];
    n = 0;
    sum = 0;
    maxv = 0;
    minv = max_int;
  }

let bucket_index t v =
  if v < t.sub_buckets then v
  else begin
    (* octave = position of the highest set bit above log2 sub_buckets *)
    let bits = Bits.log2_int v in
    let low_bits = Bits.log2_int t.sub_buckets in
    let octave = bits - low_bits in
    let sub = (v lsr (bits - low_bits)) - t.sub_buckets in
    (* sub in [0, sub_buckets): the sub_buckets values after the leading bit *)
    ((octave + 1) * t.sub_buckets) + sub
  end

(* The bucket [v] lands in.  It grows with [v], so every bucket a sample
   (or a merge) ever reached lies between those of [minv] and [maxv]; the
   buckets outside that range are untouched. *)
let bucket_of t v =
  let last = (octaves * t.sub_buckets) - 1 in
  let idx = bucket_index t v in
  if idx > last then last else idx

(* Widen the bucket arrays to hold bucket [idx]. *)
let reach t idx =
  let len = Array.length t.counts in
  if idx >= len then begin
    let width = ref (Stdlib.max len t.sub_buckets) in
    while !width <= idx do
      width := 2 * !width
    done;
    let width = Stdlib.min !width (octaves * t.sub_buckets) in
    let widen a fill =
      let b = Array.make width fill in
      Array.blit a 0 b 0 len;
      b
    in
    t.counts <- widen t.counts 0;
    t.bucket_max <- widen t.bucket_max 0;
    t.bucket_min <- widen t.bucket_min max_int
  end

let add t v =
  let v = if v < 0 then 0 else v in
  let idx = bucket_of t v in
  reach t idx;
  t.counts.(idx) <- t.counts.(idx) + 1;
  if v > t.bucket_max.(idx) then t.bucket_max.(idx) <- v;
  if v < t.bucket_min.(idx) then t.bucket_min.(idx) <- v;
  t.n <- t.n + 1;
  t.sum <- t.sum + v;
  if v > t.maxv then t.maxv <- v;
  if v < t.minv then t.minv <- v

let count t = t.n
let total t = t.sum
let mean t = if t.n = 0 then 0.0 else float_of_int t.sum /. float_of_int t.n
let max_value t = t.maxv
let min_value t = if t.n = 0 then 0 else t.minv

(* The percentile of the union of [hs] (all with the same bucket layout,
   not necessarily as wide), read in place: per bucket, the counts add up
   and the largest recorded value is the largest over [hs].  One histogram
   is a one-slice union.  The scan runs from the lowest to the highest
   bucket holding a sample; a slice too narrow to reach a bucket holds
   nothing there. *)
let percentile_of (hs : t array) ~n ~maxv p =
  if n = 0 then 0
  else begin
    let target = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    let target = if target < 1 then 1 else target in
    let lo = ref max_int and hi = ref (-1) in
    for j = 0 to Array.length hs - 1 do
      let h = hs.(j) in
      if h.n > 0 then begin
        lo := min !lo (bucket_of h h.minv);
        hi := Stdlib.max !hi (bucket_of h h.maxv)
      end
    done;
    let acc = ref 0 in
    let result = ref maxv in
    (try
       for i = !lo to !hi do
         for j = 0 to Array.length hs - 1 do
           if i < Array.length hs.(j).counts then acc := !acc + hs.(j).counts.(i)
         done;
         if !acc >= target then begin
           (* Report the largest *recorded* value in the bucket rather than
              the bucket's theoretical upper bound: with few samples the
              upper bound can overstate a p99 by a whole bucket width, while
              an observed value is off by at most the spread of samples
              actually inside the bucket.  An empty bucket's max is 0, so
              the max over [hs] is the max over those that hold samples. *)
           result := 0;
           for j = 0 to Array.length hs - 1 do
             let h = hs.(j) in
             if i < Array.length h.bucket_max && h.bucket_max.(i) > !result then
               result := h.bucket_max.(i)
           done;
           raise Exit
         end
       done
     with Exit -> ());
    if !result > maxv then maxv else !result
  end

let percentile t p = percentile_of [| t |] ~n:t.n ~maxv:t.maxv p

let merge ~into src =
  if into.sub_buckets <> src.sub_buckets then
    invalid_arg
      (Printf.sprintf "Histogram.merge: sub_buckets mismatch (%d vs %d)" into.sub_buckets
         src.sub_buckets);
  if src.n > 0 then begin
    let hi = bucket_of src src.maxv in
    reach into hi;
    for i = bucket_of src src.minv to hi do
      if src.counts.(i) > 0 then begin
        into.counts.(i) <- into.counts.(i) + src.counts.(i);
        if src.bucket_max.(i) > into.bucket_max.(i) then into.bucket_max.(i) <- src.bucket_max.(i);
        if src.bucket_min.(i) < into.bucket_min.(i) then into.bucket_min.(i) <- src.bucket_min.(i)
      end
    done
  end;
  into.n <- into.n + src.n;
  into.sum <- into.sum + src.sum;
  if src.maxv > into.maxv then into.maxv <- src.maxv;
  if src.n > 0 && src.minv < into.minv then into.minv <- src.minv

(* Only the buckets between [minv]'s and [maxv]'s can hold anything. *)
let clear t =
  if t.n > 0 then begin
    let lo = bucket_of t t.minv in
    let len = bucket_of t t.maxv - lo + 1 in
    Array.fill t.counts lo len 0;
    Array.fill t.bucket_max lo len 0;
    Array.fill t.bucket_min lo len max_int
  end;
  t.n <- 0;
  t.sum <- 0;
  t.maxv <- 0;
  t.minv <- max_int

(* A windowed histogram is a ring of [slices] plain histograms: samples land
   in the current slice, [rotate] retires the oldest slice, and every query
   reads the retained slices in place, as if they were merged.  This is the
   percentile-over-time primitive: rotate once per sampling interval and the
   window decays in whole-interval steps, with no per-sample cost beyond a
   plain [add] and no allocation per query. *)
module Windowed = struct
  type h = t

  type t = {
    slices : h array;
    mutable cur : int; (* index of the slice receiving new samples *)
    mutable rotations : int;
  }

  let create ?sub_buckets ~slices () =
    if slices <= 0 then invalid_arg "Histogram.Windowed.create: slices must be positive";
    {
      slices = Array.init slices (fun _ -> create ?sub_buckets ());
      cur = 0;
      rotations = 0;
    }

  let slices t = Array.length t.slices
  let rotations t = t.rotations
  let add t v = add t.slices.(t.cur) v
  let current t = t.slices.(t.cur)

  let rotate t =
    t.cur <- (t.cur + 1) mod Array.length t.slices;
    clear t.slices.(t.cur);
    t.rotations <- t.rotations + 1

  let count t = Array.fold_left (fun acc h -> acc + h.n) 0 t.slices
  let max_value t = Array.fold_left (fun acc h -> Stdlib.max acc h.maxv) 0 t.slices
  let percentile t p = percentile_of t.slices ~n:(count t) ~maxv:(max_value t) p

  let mean t =
    let n = count t in
    if n = 0 then 0.0
    else float_of_int (Array.fold_left (fun acc h -> acc + h.sum) 0 t.slices) /. float_of_int n

  let clear t =
    Array.iter clear t.slices;
    t.cur <- 0;
    t.rotations <- 0
end
