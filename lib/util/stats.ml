type t = {
  mutable data : float array;
  mutable len : int;
  mutable sorted : bool;
}

let create () = { data = Array.make 64 0.0; len = 0; sorted = true }

let add t x =
  if t.len = Array.length t.data then t.data <- Arr.grow t.data t.len 0.0;
  t.data.(t.len) <- x;
  t.len <- t.len + 1;
  t.sorted <- false

let count t = t.len
let is_empty t = t.len = 0

let ensure_sorted t =
  if not t.sorted then begin
    let slice = Array.sub t.data 0 t.len in
    Array.sort compare slice;
    Array.blit slice 0 t.data 0 t.len;
    t.sorted <- true
  end

let total t =
  let sum = ref 0.0 in
  for i = 0 to t.len - 1 do
    sum := !sum +. t.data.(i)
  done;
  !sum

let mean t = if t.len = 0 then 0.0 else total t /. float_of_int t.len

let stddev t =
  if t.len < 2 then 0.0
  else begin
    let m = mean t in
    let acc = ref 0.0 in
    for i = 0 to t.len - 1 do
      let d = t.data.(i) -. m in
      acc := !acc +. (d *. d)
    done;
    sqrt (!acc /. float_of_int (t.len - 1))
  end

let min t =
  ensure_sorted t;
  if t.len = 0 then invalid_arg "Stats.min: empty";
  t.data.(0)

let max t =
  ensure_sorted t;
  if t.len = 0 then invalid_arg "Stats.max: empty";
  t.data.(t.len - 1)

let percentile t p =
  if t.len = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  ensure_sorted t;
  let rank = p /. 100.0 *. float_of_int (t.len - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then t.data.(lo)
  else
    let frac = rank -. float_of_int lo in
    t.data.(lo) +. (frac *. (t.data.(hi) -. t.data.(lo)))

let percentile_opt t p = if t.len = 0 then None else Some (percentile t p)
let min_opt t = if t.len = 0 then None else Some (min t)
let max_opt t = if t.len = 0 then None else Some (max t)

let p50 t = percentile t 50.0

let merge a b =
  let m = create () in
  for i = 0 to a.len - 1 do
    add m a.data.(i)
  done;
  for i = 0 to b.len - 1 do
    add m b.data.(i)
  done;
  m

let clear t =
  t.len <- 0;
  t.sorted <- true
