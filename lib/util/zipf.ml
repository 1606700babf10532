type t = {
  rng : Rng.t;
  n : int;
  theta : float;
  alpha : float;
  zetan : float;
  eta : float;
}

let zeta n theta =
  let sum = ref 0.0 in
  for i = 1 to n do
    sum := !sum +. (1.0 /. Float.pow (float_of_int i) theta)
  done;
  !sum

(* For large n computing zeta exactly is O(n); cap the exact part and
   extrapolate with the integral approximation of the tail. *)
let zeta_approx n theta =
  let exact_cap = 10_000 in
  if n <= exact_cap then zeta n theta
  else
    let head = zeta exact_cap theta in
    let a = float_of_int exact_cap and b = float_of_int n in
    let tail = (Float.pow b (1.0 -. theta) -. Float.pow a (1.0 -. theta)) /. (1.0 -. theta) in
    head +. tail

let create ?(theta = 0.99) ~n rng =
  assert (n > 0);
  let zetan = zeta_approx n theta in
  let zeta2 = zeta 2 theta in
  let alpha = 1.0 /. (1.0 -. theta) in
  let eta =
    (1.0 -. Float.pow (2.0 /. float_of_int n) (1.0 -. theta))
    /. (1.0 -. (zeta2 /. zetan))
  in
  { rng; n; theta; alpha; zetan; eta }

(* Extending the domain only needs the new terms of the harmonic sum:
   zeta(n', theta) = zeta(n, theta) + sum_{i=n+1..n'} i^-theta.  For the
   incremental range we always sum exactly (inserts arrive one or a few at
   a time), so repeated extension stays O(total growth), not O(n) each. *)
let extend t ~n =
  if n <= t.n then t
  else begin
    let added = ref 0.0 in
    for i = t.n + 1 to n do
      added := !added +. (1.0 /. Float.pow (float_of_int i) t.theta)
    done;
    let zetan = t.zetan +. !added in
    let zeta2 = zeta 2 t.theta in
    let eta =
      (1.0 -. Float.pow (2.0 /. float_of_int n) (1.0 -. t.theta))
      /. (1.0 -. (zeta2 /. zetan))
    in
    { t with n; zetan; eta }
  end

let next t =
  let u = Rng.float t.rng 1.0 in
  let uz = u *. t.zetan in
  if uz < 1.0 then 0
  else if uz < 1.0 +. Float.pow 0.5 t.theta then 1
  else
    let v =
      float_of_int t.n
      *. Float.pow ((t.eta *. u) -. t.eta +. 1.0) t.alpha
    in
    let i = int_of_float v in
    if i >= t.n then t.n - 1 else if i < 0 then 0 else i

(* FNV-1a 64-bit hash used to scramble the skewed item ids. *)
let fnv1a_64 x =
  let prime = 0x100000001B3L in
  let h = ref 0xCBF29CE484222325L in
  for shift = 0 to 7 do
    let byte = Int64.to_int (Int64.logand (Int64.shift_right_logical x (shift * 8)) 0xFFL) in
    h := Int64.mul (Int64.logxor !h (Int64.of_int byte)) prime
  done;
  !h

let scrambled t =
  let raw = next t in
  let h = fnv1a_64 (Int64.of_int raw) in
  (Int64.to_int h land max_int) mod t.n
