module Clock = Treesls_sim.Clock
module Histogram = Treesls_util.Histogram

type t = {
  clock : Clock.t;
  cost : Treesls_sim.Cost.t;
  lat : Histogram.t;
  mutable ops : int;
  mutable measure_from : int;
}

let create ?(cost = Treesls_sim.Cost.default) () =
  { clock = Clock.create (); cost; lat = Histogram.create (); ops = 0; measure_from = 0 }

let now t = Clock.now t.clock
let charge t ns = Clock.advance t.clock ns
let cost t = t.cost

let record t lat_ns =
  Histogram.add t.lat lat_ns;
  t.ops <- t.ops + 1

let ops t = t.ops

let elapsed_s t = float_of_int (now t - t.measure_from) /. 1e9

let throughput_kops t =
  let s = elapsed_s t in
  if s <= 0.0 then 0.0 else float_of_int t.ops /. s /. 1e3

let reset_measurement t =
  t.measure_from <- now t;
  t.ops <- 0;
  Histogram.clear t.lat
