(** Log-scaled latency histogram.

    Bounded memory regardless of sample count, used where experiments
    record millions of per-operation latencies.  Buckets are exponential
    with a configurable number of sub-buckets per octave
    (HdrHistogram-style), 48 octaves in all; values past the last bucket
    land in it.  The bucket arrays start empty and grow, doubling, to the
    highest bucket a sample or a merge has reached, so a histogram of
    small values stays small; no count, total, mean, minimum, maximum or
    percentile depends on the width reached. *)

type t

val create : ?sub_buckets:int -> unit -> t
(** [create ~sub_buckets ()] with [sub_buckets] linear subdivisions per
    power of two (default 16). Values are non-negative integers
    (e.g. nanoseconds). *)

val add : t -> int -> unit
val count : t -> int
val total : t -> int
val mean : t -> float

val percentile : t -> float -> int
(** Largest {e recorded} value in the bucket containing the requested
    percentile (each bucket tracks the min/max of its samples).

    Error bound: the result is always one of the recorded values, never
    exceeds {!max_value}, and overstates the true percentile by at most
    the spread of samples within one bucket — bounded by the bucket
    width, i.e. a relative error of at most [1/sub_buckets] (6.25% for
    the default 16 sub-buckets).  In particular a low-sample p99 can no
    longer report a value larger than anything ever recorded, which the
    previous bucket-upper-bound scheme did. *)

val max_value : t -> int

val min_value : t -> int
(** Smallest recorded value; 0 when empty. *)

val merge : into:t -> t -> unit
(** [merge ~into src] folds every sample recorded in [src] into [into]
    without re-observing the raw values: bucket counts are summed and the
    per-bucket (and global) min/max are combined, so count/total/mean and
    every percentile of [into] afterwards equal those of a histogram that
    had observed both sample streams directly.  [into] widens to [src]'s
    highest bucket if it has to; [src] is unchanged.
    Raises [Invalid_argument] if the two histograms were created with
    different [sub_buckets]. *)

val clear : t -> unit
(** Forget every sample; the width reached is kept for reuse. *)

(** Sliding-window histogram for percentile-over-time queries.

    A ring of [slices] plain histograms: {!Windowed.add} lands in the
    current slice and {!Windowed.rotate} retires the oldest slice, so the
    window decays in whole-slice steps (rotate once per sampling interval
    for an N-interval sliding window).  Queries read the retained slices
    in place, bucket by bucket, and allocate nothing: a windowed count,
    mean, max or percentile equals that of a plain histogram that had
    observed only the retained samples.  A percentile costs one pass over
    the buckets up to the one holding it, times the slice count. *)
module Windowed : sig
  type h = t
  type t

  val create : ?sub_buckets:int -> slices:int -> unit -> t
  (** Raises [Invalid_argument] if [slices <= 0]. *)

  val add : t -> int -> unit
  val rotate : t -> unit
  (** Advance the window: clear and reuse the oldest slice. *)

  val current : t -> h
  (** The slice receiving new samples (samples since the last [rotate]). *)

  val count : t -> int
  val percentile : t -> float -> int
  val mean : t -> float
  val max_value : t -> int
  val slices : t -> int
  val rotations : t -> int
  val clear : t -> unit
end
