(** Zipfian-distributed key sampling, as used by YCSB.

    Uses the Gray et al. rejection-inversion-free approximation from the
    original YCSB implementation: constant-time sampling after O(1) setup
    (the zeta constant is approximated for large [n]). *)

type t

val create : ?theta:float -> n:int -> Rng.t -> t
(** [create ~theta ~n rng] samples from [\[0, n)] with skew [theta]
    (default 0.99, the YCSB default). *)

val extend : t -> n:int -> t
(** [extend t ~n] grows the sampling domain to [\[0, n)] (no-op when
    [n] is not above the current domain size).  The zeta constant is
    updated incrementally with the new harmonic terms only, so per-insert
    extension is cheap.  The returned sampler shares [t]'s random
    stream. *)

val next : t -> int
(** Next sample; item 0 is the most popular. *)

val scrambled : t -> int
(** Next sample with FNV scrambling, spreading hot items across the key
    space (YCSB's "scrambled zipfian"). Result is in [\[0, n)]. *)
