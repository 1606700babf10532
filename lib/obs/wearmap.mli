(** NVM write-amplification / wear telemetry ("wearmap").

    Counts every physical byte written to the simulated NVM device, per
    page (wear) and per writing subsystem (amplification).  Subsystem
    attribution uses each wearmap's {e writer context} — a stack of
    subsystem names manipulated with {!with_writer} — so the device layer
    stays ignorant of its callers.

    The tables live in the OCaml heap but model NVM-resident state (see
    [System.ensure_wear_backing]); counters are monotone and survive
    crash/restore because nothing ever rolls them back. *)

type t

val create : unit -> t

(** {2 Writer context} *)

val with_writer : t -> string -> (unit -> 'a) -> 'a
(** Run [f] with the given subsystem name as the innermost writer;
    exception-safe (the context pops even if [f] raises, e.g. an injected
    crash). *)

val with_default_writer : t -> string -> (unit -> 'a) -> 'a
(** Like {!with_writer} but only applies when no writer context is active —
    for generic entry points (the kernel write syscall claims ["app"]
    unless extsync/checkpoint/… already claimed the write). *)

val current_writer : t -> string
(** Innermost active writer, or {!unattributed} when none. *)

val unattributed : string
(** Attribution sink for writes outside any context — its presence in
    {!subsystems} means an instrumentation gap. *)

(** {2 Recording} *)

val record : t -> page:int -> bytes:int -> unit
(** A physical write of [bytes] to NVM page [page], attributed to the
    current writer; feeds the wear table and subsystem totals. *)

val note : t -> subsystem:string -> bytes:int -> unit
(** Modeled metadata bytes with no single backing page (journal records,
    object snapshots); feeds subsystem and grand totals only. *)

val copy_charged : t -> ns:int -> unit
(** A whole-page NVM copy was charged [ns] by the [Sim.Cost] model —
    lets reported bytes and reported time reconcile. *)

val reset : t -> unit

(** {2 Queries} *)

val total_writes : t -> int
val total_bytes : t -> int

val copy_pages : t -> int
val copy_ns : t -> int
(** Whole-page NVM copies seen by {!copy_charged} and their total charged
    ns; [copy_ns = copy_pages * nvm_page_write_copy_ns] by construction. *)

val pages_tracked : t -> int

val subsystems : t -> (string * int * int) list
(** [(name, writes, bytes)] sorted by name (deterministic output). *)

val subsystem_bytes : t -> string -> int

val top : t -> n:int -> (int * int * int) list
(** Top-[n] hottest pages as [(page, writes, bytes)], most-written first. *)

val max_writes : t -> int
val mean_writes : t -> float

val skew : t -> float
(** Max-over-mean write-count skew across touched pages; 1.0 = even wear,
    0.0 when no pages were written. *)

val gini : t -> float
(** Gini coefficient of the per-page write-count distribution over touched
    pages; 0 = uniform, approaching 1 = concentrated on few pages. *)

(** {2 Export} — [owners] optionally labels a page with its owner (from
    [Nvm_census.page_owners]). *)

val to_csv : ?owners:(int -> string option) -> t -> string
(** Full heatmap, one line per touched page, sorted by page index. *)

val to_json : ?owners:(int -> string option) -> ?top_n:int -> t -> Treesls_util.Json.t
(** Totals, per-subsystem breakdown, skew statistics and top-[top_n]
    hottest pages as a JSON object. *)
