(** SQLite-style embedded database (single-threaded B-tree + rollback
    journal).

    Reproduces the paper's SQLite workload: a mixed
    read/insert/update/delete benchmark where every write additionally
    journals the pre-image of the touched "B-tree page", dirtying extra
    pages — the app-level crash consistency machinery that TreeSLS makes
    redundant but unmodified applications still run. *)

module System = Treesls.System

type t

val launch : System.t -> t
val refresh : t -> unit

type op = Read | Insert | Update | Delete

val step : t -> Treesls_util.Rng.t -> unit
(** One operation from the mixed benchmark (25% each). *)

val op_step : t -> op -> int -> unit
(** A specific operation on row [i]. *)

val rows : t -> int
(** Rows currently stored. *)
