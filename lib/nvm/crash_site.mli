(** Named crash sites for the checkpoint/restore pipelines.

    The checkpoint manager marks interesting instants — sub-phases of the
    stop-the-world walk, hybrid-copy migration steps, the version bump —
    with [Crash_site.hit sites "ckpt.publish"] and the like.  In the
    default [Off] mode a hit is a single mode check (tier-1 tests pay
    nothing).  The crash-schedule explorer first runs a trace in [Record]
    mode to enumerate how often each site fires, then re-runs it with one
    site {!arm}ed: the [nth] hit of that site raises {!Warea.Crashed},
    modelling a power cut at exactly that instant.

    Each store owns one table ([Store.crash_sites]); the pipelines
    reach it through the store they already hold, so a site armed on one
    system never fires inside another. *)

type t

val create : unit -> t
(** A fresh table in [Off] mode. *)

val reset : t -> unit
(** Back to [Off]; clears hit counts. *)

val record : t -> unit
(** Count every hit per site (enumeration run). *)

val arm : t -> site:string -> nth:int -> unit
(** Crash (raise {!Warea.Crashed}) at the [nth] (1-based) hit of [site];
    self-disarms on firing. *)

val hit : t -> string -> unit
(** Mark a crash site.  No-op when [Off]. *)

val counts : t -> (string * int) list
(** Per-site hit counts of the current recording, sorted by site name. *)
