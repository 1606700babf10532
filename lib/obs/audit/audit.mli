(** The NVM state auditor ("slsfsck").

    Given a quiesced system, walks the global checkpoint metadata, the
    ORoot/backup tree, the runtime capability tree and the buddy/slab
    allocators and checks the paper's crash-consistency invariants:

    - {b Meta/Journal}: no checkpoint marked in flight, allocator journal
      truncated (both must hold whenever the system is not inside the STW
      pause).
    - {b Captree}: every ORoot's versions are sane ([first_ver <=
      last_seen_ver], no snapshot stamped above the committed global
      version [g]); every object committed at [g] has a restorable
      snapshot whose references resolve to ORoots; no ORoot missed by
      garbage collection.
    - {b Pages}: checkpointed-page records respect the CP/CPP state
      machine — a DRAM-cached runtime keeps both NVM backup halves, an
      NVM (or swapped-out) runtime keeps [b2 = None]; no backup or birth
      stamped above [g]; backup frames live on NVM; replaying the restore
      rule over every record finds a source for every committed page, and
      sealed sources still verify.
    - {b Allocator}: buddy/slab internal invariants hold, and every live
      buddy block is claimed by exactly one subsystem (runtime page,
      backup frame, eternal frame, slab page) — unclaimed blocks are
      leaks, claims without a live block are dangling frames.
    - {b Eternal}: eternal PMOs carry no rollback page records ([§5]:
      they are excluded from rollback), their frames are NVM-resident,
      each reachable one holds a capability in the root cap group's own
      slots (where [Ring.reattach] looks for it), and every observability
      backing PMO (trace ring, wearmap, black box; each once reserved) is
      a reachable eternal PMO.

    Every failed check yields a structured {!violation}; a clean system
    yields none.  The same walk prices NVM by subsystem ({!Nvm_census})
    and, with an {!Treesls_ckpt.Eidetic} archive attached, {!diff}
    explains what changed between two committed versions.

    The audit is a pure read: it charges no simulated time and mutates
    nothing, so paranoid callers (bench [--audit]) can run it after every
    commit and every crash/restore. *)

module Eidetic = Treesls_ckpt.Eidetic
module Manager = Treesls_ckpt.Manager
module Kobj = Treesls_cap.Kobj
module Paddr = Treesls_nvm.Paddr

(** {1 Invariant audit} *)

type severity = Info | Warning | Error

type subsystem = Meta | Journal | Captree | Pages | Allocator | Eternal | Wear

type violation = {
  severity : severity;
  subsystem : subsystem;
  obj_id : int option;
  pno : int option;
  paddr : Paddr.t option;
  message : string;
}

type report = {
  version : int;  (** committed global version audited against *)
  objects_checked : int;  (** ORoots visited *)
  pages_checked : int;  (** checkpointed-page records visited *)
  violations : violation list;  (** errors first *)
  census : Nvm_census.t;
}

type wear_thresholds = { waf_warn : float; skew_warn : float; skew_min_pages : int }
(** Wear-health limits: warn when the last checkpoint's write
    amplification exceeds [waf_warn], or when max/mean per-page write
    skew exceeds [skew_warn] (checked only once at least
    [skew_min_pages] NVM pages have been written). *)

val default_wear_thresholds : wear_thresholds
(** [{ waf_warn = 8.0; skew_warn = 50.0; skew_min_pages = 64 }] *)

val run : ?wear:wear_thresholds -> Manager.t -> report
(** Audit a quiesced system.  Bumps the [audit.runs] and
    [audit.violations] metrics counters (and [audit.errors] when any
    violation is [Error]-severity).  [wear] additionally enables
    [Warning]-severity wear-health checks (write amplification, wear
    skew, unattributed NVM writes) — opt-in so a plain audit of a
    healthy system reports zero violations regardless of workload. *)

val ok : report -> bool
(** No violations at all. *)

val errors : report -> int
val warnings : report -> int

val severity_name : severity -> string
val subsystem_name : subsystem -> string
val pp_violation : Format.formatter -> violation -> unit
val pp : Format.formatter -> report -> unit
val to_json : report -> Treesls_util.Json.t

(** {1 Cross-version diff explorer} *)

type object_change = Added | Removed | Mutated

type page_class =
  | Cow_protected  (** CP case: NVM runtime, protected by CoW backups *)
  | Stop_and_copied  (** CPP case: DRAM-cached, stop-and-copied each STW *)
  | Migrated
      (** the newest backup half is the runtime frame donated at exactly
          the diff's target version — an NVM-to-DRAM migration *)
  | Unknown
      (** page no longer under checkpoint management, or the diff's
          target version is not the currently committed one *)

type diff = {
  from_version : int;
  to_version : int;
  objects : (int * Kobj.kind * object_change) list;  (** sorted by id *)
  pages : (int * int * page_class) list;
      (** [(pmo id, pno, class)] of pages whose content changed in
          [(from, to]], sorted *)
}

val diff : Manager.t -> Eidetic.t -> from_version:int -> to_version:int -> diff
(** Explain the state delta between two archived versions.  Raises
    [Invalid_argument] if either version is outside the archive window. *)

val change_name : object_change -> string
val class_name : page_class -> string
val pp_diff : Format.formatter -> diff -> unit
val diff_to_json : diff -> Treesls_util.Json.t
