(** Capability object roots (§4.1).

    One ORoot exists per unique object, deduplicating checkpoint work for
    objects referenced by several cap groups and linking the runtime object
    to its backups.  Non-PMO objects keep two backup snapshots in
    alternation, so the snapshot belonging to the last {e committed}
    checkpoint survives while the next one is written.  Normal PMOs
    additionally own the versioned page table ({!Ckpt_page}). *)

type t = {
  obj_id : int;
  kind : Treesls_cap.Kobj.kind;
  mutable first_ver : int;  (** first checkpoint version including this object *)
  mutable runtime : Treesls_cap.Kobj.t option;
      (** the runtime object ("ORoot records the addresses of the runtime
          object and the corresponding backup objects", §4.1); needed by
          garbage collection to release the runtime frames of objects that
          left the tree *)
  mutable slot_a : (int * Snapshot.t) option;
      (** the two snapshot slots.  A slot's stamp is the version of the
          walk that saved it: an object was walked at version [v] exactly
          when {!at} [v] finds a snapshot.  The incremental walk skips an
          object that has an ORoot and that its kernel's dirty log does
          not name: its newest snapshot is then its current state, which
          the auditor checks ([Live_tree.check]) *)
  mutable slot_b : (int * Snapshot.t) option;
  pages : Ckpt_page.t option;  (** Some for normal PMOs *)
}

val create : obj_id:int -> kind:Treesls_cap.Kobj.kind -> version:int -> has_pages:bool -> t

val save : t -> version:int -> Snapshot.t -> unit
(** Write a snapshot stamped [version] into the staler slot. *)

val at : t -> version:int -> Snapshot.t option
(** Snapshot stamped exactly [version]. *)

val latest_le : t -> version:int -> (int * Snapshot.t) option
(** Newest snapshot stamped [<= version]. *)

val runtime_page : t -> int -> Treesls_nvm.Paddr.t option
(** The frame page [pno] of the runtime PMO maps, read through the
    [runtime] pointer; [None] for a hole or a non-PMO object.  At restore
    time this is the crash-time frame (restore moves the pointer to the
    restored object only after the swap), for live and revoked PMOs
    alike; later it is the live one. *)

val pages_exn : t -> Ckpt_page.t
