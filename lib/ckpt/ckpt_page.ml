module Paddr = Treesls_nvm.Paddr
module Store = Treesls_nvm.Store
module Cost = Treesls_sim.Cost
module Radix = Treesls_cap.Radix

type cp = {
  mutable born_ver : int;
  mutable b1 : Paddr.t option;
  mutable b1_ver : int;
  mutable b2 : Paddr.t option;
  mutable b2_ver : int;
}

type t = { table : cp Radix.t }

let create () = { table = Radix.create () }
let find t pno = Radix.get t.table pno
let cardinal t = Radix.cardinal t.table
let iter f t = Radix.iter f t.table

let record_bytes = 40

(* Building one checkpointed-page entry: a slab-sized record write. This
   per-entry cost, times the page count, is what makes the full checkpoint
   of a large PMO take milliseconds (Table 3). *)
let entry_build_ns (store : Store.t) =
  let c = Store.cost store in
  c.Cost.alloc_small_ns + Cost.object_copy_ns c ~to_nvm:true ~bytes_len:record_bytes

let ensure store t ~pno ~born_ver =
  match Radix.get t.table pno with
  | Some cp -> cp
  | None ->
    Store.charge store (entry_build_ns store);
    let cp = { born_ver; b1 = None; b1_ver = 0; b2 = None; b2_ver = 0 } in
    Radix.set t.table pno cp;
    cp

let cow_backup store t ~runtime ~pno ~global =
  (* only NVM runtimes take CoW backups: DRAM pages use stop-and-copy, and
     swapped-out (SSD) pages fault back in before any write *)
  if not (Paddr.is_nvm runtime) then false
  else
    match Radix.get t.table pno with
    | None -> false (* page not yet under checkpoint management *)
    | Some cp ->
      if cp.b1_ver = global && cp.b1 <> None then false
      else if cp.b2_ver = global && cp.b2 <> None then false
      else begin
        (* Runtime on NVM: CP case, b2 is the runtime marker. *)
        assert (cp.b2 = None);
        (* The backup copy is checkpoint wear even though the fault that
           triggered it arrived under the writer's ("app"/"extsync")
           context — with_writer overrides the "app" default. *)
        Treesls_obs.Wearmap.with_writer (Treesls_obs.Probe.wearmap (Store.probe store)) "ckpt.cow"
        @@ fun () ->
        let dst =
          match cp.b1 with
          | Some p -> p
          | None ->
            let p = Store.alloc_page store in
            cp.b1 <- Some p;
            p
        in
        (* Order matters for crash consistency: content first, version
           second. A crash between the two leaves a stale version, which
           the restore rule reads as "backup invalid, use runtime" — and
           the runtime still holds the pre-image at that point. *)
        Store.copy_page store ~src:runtime ~dst;
        Store.seal_page store dst;
        cp.b1_ver <- global;
        true
      end

let stale_slot cp =
  (* For a CPP (both backups on NVM) pick the older slot to overwrite. *)
  if cp.b1_ver <= cp.b2_ver then `B1 else `B2

let stop_and_copy_dram store t ~runtime ~pno ~new_ver =
  assert (Paddr.is_dram runtime);
  match Radix.get t.table pno with
  | None -> invalid_arg "Ckpt_page.stop_and_copy_dram: page has no record"
  | Some cp ->
    assert (cp.b1 <> None && cp.b2 <> None);
    (match stale_slot cp with
    | `B1 ->
      (match cp.b1 with
      | Some dst ->
        Store.copy_page store ~src:runtime ~dst;
        Store.seal_page store dst;
        cp.b1_ver <- new_ver
      | None -> assert false)
    | `B2 ->
      (match cp.b2 with
      | Some dst ->
        Store.copy_page store ~src:runtime ~dst;
        Store.seal_page store dst;
        cp.b2_ver <- new_ver
      | None -> assert false))

(* Note: [attach_runtime_as_backup] takes no Store; the caller seals the
   donated page (checkpoint.ml does, right after calling this). *)
let attach_runtime_as_backup t ~pno ~old_runtime ~new_ver =
  match Radix.get t.table pno with
  | None -> invalid_arg "Ckpt_page.attach_runtime_as_backup: page has no record"
  | Some cp ->
    assert (Paddr.is_nvm old_runtime);
    assert (cp.b2 = None);
    cp.b2 <- Some old_runtime;
    cp.b2_ver <- new_ver

let demotion_target store t ~pno ~latest =
  match Radix.get t.table pno with
  | None -> invalid_arg "Ckpt_page.demotion_target: page has no record"
  | Some cp -> (
    match cp.b2 with
    | None -> invalid_arg "Ckpt_page.demotion_target: not in CPP state"
    | Some b2_page ->
      (* Make sure the page becoming the runtime holds the latest data:
         copy from the DRAM runtime if b2 is not the newest backup. *)
      if cp.b2_ver < cp.b1_ver then Store.copy_page store ~src:latest ~dst:b2_page;
      b2_page)

let detach_runtime_slot store t ~pno =
  match Radix.get t.table pno with
  | None -> invalid_arg "Ckpt_page.detach_runtime_slot: page has no record"
  | Some cp -> (
    match cp.b2 with
    | None -> invalid_arg "Ckpt_page.detach_runtime_slot: not in CPP state"
    | Some b2_page ->
      cp.b2 <- None;
      cp.b2_ver <- 0;
      (* the page returns to the runtime role and will be modified *)
      Store.unseal_page store b2_page)

let valid_slots cp ~global =
  let s1 = match cp.b1 with Some p when cp.b1_ver <= global && cp.b1_ver > 0 -> Some (cp.b1_ver, p) | _ -> None in
  let s2 = match cp.b2 with Some p when cp.b2_ver <= global && cp.b2_ver > 0 -> Some (cp.b2_ver, p) | _ -> None in
  (s1, s2)

let restore_choice cp ~global ~runtime =
  if cp.born_ver > global then `Drop
  else if cp.b1_ver = global && cp.b1 <> None then `Use (Option.get cp.b1)
  else if cp.b2_ver = global && cp.b2 <> None then `Use (Option.get cp.b2)
  else if cp.b2 = None then begin
    (* CP case: the runtime page doubles as the consistent copy. It must
       be persistent — on NVM, or swapped out to the SSD (DRAM runtimes
       always keep two NVM backups). *)
    match runtime with
    | Some p when Paddr.persistent p -> `Use p
    | Some _ | None -> (
      (* DRAM runtime lost mid-migration, or no runtime: fall back to the
         newest committed backup. *)
      match valid_slots cp ~global with
      | Some (_, p), None | None, Some (_, p) -> `Use p
      | Some (v1, p1), Some (v2, p2) -> `Use (if v1 >= v2 then p1 else p2)
      | None, None -> `Drop)
  end
  else
    match valid_slots cp ~global with
    | Some (v1, p1), Some (v2, p2) -> `Use (if v1 >= v2 then p1 else p2)
    | Some (_, p), None | None, Some (_, p) -> `Use p
    | None, None -> (
      match runtime with Some p when Paddr.persistent p -> `Use p | Some _ | None -> `Drop)

(* The lower of [best] and [frame] as a spare besides [keep]: an NVM
   frame other than [keep], returned as the option it came in. *)
let lower_spare ~keep best frame =
  match frame with
  | Some p when Paddr.is_nvm p && not (Paddr.equal p keep) -> (
    match best with Some b when Paddr.compare b p <= 0 -> best | Some _ | None -> frame)
  | Some _ | None -> best

let normalize_after_restore store cp ~keep ~runtime =
  (* Of the frames the record holds besides [keep], keep ONE NVM frame
     (the lowest) as the (invalid) backup buffer so the first post-restore
     CoW fault skips an allocation.  The others, and a superseded SSD
     runtime slot, are named by nothing once this returns: restore's
     allocator reconciliation frees them.  [runtime] may alias a slot. *)
  cp.b1 <- lower_spare ~keep (lower_spare ~keep (lower_spare ~keep None cp.b1) cp.b2) runtime;
  cp.b1_ver <- 0;
  cp.b2 <- None;
  cp.b2_ver <- 0;
  (* [keep] becomes the runtime page again *)
  Store.unseal_page store keep

let remove t ~pno = Radix.remove t.table pno

let backup_frames t =
  Radix.fold
    (fun _ cp acc ->
      acc + (match cp.b1 with Some _ -> 1 | None -> 0) + (match cp.b2 with Some _ -> 1 | None -> 0))
    t.table 0

let free_all store t ~runtime_of =
  Radix.iter
    (fun pno cp ->
      (match cp.b1 with Some p when Paddr.is_nvm p -> Store.free_page store p | Some _ | None -> ());
      (match cp.b2 with Some p when Paddr.is_nvm p -> Store.free_page store p | Some _ | None -> ());
      match runtime_of pno with
      | Some p when Paddr.is_ssd p -> Store.free_ssd_page store p
      | Some p
        when Paddr.is_nvm p
             && (not (cp.b1 = Some p))
             && not (cp.b2 = Some p) ->
        Store.free_page store p
      | Some _ | None -> ())
    t.table
