module Kernel = Treesls_kernel.Kernel
module Kobj = Treesls_cap.Kobj
module Radix = Treesls_cap.Radix
module Store = Treesls_nvm.Store
module Global_meta = Treesls_nvm.Global_meta
module Clock = Treesls_sim.Clock

type t = { st : State.t }

let install_hooks st =
  let kernel = st.State.kernel in
  let store = Kernel.store kernel in
  Kernel.set_cow_hook kernel
    (Some
       (fun pmo pno ->
         (* Step 6 of Figure 5: duplicate the page into its backup before
            the write proceeds, then track hotness for hybrid copy.  While
            a drain window is pending the fault belongs to the window —
            [Checkpoint.resolve_cow_fault] must arbitrate between the
            staged and the committed version, so the eager protocol below
            only runs when it declines. *)
         let level = st.State.features.State.level in
         (if level >= State.Cow then
            if not (Checkpoint.resolve_cow_fault st pmo pno) then
              match State.find_oroot st pmo.Kobj.pmo_id with
              | Some oroot -> (
                match (oroot.Oroot.pages, Radix.get pmo.Kobj.pmo_radix pno) with
                | Some pages, Some runtime ->
                  let global = Global_meta.version (Store.meta store) in
                  (match Ckpt_page.find pages pno with
                  | Some cp when cp.Ckpt_page.born_ver > global -> ()
                  | Some _ -> ignore (Ckpt_page.cow_backup store pages ~runtime ~pno ~global)
                  | None -> ())
                | (Some _ | None), _ -> ())
              | None -> ());
         if level = State.Hybrid then Active_list.record_fault st.State.active pmo pno));
  Kernel.set_fresh_hook kernel (Some (fun pmo pno -> State.note_fresh_page st pmo pno))

let attach ?(active_cfg = Active_list.default_config) ?features kernel =
  let features = match features with Some f -> f | None -> State.default_features () in
  let st = State.create kernel active_cfg features in
  install_hooks st;
  { st }

let state t = t.st
let kernel t = t.st.State.kernel

let features t = t.st.State.features

let version t = Global_meta.version (Store.meta (Kernel.store (kernel t)))

let checkpoint t = Checkpoint.run t.st

let set_interval t ns =
  t.st.State.interval_ns <- ns;
  match ns with
  | Some n -> t.st.State.next_ckpt_at <- Clock.now (Kernel.clock (kernel t)) + n
  | None -> ()

let interval t = t.st.State.interval_ns

let tick t =
  match t.st.State.interval_ns with
  | None -> None
  | Some _ ->
    if
      t.st.State.features.State.level <> State.Off
      && Clock.now (Kernel.clock (kernel t)) >= t.st.State.next_ckpt_at
    then begin
      let r = Checkpoint.run t.st in
      (* re-read: the adaptive controller may retune the interval from
         the post-commit sample hook, and the next deadline must use the
         retuned value *)
      (match t.st.State.interval_ns with
      | Some n -> t.st.State.next_ckpt_at <- Clock.now (Kernel.clock (kernel t)) + n
      | None -> ());
      Some r
    end
    else None

(* [None] exactly when [tick] cannot fire: a deadline that never fires
   would never re-arm, and a driver waiting on it would spin *)
let next_deadline t =
  match t.st.State.interval_ns with
  | Some _ when t.st.State.features.State.level <> State.Off -> Some t.st.State.next_ckpt_at
  | Some _ | None -> None

(* --- asynchronous drain ----------------------------------------------- *)

let drain_step t = Checkpoint.drain_step t.st
let drain_settle t = Checkpoint.settle t.st
let drain_backlog t = Drain.backlog t.st.State.drain
let drain_pending_version t = Drain.pending_version t.st.State.drain
let set_drain_policy _ Drain.Lazy = ()
let set_drain_batch t n = t.st.State.drain_batch <- max 1 n

let on_checkpoint t cb = t.st.State.ckpt_callbacks <- t.st.State.ckpt_callbacks @ [ cb ]

let crash t =
  (* The trace ring and metrics registry live in eternal-PMO state: a
     power failure ends open spans (recorded as aborted) and stamps a
     crash marker, but the events recorded so far survive the failure. *)
  let probe = State.probe t.st in
  Treesls_obs.Probe.crash_mark probe;
  Treesls_obs.Probe.count probe "crashes" 1;
  State.note_crash t.st;
  Kernel.crash (kernel t)

let recover t =
  let report =
    (* journal replay and page normalisation during restore are recovery
       wear, not app wear *)
    Treesls_obs.Wearmap.with_writer (Treesls_obs.Probe.wearmap (State.probe t.st)) "restore"
      (fun () -> Restore.run t.st)
  in
  install_hooks t.st;
  (match t.st.State.interval_ns with
  | Some n -> t.st.State.next_ckpt_at <- Clock.now (Kernel.clock (kernel t)) + n
  | None -> ());
  report

(* --- read-only walkers (state auditor) -------------------------------- *)

let iter_oroots t f = State.iter_oroots t.st f
let find_oroot t oid = State.find_oroot t.st oid

let checkpoint_bytes t = State.checkpoint_bytes t.st
let last_report t = t.st.State.last_report

(* the kinds some object was costed for, sorted by kind name *)
let obj_costs t =
  List.filter_map
    (fun kind ->
      let c = State.obj_cost t.st kind in
      if c.State.full.State.n + c.State.incr.State.n + c.State.restore.State.n = 0 then None
      else Some (kind, c))
    Kobj.all_kinds
  |> List.sort (fun (a, _) (b, _) -> compare (Kobj.kind_name a) (Kobj.kind_name b))
