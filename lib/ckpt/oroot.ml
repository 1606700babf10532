type t = {
  obj_id : int;
  kind : Treesls_cap.Kobj.kind;
  mutable first_ver : int;
  mutable runtime : Treesls_cap.Kobj.t option;
  mutable slot_a : (int * Snapshot.t) option;
  mutable slot_b : (int * Snapshot.t) option;
  pages : Ckpt_page.t option;
}

let create ~obj_id ~kind ~version ~has_pages =
  {
    obj_id;
    kind;
    first_ver = version;
    runtime = None;
    slot_a = None;
    slot_b = None;
    pages = (if has_pages then Some (Ckpt_page.create ()) else None);
  }

let slot_ver = function Some (v, _) -> v | None -> -1

let save t ~version snap =
  if slot_ver t.slot_a <= slot_ver t.slot_b then t.slot_a <- Some (version, snap)
  else t.slot_b <- Some (version, snap)

let at t ~version =
  match (t.slot_a, t.slot_b) with
  | Some (v, s), _ when v = version -> Some s
  | _, Some (v, s) when v = version -> Some s
  | _, _ -> None

(* The slot itself, not a copy: a restore reads every ORoot three times. *)
let latest_le t ~version =
  match (t.slot_a, t.slot_b) with
  | (Some (va, _) as a), (Some (vb, _) as b) when va <= version && vb <= version ->
    if vb > va then b else a
  | (Some (va, _) as a), _ when va <= version -> a
  | _, (Some (vb, _) as b) when vb <= version -> b
  | _, _ -> None

let runtime_page t pno =
  match t.runtime with
  | Some (Treesls_cap.Kobj.Pmo p) -> Treesls_cap.Radix.get p.Treesls_cap.Kobj.pmo_radix pno
  | Some _ | None -> None

let pages_exn t =
  match t.pages with
  | Some p -> p
  | None -> invalid_arg "Oroot.pages_exn: not a page-bearing object"
