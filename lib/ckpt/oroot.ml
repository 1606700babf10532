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

let latest_le t ~version =
  let pick = function Some (v, s) when v <= version -> Some (v, s) | _ -> None in
  match (pick t.slot_a, pick t.slot_b) with
  | (Some (va, _) as a), Some (vb, sb) -> if vb > va then Some (vb, sb) else a
  | (Some _ as a), None -> a
  | None, (Some _ as b) -> b
  | None, None -> None

let runtime_page t pno =
  match t.runtime with
  | Some (Treesls_cap.Kobj.Pmo p) -> Treesls_cap.Radix.get p.Treesls_cap.Kobj.pmo_radix pno
  | Some _ | None -> None

let pages_exn t =
  match t.pages with
  | Some p -> p
  | None -> invalid_arg "Oroot.pages_exn: not a page-bearing object"
