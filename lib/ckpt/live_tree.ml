module Kobj = Treesls_cap.Kobj
module Kernel = Treesls_kernel.Kernel

(* An edge holder as the cache last saw it.  Cap-group slots change only
   through [Kobj.install]/[install_at]/[revoke], which bump the group's
   generation and nothing else does; region lists and IPC references are
   replaced, never edited in place, so physical identity tells whether
   they changed. *)
type edges =
  | Slots of Kobj.cap_group * int
  | Regions of Kobj.vmspace * Kobj.vm_region list
  | Conn of Kobj.ipc_conn * Kobj.thread option * Kobj.pmo option

type entry = { obj : Kobj.t; mutable oroot : Oroot.t option }

type t = {
  root : Kobj.cap_group;
  entries : entry array;
  live : (int, unit) Hashtbl.t;
  edges : edges array;
  mutable owners : (int, string) Hashtbl.t option;  (* object id -> process name *)
  regions : (int, Region_index.t) Hashtbl.t;
}

let unchanged = function
  | Slots (g, gen) -> g.Kobj.cg_gen = gen
  | Regions (vs, l) -> vs.Kobj.vs_regions == l
  | Conn (c, server, shared) -> c.Kobj.ic_server == server && c.Kobj.ic_shared == shared

let valid t ~root = t.root == root && Array.for_all unchanged t.edges

let build ~root ~oroots =
  let entries = ref [] and edges = ref [] in
  let live = Hashtbl.create 1024 in
  Kobj.iter_tree ~root (fun obj ->
      let oid = Kobj.id obj in
      Hashtbl.replace live oid ();
      entries := { obj; oroot = Hashtbl.find_opt oroots oid } :: !entries;
      match obj with
      | Kobj.Cap_group g -> edges := Slots (g, g.Kobj.cg_gen) :: !edges
      | Kobj.Vmspace vs -> edges := Regions (vs, vs.Kobj.vs_regions) :: !edges
      | Kobj.Ipc_conn c -> edges := Conn (c, c.Kobj.ic_server, c.Kobj.ic_shared) :: !edges
      | Kobj.Thread _ | Kobj.Pmo _ | Kobj.Notification _ | Kobj.Irq_notification _ -> ());
  {
    root;
    entries = Array.of_list (List.rev !entries);
    live;
    edges = Array.of_list !edges;
    owners = None;
    regions = Hashtbl.create 16;
  }

let refresh cached ~root ~oroots =
  match cached with
  | Some t when valid t ~root -> t
  | Some _ | None -> build ~root ~oroots

let entries t = t.entries
let live t = t.live

(* First process wins for objects shared across cap groups (e.g. IPC
   connections installed in both ends); objects reachable only from the
   root stay "kernel".  Built on first use for this tree shape: a process
   is created or exits only by installing or revoking its cap group in the
   root, which retires the cache. *)
let owner t kernel oid =
  let owners =
    match t.owners with
    | Some o -> o
    | None ->
      let o = Hashtbl.create (Array.length t.entries) in
      List.iter
        (fun (p : Kernel.process) ->
          Kobj.iter_tree ~root:p.Kernel.cg (fun obj ->
              let oid = Kobj.id obj in
              if not (Hashtbl.mem o oid) then Hashtbl.add o oid p.Kernel.pname))
        (Kernel.processes kernel);
      t.owners <- Some o;
      o
  in
  Option.value ~default:"kernel" (Hashtbl.find_opt owners oid)

(* A region list change is an edge change, which retires this whole cache,
   so an index built for this tree never goes stale. *)
let region_index t vms =
  match Hashtbl.find_opt t.regions vms.Kobj.vs_id with
  | Some idx -> idx
  | None ->
    let idx = Region_index.build vms in
    Hashtbl.replace t.regions vms.Kobj.vs_id idx;
    idx

(* Compared by id: [iter_tree] wraps PMOs and threads reached through
   regions and IPC connections in fresh [Kobj.t] values at every call. *)
let check t ~root =
  if not (valid t ~root) then None
  else begin
    let n = Array.length t.entries in
    let reached = ref 0 and first_diff = ref None in
    Kobj.iter_tree ~root (fun obj ->
        let i = !reached in
        if !first_diff = None && (i >= n || Kobj.id t.entries.(i).obj <> Kobj.id obj) then
          first_diff := Some i;
        incr reached);
    match !first_diff with
    | None when !reached = n -> None
    | d ->
      Some
        (Printf.sprintf "%d objects cached, %d reachable; first difference at visit %d" n
           !reached
           (Option.value d ~default:!reached))
  end
