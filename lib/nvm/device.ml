type kind = Paddr.device

type t = {
  kind : kind;
  page_size : int;
  store : Bytes.t option array;
  mutable touched : int;
  wearmap : Treesls_obs.Wearmap.t;
}

let create ~wearmap ~kind ~pages ~page_size =
  assert (pages > 0 && page_size > 0);
  { kind; page_size; store = Array.make pages None; touched = 0; wearmap }

let kind t = t.kind
let pages t = Array.length t.store
let page_size t = t.page_size

let page t idx =
  match t.store.(idx) with
  | Some b -> b
  | None ->
    let b = Bytes.make t.page_size '\000' in
    t.store.(idx) <- Some b;
    t.touched <- t.touched + 1;
    b

let read_into t idx ~off ~len dst ~dst_off =
  assert (off >= 0 && len >= 0 && off + len <= t.page_size);
  Bytes.blit (page t idx) off dst dst_off len

let read t idx ~off ~len =
  let dst = Bytes.create len in
  read_into t idx ~off ~len dst ~dst_off:0;
  dst

(* Every physical byte landing on an NVM page feeds the device's wearmap,
   attributed to its current writer context — this is the single choke
   point that makes write-amplification and wear measurable (DRAM/SSD
   writes cost no endurance and are not counted). *)
let wear t idx ~bytes =
  match t.kind with
  | Paddr.Nvm -> Treesls_obs.Wearmap.record t.wearmap ~page:idx ~bytes
  | Paddr.Dram | Paddr.Ssd -> ()

let write_from t idx ~off src ~src_off ~len =
  assert (off >= 0 && len >= 0 && off + len <= t.page_size);
  Bytes.blit src src_off (page t idx) off len;
  wear t idx ~bytes:len

let write t idx ~off src = write_from t idx ~off src ~src_off:0 ~len:(Bytes.length src)

let copy_page ~src ~src_idx ~dst ~dst_idx =
  assert (src.page_size = dst.page_size);
  let s = page src src_idx in
  let d = page dst dst_idx in
  Bytes.blit s 0 d 0 src.page_size;
  wear dst dst_idx ~bytes:dst.page_size

let zero_page t idx =
  match t.store.(idx) with
  | None -> () (* lazily-materialised pages are already zero: no write *)
  | Some b ->
    Bytes.fill b 0 t.page_size '\000';
    wear t idx ~bytes:t.page_size

let crash t =
  match t.kind with
  | Paddr.Nvm | Paddr.Ssd -> ()
  | Paddr.Dram ->
    Array.iteri (fun i slot -> if slot <> None then t.store.(i) <- None) t.store;
    t.touched <- 0

let touched t = t.touched
