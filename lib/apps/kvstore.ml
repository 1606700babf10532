module Kernel = Treesls_kernel.Kernel
module Cost = Treesls_sim.Cost

exception Full

type t = {
  kernel : Kernel.t;
  proc : Kernel.process;
  base : int; (* vaddr of page 0 *)
  limit : int; (* first vaddr beyond the region *)
  buckets : int;
}

let psz k = (Kernel.cost k).Cost.page_size

let read_u64 t va = Kernel.read_word t.kernel t.proc ~vaddr:va ~len:8
let write_u64 t va v = Kernel.write_word t.kernel t.proc ~vaddr:va ~len:8 v
let read_u32 t va = Kernel.read_word t.kernel t.proc ~vaddr:va ~len:4
let write_u32 t va v = Kernel.write_word t.kernel t.proc ~vaddr:va ~len:4 v

(* header offsets *)
let off_buckets = 0
let off_count = 8
let off_cursor = 16

let bucket_va t i = t.base + psz t.kernel + (i * 8)

let entries_start t =
  let bucket_bytes = t.buckets * 8 in
  let p = psz t.kernel in
  t.base + p + ((bucket_bytes + p - 1) / p * p)

let format t =
  write_u64 t (t.base + off_buckets) t.buckets;
  write_u64 t (t.base + off_count) 0;
  write_u64 t (t.base + off_cursor) (entries_start t);
  t

let create kernel proc ~buckets ~pages =
  assert (buckets > 0 && pages > 2);
  let vpn = Kernel.grow_heap kernel proc ~pages in
  let base = vpn * psz kernel in
  (* bucket array of a fresh region is zero-initialised by the device *)
  format { kernel; proc; base; limit = base + (pages * psz kernel); buckets }

let create_at kernel proc ~vpn ~pages ~buckets =
  let base = vpn * psz kernel in
  let t = { kernel; proc; base; limit = base + (pages * psz kernel); buckets } in
  (* zero the bucket array explicitly: the region is being reused *)
  let p = psz kernel in
  let bucket_pages = ((buckets * 8) + p - 1) / p in
  let zero = Bytes.make p '\000' in
  for i = 1 to bucket_pages do
    Kernel.write_bytes kernel proc ~vaddr:(base + (i * p)) zero
  done;
  format t

let attach kernel proc ~vpn =
  let base = vpn * psz kernel in
  let probe = { kernel; proc; base; limit = max_int; buckets = 1 } in
  let buckets = read_u64 probe (base + off_buckets) in
  if buckets <= 0 then invalid_arg "Kvstore.attach: no store at this address";
  let region =
    List.find_opt
      (fun r -> r.Treesls_cap.Kobj.vr_vpn = vpn)
      proc.Kernel.vms.Treesls_cap.Kobj.vs_regions
  in
  let pages =
    match region with
    | Some r -> r.Treesls_cap.Kobj.vr_pages
    | None -> invalid_arg "Kvstore.attach: no region at this vpn"
  in
  { kernel; proc; base; limit = base + (pages * psz kernel); buckets }

let base_vpn t = t.base / psz t.kernel

let fnv_hash key =
  let h = ref 0x3bf29ce484222325 in
  String.iter (fun ch -> h := (!h lxor Char.code ch) * 0x100000001b3 land max_int) key;
  !h

(* entry layout: next(8) klen(4) vcap(4) vlen(4) pad(4) key value *)
let e_next = 0
let e_klen = 8
let e_vcap = 12
let e_vlen = 16
let e_key = 24

let entry_key t va klen =
  Bytes.unsafe_to_string (Kernel.read_bytes t.kernel t.proc ~vaddr:(va + e_key) ~len:klen)

let find_entry t ~key =
  let h = fnv_hash key mod t.buckets in
  let bva = bucket_va t h in
  let rec walk prev va =
    if va = 0 then None
    else begin
      let klen = read_u32 t (va + e_klen) in
      if klen = String.length key && entry_key t va klen = key then Some (prev, va)
      else walk va (read_u64 t (va + e_next))
    end
  in
  (h, walk 0 (read_u64 t bva))

let round16 v = (v + 15) / 16 * 16

(* The value is [len] bytes of [buf] from [off], written to the region
   straight from the caller's buffer. *)
let put_sub t ~key buf ~off ~len:vlen =
  let klen = String.length key in
  let h, found = find_entry t ~key in
  match found with
  | Some (_, va) when read_u32 t (va + e_vcap) >= vlen ->
    let vaddr = va + e_key + read_u32 t (va + e_klen) in
    Kernel.write_sub t.kernel t.proc ~vaddr buf ~off ~len:vlen;
    write_u32 t (va + e_vlen) vlen
  | (Some _ | None) as found ->
    (* the value outgrew its entry (or the key is new): unlink any stale
       entry first, then prepend a fresh one — leaving the old entry in
       the chain would resurrect it if the new head is later deleted *)
    let link =
      match found with
      | Some (prev, va) ->
        let next = read_u64 t (va + e_next) in
        let link = if prev = 0 then bucket_va t h else prev + e_next in
        write_u64 t link next;
        Some (link, va)
      | None -> None
    in
    let size = round16 (e_key + klen + vlen) in
    let cur = read_u64 t (t.base + off_cursor) in
    if cur + size > t.limit then begin
      (* no room: link the old entry back, so the key keeps its value *)
      Option.iter (fun (link, va) -> write_u64 t link va) link;
      raise Full
    end;
    write_u64 t (t.base + off_cursor) (cur + size);
    let head = read_u64 t (bucket_va t h) in
    write_u64 t (cur + e_next) head;
    write_u32 t (cur + e_klen) klen;
    write_u32 t (cur + e_vcap) vlen;
    write_u32 t (cur + e_vlen) vlen;
    Kernel.write_bytes t.kernel t.proc ~vaddr:(cur + e_key) (Bytes.unsafe_of_string key);
    Kernel.write_sub t.kernel t.proc ~vaddr:(cur + e_key + klen) buf ~off ~len:vlen;
    write_u64 t (bucket_va t h) cur;
    if Option.is_none found then
      write_u64 t (t.base + off_count) (read_u64 t (t.base + off_count) + 1)

let put t ~key ~value =
  put_sub t ~key (Bytes.unsafe_of_string value) ~off:0 ~len:(String.length value)

let get t ~key =
  match snd (find_entry t ~key) with
  | None -> None
  | Some (_, va) ->
    let klen = read_u32 t (va + e_klen) in
    let vlen = read_u32 t (va + e_vlen) in
    (* the buffer the read filled is the value: nothing else holds it *)
    let value = Kernel.read_bytes t.kernel t.proc ~vaddr:(va + e_key + klen) ~len:vlen in
    Some (Bytes.unsafe_to_string value)

let delete t ~key =
  let h, found = find_entry t ~key in
  match found with
  | None -> false
  | Some (prev, va) ->
    let next = read_u64 t (va + e_next) in
    (if prev = 0 then write_u64 t (bucket_va t h) next else write_u64 t (prev + e_next) next);
    write_u64 t (t.base + off_count) (read_u64 t (t.base + off_count) - 1);
    true

let mem t ~key = snd (find_entry t ~key) <> None
let count t = read_u64 t (t.base + off_count)
let bytes_used t = read_u64 t (t.base + off_cursor) - t.base
