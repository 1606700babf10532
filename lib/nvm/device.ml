type kind = Paddr.device

(* Pages live in fixed-size chunks, each allocated on the first touch of
   one of its pages: an untouched chunk is the shared empty array and an
   untouched page the empty byte string, so a fresh device costs one
   pointer per chunk whatever its capacity. *)
let chunk_bits = 8
let chunk_pages = 1 lsl chunk_bits

type t = {
  kind : kind;
  page_size : int;
  pages : int;
  chunks : Bytes.t array array;
  mutable touched : int;
  wearmap : Treesls_obs.Wearmap.t;
}

let create ~wearmap ~kind ~pages ~page_size =
  assert (pages > 0 && page_size > 0);
  {
    kind;
    page_size;
    pages;
    chunks = Array.make ((pages + chunk_pages - 1) lsr chunk_bits) [||];
    touched = 0;
    wearmap;
  }

let kind t = t.kind
let pages t = t.pages
let page_size t = t.page_size

(* An explicit bound check: the last chunk may have slots past [pages]. *)
let check t idx =
  if idx < 0 || idx >= t.pages then invalid_arg "Device: page index out of bounds"

let page t idx =
  check t idx;
  let k = idx lsr chunk_bits in
  let c = t.chunks.(k) in
  let c =
    if Array.length c > 0 then c
    else begin
      let c = Array.make chunk_pages Bytes.empty in
      t.chunks.(k) <- c;
      c
    end
  in
  let i = idx land (chunk_pages - 1) in
  let b = c.(i) in
  if Bytes.length b > 0 then b
  else begin
    let b = Bytes.make t.page_size '\000' in
    c.(i) <- b;
    t.touched <- t.touched + 1;
    b
  end

let read_into t idx ~off ~len dst ~dst_off =
  assert (off >= 0 && len >= 0 && off + len <= t.page_size);
  Bytes.blit (page t idx) off dst dst_off len

(* Little-endian words of 4 or 8 bytes, read and written in place; a
   4-byte read is sign-extended, as [Int32.to_int] does. *)
let word_check t ~off ~len =
  if len <> 4 && len <> 8 then invalid_arg "Device: a word is 4 or 8 bytes";
  assert (off >= 0 && off + len <= t.page_size)

let read_word t idx ~off ~len =
  word_check t ~off ~len;
  let b = page t idx in
  if len = 8 then Int64.to_int (Bytes.get_int64_le b off) else Int32.to_int (Bytes.get_int32_le b off)

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

let write_word t idx ~off ~len v =
  word_check t ~off ~len;
  let b = page t idx in
  if len = 8 then Bytes.set_int64_le b off (Int64.of_int v)
  else Bytes.set_int32_le b off (Int32.of_int v);
  wear t idx ~bytes:len

let copy_page ~src ~src_idx ~dst ~dst_idx =
  assert (src.page_size = dst.page_size);
  let s = page src src_idx in
  let d = page dst dst_idx in
  Bytes.blit s 0 d 0 src.page_size;
  wear dst dst_idx ~bytes:dst.page_size

let zero_page t idx =
  check t idx;
  let c = t.chunks.(idx lsr chunk_bits) in
  let b = if Array.length c > 0 then c.(idx land (chunk_pages - 1)) else Bytes.empty in
  (* lazily-materialised pages are already zero: no write *)
  if Bytes.length b > 0 then begin
    Bytes.fill b 0 t.page_size '\000';
    wear t idx ~bytes:t.page_size
  end

let crash t =
  match t.kind with
  | Paddr.Nvm | Paddr.Ssd -> ()
  | Paddr.Dram ->
    Array.fill t.chunks 0 (Array.length t.chunks) [||];
    t.touched <- 0

let touched t = t.touched
