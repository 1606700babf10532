module Cost = Treesls_sim.Cost
module Clock = Treesls_sim.Clock
module Probe = Treesls_obs.Probe
module Wearmap = Treesls_obs.Wearmap

type sink = Clock_sink | Meter of int ref | Off

type t = {
  cost : Cost.t;
  clock : Clock.t;
  nvm : Device.t;
  dram : Device.t;
  ssd : Device.t;
  mutable ssd_free : int list; (* persistent swap-slot allocator (NVM metadata) *)
  warea : Warea.t;
  buddy : Buddy.t;
  slab : Slab.t;
  meta : Global_meta.t;
  mutable dram_free : int list; (* DRAM free list: volatile, rebuilt on recovery *)
  mutable dram_free_count : int;
  mutable sink : sink;
  seals : (Paddr.t, int) Hashtbl.t; (* NVM metadata: backup page checksums *)
  mutable checksums : bool; (* reliability mode (paper section 8), off by default *)
  probe : Probe.t;
  crash_sites : Crash_site.t;
}

let max_slabs_per_class = 512

let create ?(cost = Cost.default) ?(ssd_pages = 4096) ~clock ~nvm_pages ~dram_pages () =
  if not (Treesls_util.Bits.is_power_of_two nvm_pages) then
    invalid_arg "Store.create: nvm_pages must be a power of two";
  (* the probe exists before the allocator format, so this system's own
     boot journal is charged to it *)
  let probe = Probe.create ~clock in
  let wearmap = Probe.wearmap probe in
  let device kind pages = Device.create ~wearmap ~kind ~pages ~page_size:cost.Cost.page_size in
  let nvm = device Paddr.Nvm nvm_pages in
  let dram = device Paddr.Dram dram_pages in
  let ssd = device Paddr.Ssd ssd_pages in
  let buddy_words = Buddy.words_needed ~total_pages:nvm_pages in
  let slab_words = Slab.words_needed ~max_slabs_per_class in
  let warea = Warea.create ~probe ~words:(buddy_words + slab_words) in
  let buddy = Buddy.format warea ~base:0 ~total_pages:nvm_pages in
  let slab =
    Slab.format warea ~base:buddy_words ~buddy ~page_size:cost.Cost.page_size
      ~max_slabs_per_class
  in
  let dram_free = List.init dram_pages (fun i -> i) in
  {
    cost;
    clock;
    nvm;
    dram;
    ssd;
    ssd_free = List.init ssd_pages (fun i -> i);
    warea;
    buddy;
    slab;
    meta = Global_meta.create ~wearmap;
    dram_free;
    dram_free_count = dram_pages;
    sink = Clock_sink;
    seals = Hashtbl.create 256;
    checksums = false;
    probe;
    crash_sites = Crash_site.create ();
  }

let cost t = t.cost
let clock t = t.clock
let meta t = t.meta
let buddy t = t.buddy
let slab t = t.slab
let warea t = t.warea
let probe t = t.probe
let crash_sites t = t.crash_sites

let charge t ns =
  match t.sink with
  | Clock_sink -> Clock.advance t.clock ns
  | Meter r -> r := !r + ns
  | Off -> ()

let with_sink t sink f =
  let saved = t.sink in
  t.sink <- sink;
  Fun.protect ~finally:(fun () -> t.sink <- saved) f

let alloc_page t =
  charge t (t.cost.Cost.alloc_page_ns + t.cost.Cost.journal_entry_ns);
  Probe.count t.probe "nvm.alloc.pages" 1;
  Probe.instant_v t.probe "nvm.alloc" ~args:[ ("kind", "page") ];
  match Buddy.alloc t.buddy ~order:0 with
  | Some idx -> Paddr.nvm idx
  | None -> raise Out_of_memory

let free_page t addr =
  if not (Paddr.is_nvm addr) then invalid_arg "Store.free_page: not an NVM page";
  charge t (t.cost.Cost.alloc_page_ns + t.cost.Cost.journal_entry_ns);
  Probe.count t.probe "nvm.free.pages" 1;
  Hashtbl.remove t.seals addr;
  Buddy.free t.buddy ~offset:addr.Paddr.idx

let alloc_dram_page t =
  match t.dram_free with
  | [] -> None
  | idx :: rest ->
    charge t t.cost.Cost.alloc_page_ns;
    t.dram_free <- rest;
    t.dram_free_count <- t.dram_free_count - 1;
    Device.zero_page t.dram idx;
    Some (Paddr.dram idx)

let free_dram_page t addr =
  if not (Paddr.is_dram addr) then invalid_arg "Store.free_dram_page: not a DRAM page";
  charge t t.cost.Cost.alloc_page_ns;
  t.dram_free <- addr.Paddr.idx :: t.dram_free;
  t.dram_free_count <- t.dram_free_count + 1

let device t (addr : Paddr.t) =
  match addr.Paddr.dev with
  | Paddr.Nvm -> t.nvm
  | Paddr.Dram -> t.dram
  | Paddr.Ssd -> t.ssd

let page_bytes t addr = Device.page (device t addr) addr.Paddr.idx
let zero_page t addr = Device.zero_page (device t addr) addr.Paddr.idx

let copy_page t ~src ~dst =
  let ns =
    Cost.page_copy_ns t.cost ~src_dram:(Paddr.is_dram src) ~dst_dram:(Paddr.is_dram dst)
  in
  charge t ns;
  (* reconcile charged copy time against physical bytes: the wearmap pairs
     this ns with the page-sized write Device.copy_page records below *)
  if Paddr.is_nvm dst then Wearmap.copy_charged (Probe.wearmap t.probe) ~ns;
  Device.copy_page ~src:(device t src) ~src_idx:src.Paddr.idx ~dst:(device t dst)
    ~dst_idx:dst.Paddr.idx

let cachelines len = (len + 63) / 64

let access_ns t addr ~write ~len =
  let lines = cachelines len in
  let per =
    if Paddr.is_dram addr then t.cost.Cost.dram_access_ns
    else if write then t.cost.Cost.nvm_write_ns
    else t.cost.Cost.nvm_read_ns
  in
  lines * per

let read_page t addr ~off ~len =
  charge t (access_ns t addr ~write:false ~len);
  Device.read (device t addr) addr.Paddr.idx ~off ~len

let write_page t addr ~off src =
  charge t (access_ns t addr ~write:true ~len:(Bytes.length src));
  Device.write (device t addr) addr.Paddr.idx ~off src

(* --- SSD swap slots (memory over-commitment, paper section 8) --- *)

let alloc_ssd_page t =
  match t.ssd_free with
  | [] -> None
  | idx :: rest ->
    t.ssd_free <- rest;
    Some (Paddr.ssd idx)

let free_ssd_page t addr =
  if not (Paddr.is_ssd addr) then invalid_arg "Store.free_ssd_page: not an SSD slot";
  Hashtbl.remove t.seals addr;
  t.ssd_free <- addr.Paddr.idx :: t.ssd_free

(* One whole-page SSD transfer: submission latency + streaming. *)
let ssd_page_ns t =
  t.cost.Cost.nvme_flush_base_ns
  + int_of_float (float_of_int t.cost.Cost.page_size *. t.cost.Cost.nvme_byte_ns)

let swap_out t ~src =
  if not (Paddr.is_nvm src) then invalid_arg "Store.swap_out: source must be NVM";
  match alloc_ssd_page t with
  | None -> None
  | Some slot ->
    charge t (ssd_page_ns t);
    Probe.count t.probe "nvm.swap.outs" 1;
    Device.copy_page ~src:t.nvm ~src_idx:src.Paddr.idx ~dst:t.ssd ~dst_idx:slot.Paddr.idx;
    free_page t src;
    Some slot

let swap_in t ~slot =
  if not (Paddr.is_ssd slot) then invalid_arg "Store.swap_in: source must be an SSD slot";
  (* swap-in can fire on a read fault, outside any writer context; its
     NVM landing is swap machinery wear either way *)
  Wearmap.with_writer (Probe.wearmap t.probe) "nvm.swap" @@ fun () ->
  let dst = alloc_page t in
  charge t (ssd_page_ns t);
  Probe.count t.probe "nvm.swap.ins" 1;
  Device.copy_page ~src:t.ssd ~src_idx:slot.Paddr.idx ~dst:t.nvm ~dst_idx:dst.Paddr.idx;
  free_ssd_page t slot;
  dst

let ssd_slots_free t = List.length t.ssd_free

let alloc_obj t ~size =
  charge t (t.cost.Cost.alloc_small_ns + t.cost.Cost.journal_entry_ns);
  Probe.count t.probe "nvm.alloc.objs" 1;
  Probe.instant_v t.probe "nvm.alloc" ~args:[ ("kind", "obj"); ("size", string_of_int size) ];
  match Slab.alloc t.slab ~size with
  | Some h -> h
  | None -> raise Out_of_memory

let free_obj t h =
  charge t (t.cost.Cost.alloc_small_ns + t.cost.Cost.journal_entry_ns);
  Probe.count t.probe "nvm.free.objs" 1;
  Slab.free t.slab h

let crash t =
  Device.crash t.dram;
  Device.crash t.nvm;
  t.dram_free <- [];
  t.dram_free_count <- 0;
  t.sink <- Clock_sink

let recover t =
  let replayed0 = Warea.replayed_words t.warea in
  Warea.recover t.warea;
  let replayed = Warea.replayed_words t.warea - replayed0 in
  (* redo replay pays real time: read the log record plus the in-place
     word write, so the RTO journal_replay phase scales with the words a
     crash left in flight rather than appearing free *)
  if replayed > 0 then
    charge t (int_of_float (float_of_int replayed *. 2.0 *. t.cost.Cost.word_copy_nvm_ns));
  Global_meta.abort_in_flight t.meta;
  let dram_pages = Device.pages t.dram in
  t.dram_free <- List.init dram_pages (fun i -> i);
  t.dram_free_count <- dram_pages

(* FNV-1a over the page content: cheap and adequate to detect the bit
   corruption this models. *)
let digest bytes =
  let h = ref 0x3bf29ce484222325 in
  Bytes.iter (fun ch -> h := (!h lxor Char.code ch) * 0x100000001b3 land max_int) bytes;
  !h

let set_checksums t on = t.checksums <- on

let seal_page t addr =
  if t.checksums then begin
    charge t (cachelines t.cost.Cost.page_size * t.cost.Cost.nvm_read_ns / 8);
    Hashtbl.replace t.seals addr (digest (page_bytes t addr))
  end

let verify_page t addr =
  match Hashtbl.find_opt t.seals addr with
  | None -> true
  | Some d -> digest (page_bytes t addr) = d

let unseal_page t addr = Hashtbl.remove t.seals addr
let is_sealed t addr = Hashtbl.mem t.seals addr

let corrupt_page t addr =
  let b = page_bytes t addr in
  if Bytes.length b > 0 then Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xFF))

let nvm_pages_free t = Buddy.free_pages t.buddy
let nvm_pages_total t = Buddy.total_pages t.buddy
let nvm_pages_touched t = Device.touched t.nvm
let dram_pages_touched t = Device.touched t.dram
let dram_pages_free t = t.dram_free_count
let live_objects t = Slab.live t.slab
let journal_in_flight t = Warea.in_flight t.warea
let allocator_meta_words t = Warea.size t.warea
let sealed_pages t = Hashtbl.length t.seals
