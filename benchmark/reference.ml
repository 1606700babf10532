(* A fixed reference loop, independent of the library, timed next to every
   measured chunk.  On a virtual machine that shares its last-level cache
   and memory with other tenants (measured: a 2-vCPU Xeon guest with a
   shared 300 MiB L3), the simulator's speed drifts by tens of percent
   from minute to minute, and the reference loop's speed drifts with it
   (correlation ~0.9 per half-second chunk of serving).  Host-clock
   headline metrics are therefore scaled to the speed at which one loop
   takes [nominal_s]: a change to the library moves them, a slow minute on
   the host much less.

   The loop mixes what the simulator spends host time on: sorting (integer
   compute), 4 KiB page copies over a working set larger than the caches,
   and pointer chasing through a hash table.  It allocates nothing once its
   working set exists, so running it between chunks leaves the garbage
   collector's schedule, and the measured peak heap, unchanged. *)

let nominal_s = 0.05

let pages = lazy (Array.init 8192 (fun i -> Bytes.make 4096 (Char.chr (i land 0xff))))

let table =
  lazy
    (let t = Hashtbl.create 65_536 in
     for i = 0 to 65_535 do
       Hashtbl.replace t i (Bytes.make 32 (Char.chr (i land 0xff)))
     done;
     t)

let keys = lazy (Array.init 100_000 (fun i -> (i * 7919) mod 100_003))
let sorted = lazy (Array.make 100_000 0)

(* Allocate the working set before anything is timed. *)
let warm () = ignore (Lazy.force pages, Lazy.force table, Lazy.force keys, Lazy.force sorted)

let loop () =
  let pages = Lazy.force pages and table = Lazy.force table in
  let keys = Lazy.force keys and a = Lazy.force sorted in
  Array.blit keys 0 a 0 (Array.length a);
  Array.sort Int.compare a;
  let x = ref 12345 in
  for _ = 1 to 1_500 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let src = !x land 8191 in
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    Bytes.blit pages.(src) 0 pages.(!x land 8191) 0 4096
  done;
  for _ = 1 to 30_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let src = Hashtbl.find table (!x land 65_535) in
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    Bytes.blit src 0 (Hashtbl.find table (!x land 65_535)) 0 32
  done

(* Host seconds of one reference loop, right now. *)
let time () =
  let h0 = Spans.host_now () in
  loop ();
  float_of_int (Spans.host_now () - h0) /. 1e9
