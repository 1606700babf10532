type t = { ids : Id_gen.t; mutable buf : int array; mutable len : int; mutable overflowed : bool }

let create ids = { ids; buf = Array.make 64 0; len = 0; overflowed = false }

let record t id =
  if not (t.overflowed || (t.len > 0 && t.buf.(t.len - 1) = id)) then
    if t.len >= Id_gen.current t.ids then begin
      t.len <- 0;
      t.overflowed <- true
    end
    else begin
      if t.len = Array.length t.buf then begin
        let bigger = Array.make (2 * t.len) 0 in
        Array.blit t.buf 0 bigger 0 t.len;
        t.buf <- bigger
      end;
      t.buf.(t.len) <- id;
      t.len <- t.len + 1
    end

let overflowed t = t.overflowed
let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Dirty_log.get";
  t.buf.(i)

let clear t =
  t.len <- 0;
  t.overflowed <- false
