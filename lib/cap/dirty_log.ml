type t = {
  mutable marks : Bytes.t;  (* one byte per id: set while the log holds it *)
  mutable ids : int array;  (* the held ids, in recording order *)
  mutable len : int;
  mutable shape_changed : bool;
}

let create () =
  { marks = Bytes.make 64 '\000'; ids = Array.make 64 0; len = 0; shape_changed = false }

let mem t id = id >= 0 && id < Bytes.length t.marks && Bytes.get t.marks id <> '\000'

let record t id =
  if not (mem t id) then begin
    let n = Bytes.length t.marks in
    if id >= n then begin
      let bigger = Bytes.make (max (id + 1) (2 * n)) '\000' in
      Bytes.blit t.marks 0 bigger 0 n;
      t.marks <- bigger
    end;
    Bytes.set t.marks id '\001';
    if t.len = Array.length t.ids then begin
      let bigger = Array.make (2 * t.len) 0 in
      Array.blit t.ids 0 bigger 0 t.len;
      t.ids <- bigger
    end;
    t.ids.(t.len) <- id;
    t.len <- t.len + 1
  end

let note_shape_change t = t.shape_changed <- true
let shape_changed t = t.shape_changed
let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Dirty_log.get";
  t.ids.(i)

let clear t =
  for i = 0 to t.len - 1 do
    Bytes.set t.marks t.ids.(i) '\000'
  done;
  t.len <- 0;
  t.shape_changed <- false
