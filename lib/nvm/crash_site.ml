(* One table per store: each system owns its crash-injection state, so
   arming a site on one system never fires inside another. *)

type mode = Off | Record | Armed of { site : string; nth : int }

type t = { mutable mode : mode; hits : (string, int) Hashtbl.t }

let create () = { mode = Off; hits = Hashtbl.create 32 }

let reset t =
  t.mode <- Off;
  Hashtbl.reset t.hits

let record t =
  reset t;
  t.mode <- Record

let arm t ~site ~nth =
  if nth < 1 then invalid_arg "Crash_site.arm: nth must be >= 1";
  Hashtbl.reset t.hits;
  t.mode <- Armed { site; nth }

let bump t name =
  let c = (match Hashtbl.find_opt t.hits name with Some c -> c | None -> 0) + 1 in
  Hashtbl.replace t.hits name c;
  c

let hit t name =
  match t.mode with
  | Off -> ()
  | Record -> ignore (bump t name)
  | Armed { site; nth } ->
    if String.equal site name && bump t name = nth then begin
      t.mode <- Off;
      raise (Warea.Crashed ("site:" ^ name))
    end

let counts t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.hits []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
