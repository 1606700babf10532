include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = k
end)
