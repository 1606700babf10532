(* Offends with Int_tbl.create, the shared int-keyed table. *)
module Int_tbl = Treesls_util.Int_tbl

let pages : int Int_tbl.t = Int_tbl.create 1024
