(** Interval index over a VM space's regions: vpn -> (pmo, page index). *)

type t

val build : Treesls_cap.Kobj.vmspace -> t

val resolve : t -> int -> (Treesls_cap.Kobj.pmo * int) option
(** The (pmo, page index) backing a vpn; when regions overlap, the first
    one in region-list order wins. *)
