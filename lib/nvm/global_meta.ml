type status = Idle | In_progress

(* NVM-resident: survives crash (no explicit wipe). *)
type t = { mutable version : int; mutable status : status; wearmap : Treesls_obs.Wearmap.t }

let create ~wearmap = { version = 0; status = Idle; wearmap }
let version t = t.version
let status t = t.status
(* Each mutation models an 8-byte NVM word write (status or version). *)
let wear_word t = Treesls_obs.Wearmap.note t.wearmap ~subsystem:"nvm.meta" ~bytes:8

let begin_checkpoint t =
  t.status <- In_progress;
  wear_word t

let commit_checkpoint t =
  t.version <- t.version + 1;
  t.status <- Idle;
  wear_word t;
  wear_word t

let abort_in_flight t =
  t.status <- Idle;
  wear_word t
