type status = Idle | In_progress

(* NVM-resident: survives crash (no explicit wipe). *)
type t = { mutable version : int; mutable status : status }

let create () = { version = 0; status = Idle }
let version t = t.version
let status t = t.status
(* Each mutation models an 8-byte NVM word write (status or version). *)
let wear_word () = Treesls_obs.Probe.wear_note ~subsystem:"nvm.meta" ~bytes:8

let begin_checkpoint t =
  t.status <- In_progress;
  wear_word ()

let commit_checkpoint t =
  t.version <- t.version + 1;
  t.status <- Idle;
  wear_word ();
  wear_word ()

let abort_in_flight t =
  t.status <- Idle;
  wear_word ()
