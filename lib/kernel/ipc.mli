(** Synchronous IPC and notifications.

    Connections carry calls from a client thread to a server thread; the
    call itself is executed inline (the simulator charges the two syscall
    crossings and any declared handler work).  Connection state — the
    served-call counter, the registered server — is part of the capability
    tree and therefore checkpointed; the OCaml handler closure is volatile
    and must be re-registered by the service after a restore, mirroring how
    a real driver re-establishes its runtime state in its restore
    callback. *)

module Kobj = Treesls_cap.Kobj

type handler = Bytes.t -> Bytes.t
(** Request payload to response payload. *)

val create_conn :
  Kernel.t -> client:Kernel.process -> server:Kernel.process -> Kobj.ipc_conn
(** A connection with a 1-page shared buffer, server = the server process's
    first thread, capabilities installed in both cap groups. *)

val register_handler : Kernel.t -> Kobj.ipc_conn -> handler -> unit
val has_handler : Kernel.t -> Kobj.ipc_conn -> bool

val call : Kernel.t -> Kobj.ipc_conn -> Bytes.t -> Bytes.t
(** Synchronous call: charges two crossings, bumps [ic_calls], runs the
    handler. Raises [Invalid_argument] if no handler is registered. *)

val notify : Kernel.t -> Kobj.notification -> unit
(** Signal: wakes one waiter if present, else increments the count. *)

val wait : Kernel.t -> Kobj.notification -> Kobj.thread -> bool
(** [wait k n th] consumes a pending signal (returns [true]) or blocks the
    thread on the notification (returns [false]). *)
