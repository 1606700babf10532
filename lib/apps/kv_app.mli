(** Memcached- and Redis-style in-memory key-value servers.

    Each launch creates a server process and a (checkpointed) client
    process, reproducing the workload's Table 2 object census.  Operations
    travel the real path: the client dirties its request buffer, makes a
    synchronous IPC call, and the server executes the operation against its
    PMO-resident {!Kvstore}.  A request is built once, as one buffer, and
    the server reads it in place; the only copies of a value the
    simulation does not charge are that buffer and, for a get, the reply
    and the returned string.

    Persistence is entirely transparent: neither server nor client contains
    any persistence code. After a crash, {!refresh} re-derives handles and
    re-registers the (volatile) IPC handler. *)

module Kernel = Treesls_kernel.Kernel
module System = Treesls.System

type profile = Memcached | Redis | Shard
(** [Shard] is a small-census profile for multi-tenant packing: the same
    real IPC/store path, a fraction of the per-instance object count. *)

type t

val launch :
  ?keys_hint:int -> ?value_size:int -> ?instance:string -> System.t -> profile -> t
(** [keys_hint] sizes the hash table and region (default 100_000).
    [instance] disambiguates multiple launches of the same profile: it
    suffixes both process names (e.g. ["kvshard.t3"]) and prefixes request
    origins (["t3/kv.set"]), so post-crash {!refresh} and per-tenant
    rtrace queries resolve the right instance. *)

val refresh : t -> unit
(** Post-recovery: re-find processes, re-open the store, re-register the
    IPC handler. *)

val server : t -> Kernel.process
val client : t -> Kernel.process

val server_name : t -> string
(** Instance-qualified process name, as it appears in [Report.per_group]
    attribution. *)

val client_name : t -> string
val kv : t -> Kvstore.t
val value_size : t -> int

val set : t -> key:string -> value:string -> unit
val get : t -> key:string -> string option
val del : t -> key:string -> bool

val set_i : t -> int -> unit
(** [set_i t i] stores key [Printf.sprintf "key%08d" i] with the value
    ["v%08d-"] of [i] repeated and cut to [value_size] bytes (benchmark
    convenience); both are written straight into the request.  Raises
    [Invalid_argument] when [i < 0]. *)

val get_i : t -> int -> string option
(** {!get} of the key {!set_i} stores for [i]. *)
