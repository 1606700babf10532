(** SLO watchdog: declarative rules over the {!Tseries} black box.

    Rules are evaluated against the newest sample at every checkpoint
    commit (from {!Probe.tseries_sample}); a violated rule emits a
    structured alert into a bounded log, an [slo.alert] trace instant
    and the [slo.alerts] metric, and the health report is printed by
    [treesls doctor] (where [--strict] turns alerts into a non-zero
    exit).

    {2 Rule grammar}

    {v
rule  := expr cmp expr
expr  := term ('*' term)*
term  := number | 'interval' | name | func '(' name ')' | '(' expr ')'
func  := p50 | p99 | value | rate | delta | ewma | max | mean
cmp   := < | <= | > | >= | ==
    v}

    [interval] is the current checkpoint interval in ns.  Names resolve
    through a short-alias table — [enq2vis] → [req.enq2vis] (p50/p99
    read the derived [.p50_ns]/[.p99_ns] columns), [waf] →
    [ckpt.nvm.waf] scaled /100 to the true ratio, [ring.dropped] →
    [extsync.ring.dropped], [stw] → [ckpt.stw_ns], [dirty_pct] →
    [ckpt.dirty_fraction_pct] — and otherwise name tseries columns
    directly.  [rate] is per-second over the last two samples; [delta]
    likewise; [ewma] uses alpha 0.3; [max]/[mean] use a 16-sample
    window.  A rule whose operands have no data yet (missing column,
    unknown interval) is skipped, not violated. *)

type rule

val rule_of_string : string -> (rule, string) result
val rule_to_string : rule -> string

val default_rules : rule list
(** [p99(enq2vis) < 2*interval], [waf < 3], [rate(ring.dropped) == 0]. *)

val default_rule_texts : string list

type alert = {
  al_seq : int;
  al_version : int;
  al_ts_ns : int;
  al_rule : string;
  al_value : float;  (** evaluated left-hand side *)
  al_bound : float;  (** evaluated right-hand side *)
}

type t

val create : ?rules:rule list -> unit -> t
val rules : t -> rule list
val set_rules : t -> rule list -> unit
(** Replaces the rule set and resets per-rule statistics. *)

val check : t -> Tseries.t -> interval_ns:int option -> alert list
(** Evaluate every rule against the newest sample; returns (and retains)
    the alerts fired by this sample. *)

val alerts : t -> alert list
(** Retained alerts, oldest first (the newest 256). *)

val alerts_total : t -> int
val checks : t -> int
val healthy : t -> bool

val rule_report : t -> (string * int * int * alert option) list
(** Per rule: (text, evaluations, fires, last alert). *)

val pp : Format.formatter -> t -> unit
val to_json : t -> Treesls_util.Json.t
