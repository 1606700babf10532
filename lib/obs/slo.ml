(* SLO watchdog over the tseries black box.

   Declarative rules ("p99(enq2vis) < 2*interval", "waf < 3",
   "rate(ring.dropped) == 0") are parsed into a tiny expression AST and
   evaluated against the newest tseries sample at every checkpoint
   commit.  A violated rule emits a structured alert: the probe mirrors
   it into the trace ring as an [slo.alert] instant and bumps the
   [slo.alerts] metric, and the retained alert log feeds the
   doctor-visible health report. *)

module Json = Treesls_util.Json

type func = P50 | P99 | Value | Rate | Delta | Ewma | Max | Mean
type cmp = Lt | Le | Gt | Ge | Eq

(* A signal as written in the rule, resolved at parse time to the
   tseries column its function reads and the scale applied to it. *)
type signal = { sg_name : string; sg_col : string; sg_scale : float }

type expr =
  | Num of float
  | Interval  (* the checkpoint interval, ns *)
  | Apply of func * signal  (* func over a signal *)
  | Mul of expr * expr

type rule = { r_text : string; r_lhs : expr; r_cmp : cmp; r_rhs : expr }

(* Short signal names accepted in rules, resolved to (column, scale).
   WAF is recorded x100 (integer gauge), so "waf < 3" compares against
   the true ratio. *)
let aliases =
  [
    ("enq2vis", ("req.enq2vis", 1.0));
    ("waf", ("ckpt.nvm.waf", 0.01));
    ("ring.dropped", ("extsync.ring.dropped", 1.0));
    ("stw", ("ckpt.stw_ns", 1.0));
    ("dirty_pct", ("ckpt.dirty_fraction_pct", 1.0));
    ("drain.backlog", ("ckpt.drain.backlog", 1.0));
    ("pages_protected", ("ckpt.pages.protected.last", 1.0));
  ]

(* p50/p99 read the derived percentile columns of the signal *)
let signal f name =
  let col, scale = match List.assoc_opt name aliases with Some cs -> cs | None -> (name, 1.0) in
  let col = match f with P50 -> col ^ ".p50_ns" | P99 -> col ^ ".p99_ns" | _ -> col in
  { sg_name = name; sg_col = col; sg_scale = scale }

(* --- parser ------------------------------------------------------- *)

type token = TNum of float | TIdent of string | TMul | TLp | TRp | TCmp of cmp

let tokenize s =
  let n = String.length s in
  let toks = ref [] in
  let i = ref 0 in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let ok = ref None in
  while !ok = None && !i < n do
    let c = s.[!i] in
    if c = ' ' || c = '\t' then incr i
    else if c = '*' then (toks := TMul :: !toks; incr i)
    else if c = '(' then (toks := TLp :: !toks; incr i)
    else if c = ')' then (toks := TRp :: !toks; incr i)
    else if c = '<' then
      if !i + 1 < n && s.[!i + 1] = '=' then (toks := TCmp Le :: !toks; i := !i + 2)
      else (toks := TCmp Lt :: !toks; incr i)
    else if c = '>' then
      if !i + 1 < n && s.[!i + 1] = '=' then (toks := TCmp Ge :: !toks; i := !i + 2)
      else (toks := TCmp Gt :: !toks; incr i)
    else if c = '=' then
      if !i + 1 < n && s.[!i + 1] = '=' then (toks := TCmp Eq :: !toks; i := !i + 2)
      else ok := Some (err "stray '=' at %d (use '==')" !i)
    else if (c >= '0' && c <= '9') || c = '.' then begin
      let j = ref !i in
      while !j < n && ((s.[!j] >= '0' && s.[!j] <= '9') || s.[!j] = '.') do incr j done;
      match float_of_string_opt (String.sub s !i (!j - !i)) with
      | Some f -> toks := TNum f :: !toks; i := !j
      | None -> ok := Some (err "bad number at %d" !i)
    end
    else if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' then begin
      let j = ref !i in
      while
        !j < n
        && ((s.[!j] >= 'a' && s.[!j] <= 'z') || (s.[!j] >= 'A' && s.[!j] <= 'Z')
            || (s.[!j] >= '0' && s.[!j] <= '9') || s.[!j] = '_' || s.[!j] = '.')
      do incr j done;
      toks := TIdent (String.sub s !i (!j - !i)) :: !toks;
      i := !j
    end
    else ok := Some (err "unexpected character %C at %d" c !i)
  done;
  match !ok with Some e -> e | None -> Ok (List.rev !toks)

let func_of_string = function
  | "p50" -> Some P50
  | "p99" -> Some P99
  | "value" -> Some Value
  | "rate" -> Some Rate
  | "delta" -> Some Delta
  | "ewma" -> Some Ewma
  | "max" -> Some Max
  | "mean" -> Some Mean
  | _ -> None

let rule_of_string text =
  match tokenize text with
  | Error e -> Error e
  | Ok toks ->
    let rest = ref toks in
    let exception Parse of string in
    let fail m = raise (Parse m) in
    let next () = match !rest with [] -> fail "unexpected end of rule" | t :: r -> rest := r; t in
    let peek () = match !rest with [] -> None | t :: _ -> Some t in
    let rec term () =
      match next () with
      | TNum f -> Num f
      | TIdent "interval" -> Interval
      | TIdent id -> (
        match (func_of_string id, peek ()) with
        | Some f, Some TLp -> (
          ignore (next ());
          match (next (), next ()) with
          | TIdent arg, TRp -> Apply (f, signal f arg)
          | _ -> fail (Printf.sprintf "expected '(name)' after %s" id))
        | _ -> Apply (Value, signal Value id))
      | TLp ->
        let e = expr () in
        (match next () with TRp -> e | _ -> fail "expected ')'")
      | _ -> fail "expected a number, signal or function"
    and expr () =
      let lhs = term () in
      match peek () with
      | Some TMul ->
        ignore (next ());
        Mul (lhs, expr ())
      | _ -> lhs
    in
    (try
       let lhs = expr () in
       let cmp = match next () with TCmp c -> c | _ -> fail "expected a comparison operator" in
       let rhs = expr () in
       if !rest <> [] then fail "trailing tokens after rule";
       Ok { r_text = text; r_lhs = lhs; r_cmp = cmp; r_rhs = rhs }
     with Parse m -> Error (Printf.sprintf "%s: %s" text m))

let func_to_string = function
  | P50 -> "p50"
  | P99 -> "p99"
  | Value -> "value"
  | Rate -> "rate"
  | Delta -> "delta"
  | Ewma -> "ewma"
  | Max -> "max"
  | Mean -> "mean"

let cmp_to_string = function Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">=" | Eq -> "=="

let rec expr_to_string = function
  | Num f -> if Float.is_integer f then string_of_int (int_of_float f) else string_of_float f
  | Interval -> "interval"
  | Apply (Value, sg) -> sg.sg_name
  | Apply (f, sg) -> Printf.sprintf "%s(%s)" (func_to_string f) sg.sg_name
  | Mul (a, b) -> Printf.sprintf "%s*%s" (expr_to_string a) (expr_to_string b)

let rule_to_string r =
  Printf.sprintf "%s %s %s" (expr_to_string r.r_lhs) (cmp_to_string r.r_cmp)
    (expr_to_string r.r_rhs)

(* Drain invariant: per-window backlog never exceeds the protection flips
   it rode on.  Compared max-over-window on BOTH sides (the gauges are
   per-commit and pointwise backlog <= protected by construction), so the
   rule only fires when deferred copies leak across windows. *)
let default_rule_texts =
  [
    "p99(enq2vis) < 2*interval";
    "waf < 3";
    "rate(ring.dropped) == 0";
    "max(drain.backlog) <= max(pages_protected)";
  ]

let default_rules =
  List.map
    (fun t -> match rule_of_string t with Ok r -> r | Error e -> failwith ("Slo.default_rules: " ^ e))
    default_rule_texts

(* --- evaluation ---------------------------------------------------- *)

(* [None] means "no data yet" (missing column, no samples, unknown
   interval): the rule is skipped for this sample, not violated. *)
let rec eval ts ~interval_ns e =
  match e with
  | Num f -> Some f
  | Interval -> Option.map float_of_int interval_ns
  | Mul (a, b) -> (
    match (eval ts ~interval_ns a, eval ts ~interval_ns b) with
    | Some x, Some y -> Some (x *. y)
    | _ -> None)
  | Apply (f, { sg_col = col; sg_scale = scale; _ }) -> (
    let scaled v = Some (v *. scale) in
    match f with
    | Value | P50 | P99 -> (
      match Tseries.latest ts with
      | None -> None
      | Some s -> Option.bind (Option.map float_of_int (Tseries.value ts s col)) scaled)
    | Rate -> Option.bind (Tseries.rate_per_s ts col ~n:2) scaled
    | Delta -> Option.bind (Option.map float_of_int (Tseries.delta ts col ~n:2)) scaled
    | Ewma -> Option.bind (Tseries.ewma ts col ~alpha:0.3) scaled
    | Max -> Option.bind (Option.map float_of_int (Tseries.max_over ts col ~n:16)) scaled
    | Mean -> Option.bind (Tseries.mean_over ts col ~n:16) scaled)

let holds cmp l r =
  match cmp with
  | Lt -> l < r
  | Le -> l <= r
  | Gt -> l > r
  | Ge -> l >= r
  | Eq -> Float.abs (l -. r) <= 1e-9

(* --- watchdog state ------------------------------------------------ *)

type alert = {
  al_seq : int;  (* tseries sample seq the rule fired on *)
  al_version : int;
  al_ts_ns : int;
  al_rule : string;
  al_value : float;  (* evaluated lhs *)
  al_bound : float;  (* evaluated rhs *)
}

type rule_stats = { mutable rs_evals : int; mutable rs_fires : int; mutable rs_last : alert option }

let alert_cap = 256

type t = {
  mutable rules : (rule * rule_stats) list;
  mutable alerts : alert list;  (* newest first, bounded *)
  mutable alerts_total : int;
  mutable checks : int;
}

let create ?(rules = default_rules) () =
  {
    rules = List.map (fun r -> (r, { rs_evals = 0; rs_fires = 0; rs_last = None })) rules;
    alerts = [];
    alerts_total = 0;
    checks = 0;
  }

let rules t = List.map fst t.rules

let set_rules t rs =
  t.rules <- List.map (fun r -> (r, { rs_evals = 0; rs_fires = 0; rs_last = None })) rs

let alerts t = List.rev t.alerts
let alerts_total t = t.alerts_total
let checks t = t.checks
let healthy t = t.alerts_total = 0

let rule_report t =
  List.map (fun (r, s) -> (r.r_text, s.rs_evals, s.rs_fires, s.rs_last)) t.rules

let check t ts ~interval_ns =
  t.checks <- t.checks + 1;
  match Tseries.latest ts with
  | None -> []
  | Some sample ->
    List.filter_map
      (fun (r, s) ->
        match (eval ts ~interval_ns r.r_lhs, eval ts ~interval_ns r.r_rhs) with
        | Some l, Some b ->
          s.rs_evals <- s.rs_evals + 1;
          if holds r.r_cmp l b then None
          else begin
            let al =
              {
                al_seq = sample.Tseries.sp_seq;
                al_version = sample.Tseries.sp_version;
                al_ts_ns = sample.Tseries.sp_ts_ns;
                al_rule = r.r_text;
                al_value = l;
                al_bound = b;
              }
            in
            s.rs_fires <- s.rs_fires + 1;
            s.rs_last <- Some al;
            t.alerts_total <- t.alerts_total + 1;
            t.alerts <- al :: (if List.length t.alerts >= alert_cap then
                                 List.filteri (fun i _ -> i < alert_cap - 1) t.alerts
                               else t.alerts);
            Some al
          end
        | _ -> None)
      t.rules

(* --- health report ------------------------------------------------- *)

let pp ppf t =
  Format.fprintf ppf "slo: %d rules, %d checks, %d alerts — %s@." (List.length t.rules) t.checks
    t.alerts_total
    (if healthy t then "healthy" else "UNHEALTHY");
  List.iter
    (fun (text, evals, fires, last) ->
      Format.fprintf ppf "  %-36s evals=%-6d fires=%-6d" text evals fires;
      (match last with
      | Some al ->
        Format.fprintf ppf " last: v%d @%.3fus value=%.1f bound=%.1f" al.al_version
          (float_of_int al.al_ts_ns /. 1e3) al.al_value al.al_bound
      | None -> ());
      Format.fprintf ppf "@.")
    (rule_report t)

let to_json t =
  let rule (text, evals, fires, _) =
    Json.Obj [ ("rule", Json.Str text); ("evals", Json.int evals); ("fires", Json.int fires) ]
  in
  let alert al =
    Json.Obj
      [
        ("seq", Json.int al.al_seq);
        ("version", Json.int al.al_version);
        ("ts_ns", Json.int al.al_ts_ns);
        ("rule", Json.Str al.al_rule);
        ("value", Json.fixed 3 al.al_value);
        ("bound", Json.fixed 3 al.al_bound);
      ]
  in
  Json.Obj
    [
      ("healthy", Json.Bool (healthy t));
      ("checks", Json.int t.checks);
      ("alerts_total", Json.int t.alerts_total);
      ("rules", Json.Arr (List.map rule (rule_report t)));
      ("alerts", Json.Arr (List.map alert (alerts t)));
    ]
