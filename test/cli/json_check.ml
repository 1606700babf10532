(* Fails unless stdin is exactly one JSON document, the contract of every
   `treesls_cli ... --json` run. *)

let () =
  match Treesls_util.Json.parse (In_channel.input_all stdin) with
  | _ -> ()
  | exception Treesls_util.Json.Parse_error msg ->
    prerr_endline ("json_check: " ^ msg);
    exit 1
