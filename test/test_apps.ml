(* Tests for the application suite: the PMO-resident KV store, the LSM
   stores, SQLite, Phoenix and the Memcached/Redis servers — including
   their Table 2 object censuses and post-recovery reattachment. *)

module System = Treesls.System
module Kernel = Treesls_kernel.Kernel
module Census = Treesls_cap.Census
module Kvstore = Treesls_apps.Kvstore
module Kv_app = Treesls_apps.Kv_app
module Lsm = Treesls_apps.Lsm
module Sqlite = Treesls_apps.Sqlite
module Phoenix = Treesls_apps.Phoenix
module Net_server = Treesls_extsync.Net_server
module Probe = Treesls_obs.Probe
module Rtrace = Treesls_obs.Rtrace
module Wearmap = Treesls_obs.Wearmap
module Rng = Treesls_util.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str_opt = Alcotest.(check (option string))

let boot () = System.boot ()

let mk_kv sys =
  let k = System.kernel sys in
  let p = Kernel.create_process k ~name:"kvtest" ~threads:1 ~prio:5 in
  (k, p, Kvstore.create k p ~buckets:64 ~pages:32)

(* ---- Kvstore ---- *)

let kv_put_get () =
  let sys = boot () in
  let _, _, kv = mk_kv sys in
  Kvstore.put kv ~key:"a" ~value:"1";
  check_str_opt "get" (Some "1") (Kvstore.get kv ~key:"a");
  check_bool "mem" true (Kvstore.mem kv ~key:"a");
  check_str_opt "missing" None (Kvstore.get kv ~key:"zzz");
  check_int "count" 1 (Kvstore.count kv)

let kv_update_in_place () =
  let sys = boot () in
  let _, _, kv = mk_kv sys in
  Kvstore.put kv ~key:"k" ~value:"aaaa";
  let used = Kvstore.bytes_used kv in
  Kvstore.put kv ~key:"k" ~value:"bb";
  check_str_opt "shrunk update" (Some "bb") (Kvstore.get kv ~key:"k");
  check_int "in place: no growth" used (Kvstore.bytes_used kv);
  check_int "count stable" 1 (Kvstore.count kv)

let kv_update_grow () =
  let sys = boot () in
  let _, _, kv = mk_kv sys in
  Kvstore.put kv ~key:"k" ~value:"aa";
  Kvstore.put kv ~key:"k" ~value:(String.make 100 'b');
  check_str_opt "grown value" (Some (String.make 100 'b')) (Kvstore.get kv ~key:"k");
  check_int "count stable" 1 (Kvstore.count kv)

(* regression: an update that outgrows its entry must unlink the stale
   entry, or a later delete resurrects the old value *)
let kv_grown_update_then_delete () =
  let sys = boot () in
  let _, _, kv = mk_kv sys in
  Kvstore.put kv ~key:"k" ~value:"small";
  Kvstore.put kv ~key:"k" ~value:(String.make 200 'L');
  check_bool "deleted" true (Kvstore.delete kv ~key:"k");
  check_str_opt "stays deleted (no stale resurrection)" None (Kvstore.get kv ~key:"k");
  check_int "count consistent" 0 (Kvstore.count kv);
  (* and re-inserting counts correctly *)
  Kvstore.put kv ~key:"k" ~value:"again";
  check_int "recounted" 1 (Kvstore.count kv)

let kv_delete () =
  let sys = boot () in
  let _, _, kv = mk_kv sys in
  Kvstore.put kv ~key:"a" ~value:"1";
  Kvstore.put kv ~key:"b" ~value:"2";
  check_bool "deleted" true (Kvstore.delete kv ~key:"a");
  check_bool "gone" false (Kvstore.mem kv ~key:"a");
  check_str_opt "other intact" (Some "2") (Kvstore.get kv ~key:"b");
  check_bool "delete missing" false (Kvstore.delete kv ~key:"a");
  check_int "count" 1 (Kvstore.count kv)

let kv_collisions () =
  let sys = boot () in
  let k = System.kernel sys in
  let p = Kernel.create_process k ~name:"coll" ~threads:1 ~prio:5 in
  (* 2 buckets force chains *)
  let kv = Kvstore.create k p ~buckets:2 ~pages:32 in
  for i = 0 to 49 do
    Kvstore.put kv ~key:(Printf.sprintf "key%d" i) ~value:(string_of_int i)
  done;
  check_int "all present" 50 (Kvstore.count kv);
  for i = 0 to 49 do
    check_str_opt "chained lookup" (Some (string_of_int i))
      (Kvstore.get kv ~key:(Printf.sprintf "key%d" i))
  done

let kv_full () =
  let sys = boot () in
  let k = System.kernel sys in
  let p = Kernel.create_process k ~name:"full" ~threads:1 ~prio:5 in
  let kv = Kvstore.create k p ~buckets:8 ~pages:3 in
  Alcotest.check_raises "region exhausted" Kvstore.Full (fun () ->
      for i = 0 to 10_000 do
        Kvstore.put kv ~key:(Printf.sprintf "k%d" i) ~value:(String.make 64 'v')
      done)

(* regression: an update that outgrows its entry and finds the region full
   must leave the key, its value and the count as they were *)
let kv_full_keeps_grown_key () =
  let sys = boot () in
  let k = System.kernel sys in
  let p = Kernel.create_process k ~name:"fullgrow" ~threads:1 ~prio:5 in
  let kv = Kvstore.create k p ~buckets:64 ~pages:3 in
  let filler i = Printf.sprintf "f%02d" i and big = String.make 100 'x' in
  Kvstore.put kv ~key:"k" ~value:"small";
  for i = 0 to 30 do
    Kvstore.put kv ~key:(filler i) ~value:big
  done;
  Alcotest.check_raises "no room to grow" Kvstore.Full (fun () ->
      Kvstore.put kv ~key:"k" ~value:(String.make 2_000 'L'));
  check_str_opt "old value kept" (Some "small") (Kvstore.get kv ~key:"k");
  check_int "count" 32 (Kvstore.count kv);
  for i = 0 to 30 do
    check_str_opt "filler intact" (Some big) (Kvstore.get kv ~key:(filler i))
  done;
  (* an update that fits still goes in place *)
  Kvstore.put kv ~key:"k" ~value:"tiny";
  check_str_opt "updated in place" (Some "tiny") (Kvstore.get kv ~key:"k")

let kv_attach_roundtrip () =
  let sys = boot () in
  let k, p, kv = mk_kv sys in
  Kvstore.put kv ~key:"x" ~value:"42";
  let kv2 = Kvstore.attach k p ~vpn:(Kvstore.base_vpn kv) in
  check_str_opt "attached view" (Some "42") (Kvstore.get kv2 ~key:"x");
  Kvstore.put kv2 ~key:"y" ~value:"43";
  check_str_opt "shared state" (Some "43") (Kvstore.get kv ~key:"y")

let kv_persists_across_crash () =
  let sys = boot () in
  let k, p, kv = mk_kv sys in
  Kvstore.put kv ~key:"stable" ~value:"yes";
  ignore (System.checkpoint sys);
  Kvstore.put kv ~key:"volatile" ~value:"no";
  let _ = System.crash_and_recover sys in
  ignore (k, p);
  let k = System.kernel sys in
  let p = Option.get (Kernel.find_process k ~name:"kvtest") in
  let kv = Kvstore.attach k p ~vpn:(Kvstore.base_vpn kv) in
  check_str_opt "committed key" (Some "yes") (Kvstore.get kv ~key:"stable");
  check_str_opt "uncommitted rolled back" None (Kvstore.get kv ~key:"volatile")

(* ---- Kv_app (Memcached / Redis) ---- *)

let app_census profile (dcg, dth, dipc, dnt, dpmo, dvms) () =
  let sys = boot () in
  let k = System.kernel sys in
  let before = Census.collect ~root:(Kernel.root k) in
  let _app = Kv_app.launch ~keys_hint:1_000 sys profile in
  let after = Census.collect ~root:(Kernel.root k) in
  let d = Census.diff after before in
  check_int "cap groups" dcg d.Census.cap_groups;
  check_int "threads" dth d.Census.threads;
  check_int "ipc" dipc d.Census.ipcs;
  check_int "notifications" dnt d.Census.notifications;
  check_int "pmos" dpmo d.Census.pmos;
  check_int "vmspaces" dvms d.Census.vmspaces

let app_ops () =
  let sys = boot () in
  let app = Kv_app.launch ~keys_hint:1_000 sys Kv_app.Memcached in
  Kv_app.set app ~key:"k" ~value:"v";
  check_str_opt "get" (Some "v") (Kv_app.get app ~key:"k");
  check_bool "del" true (Kv_app.del app ~key:"k");
  check_str_opt "gone" None (Kv_app.get app ~key:"k");
  Kv_app.set_i app 5;
  check_bool "set_i/get_i" true (Kv_app.get_i app 5 <> None);
  check_int "value size" (Kv_app.value_size app) (String.length (Option.get (Kv_app.get_i app 5)))

let app_refresh_after_crash () =
  let sys = boot () in
  let app = Kv_app.launch ~keys_hint:1_000 sys Kv_app.Redis in
  Kv_app.set_i app 1;
  ignore (System.checkpoint sys);
  Kv_app.set_i app 2;
  let _ = System.crash_and_recover sys in
  Kv_app.refresh app;
  check_bool "committed key" true (Kv_app.get_i app 1 <> None);
  check_bool "uncommitted rolled back" true (Kv_app.get_i app 2 = None);
  (* the app continues to work after recovery *)
  Kv_app.set_i app 3;
  check_bool "works after recovery" true (Kv_app.get_i app 3 <> None)

(* ---- Kv_app against the old request encoding ---- *)

(* Keys, values and set payloads as they were built before requests were
   written in place, kept as the reference: [sprintf] keys, values by
   concatenation, string payloads. *)
let ref_key i = Printf.sprintf "key%08d" i

let ref_value_for ~value_size i =
  let base = Printf.sprintf "v%08d-" i in
  let reps = (value_size / String.length base) + 1 in
  String.sub (String.concat "" (List.init reps (fun _ -> base))) 0 value_size

let ref_set_payload ~key ~value = Bytes.of_string ("S" ^ key ^ "\x00" ^ value)

(* A tenant-like KV app on a system of its own: every op is followed by a
   reply on its ring, so requests are released by checkpoints. *)
type twin = { sys : System.t; app : Kv_app.t; net : Net_server.t }

let twin ~value_size =
  let sys = boot () in
  let app = Kv_app.launch ~keys_hint:64 ~value_size ~instance:"t0" sys Kv_app.Shard in
  let net =
    Net_server.create ~slots:64 ~slot_size:64 ~name:"netsrv.t0" (System.kernel sys)
      (System.manager sys) ~proc:(Kv_app.server app)
      ~deliver:(fun ~client:_ ~sent_ns:_ ~payload:_ -> ())
  in
  { sys; app; net }

(* The staged copy of the newest request in the client's buffer: the
   buffer is the client's last region, and requests are staged 64-byte
   aligned from its start. *)
let client_region tw =
  let p = Kv_app.client tw.app in
  List.nth p.Kernel.vms.Treesls_cap.Kobj.vs_regions
    (List.length p.Kernel.vms.Treesls_cap.Kobj.vs_regions - 1)

(* One seeded mix on twin systems: [cur] builds its requests in place
   ([set_i]/[get_i]), [old] sends the reference keys and values through
   the string API.  They must agree on every reply and on everything the
   simulation charges or records. *)
let app_matches_old_encoding () =
  List.iter
    (fun value_size ->
      let cur = twin ~value_size and old = twin ~value_size in
      let rng = Rng.create (Int64.of_int (1_000 + value_size)) in
      let pool =
        Array.concat
          [
            Array.init 12 Fun.id;
            Array.init 7 (fun j -> 99_999_997 + j);
            [| 999_999_999; 1_000_000_007; 123_456_789_012 |];
          ]
      in
      let model = Hashtbl.create 64 in
      let at op i = Printf.sprintf "size %d %s %d" value_size op i in
      for step = 1 to 400 do
        let i = Rng.pick rng pool in
        (match Rng.int rng 100 with
        | r when r < 40 ->
          Kv_app.set_i cur.app i;
          Kv_app.set old.app ~key:(ref_key i) ~value:(ref_value_for ~value_size i);
          Hashtbl.replace model i (ref_value_for ~value_size i)
        | r when r < 75 ->
          let want = Hashtbl.find_opt model i in
          check_str_opt (at "get" i) want (Kv_app.get_i cur.app i);
          check_str_opt (at "old get" i) want (Kv_app.get old.app ~key:(ref_key i))
        | r when r < 90 ->
          let want = Hashtbl.mem model i in
          Hashtbl.remove model i;
          check_bool (at "del" i) want (Kv_app.del cur.app ~key:(ref_key i));
          check_bool (at "old del" i) want (Kv_app.del old.app ~key:(ref_key i))
        | _ ->
          let missing = 5_000 + Rng.int rng 1_000 in
          check_str_opt (at "missing" missing) None (Kv_app.get_i cur.app missing);
          check_str_opt (at "old missing" missing) None
            (Kv_app.get old.app ~key:(ref_key missing)));
        List.iter
          (fun tw -> ignore (Net_server.send tw.net ~client:0 (Bytes.of_string "+OK")))
          [ cur; old ];
        if step mod 16 = 0 then
          List.iter (fun tw -> ignore (System.checkpoint tw.sys)) [ cur; old ];
        check_int (Printf.sprintf "size %d step %d: virtual clock" value_size step)
          (System.now_ns old.sys) (System.now_ns cur.sys)
      done;
      (* the last set's staged payload is the reference string payload *)
      let i = Rng.pick rng pool in
      Kv_app.set_i cur.app i;
      let r = client_region cur in
      let k = System.kernel cur.sys in
      let psz = (Kernel.cost k).Treesls_sim.Cost.page_size in
      let want = ref_set_payload ~key:(ref_key i) ~value:(ref_value_for ~value_size i) in
      let first = r.Treesls_cap.Kobj.vr_vpn * psz in
      let stop = first + (r.Treesls_cap.Kobj.vr_pages * psz) in
      let staged =
        Array.init ((stop - first) / 64) (fun slot -> first + (slot * 64))
        |> Array.exists (fun vaddr ->
               vaddr + Bytes.length want <= stop
               && Bytes.equal want
                    (Kernel.read_bytes k (Kv_app.client cur.app) ~vaddr ~len:(Bytes.length want)))
      in
      check_bool (Printf.sprintf "size %d: staged payload" value_size) true staged;
      Kv_app.set old.app ~key:(ref_key i) ~value:(ref_value_for ~value_size i);
      List.iter (fun tw -> ignore (System.checkpoint tw.sys)) [ cur; old ];
      let stats tw = Kernel.stats (System.kernel tw.sys) in
      let wear tw = Wearmap.subsystems (System.wearmap tw.sys) in
      let rt tw = Probe.rtrace (System.obs tw.sys) in
      check_bool "kernel stats" true (stats cur = stats old);
      check_bool "wear per writer" true (wear cur = wear old);
      Alcotest.(check (list string)) "origins" (Rtrace.origins (rt old)) (Rtrace.origins (rt cur));
      check_bool "origins released" true (Rtrace.origins (rt cur) <> []);
      List.iter
        (fun prefix ->
          check_bool ("summaries " ^ prefix) true
            (Rtrace.summaries_prefix (rt cur) ~prefix = Rtrace.summaries_prefix (rt old) ~prefix))
        [ ""; "t0/"; "t0/kv.set"; "t0/kv.get"; "t0/kv.del" ])
    [ 1; 9; 10; 11; 64; 1_024 ]

(* ---- Lsm ---- *)

let lsm_put_get () =
  let sys = boot () in
  let db = Lsm.launch sys Lsm.Rocksdb in
  Lsm.put db ~key:"a" ~value:"1";
  check_str_opt "memtable hit" (Some "1") (Lsm.get db ~key:"a");
  check_int "memtable count" 1 (Lsm.memtable_count db)

let lsm_flush_threshold () =
  let sys = boot () in
  let db = Lsm.launch ~memtable_kb:16 sys Lsm.Rocksdb in
  check_int "no flush yet" 0 (Lsm.flushes db);
  for i = 0 to 400 do
    Lsm.put db ~key:(Printf.sprintf "k%06d" i) ~value:(String.make 100 'v')
  done;
  check_bool "flushed" true (Lsm.flushes db > 0);
  (* memtable was reset and keeps accepting writes *)
  Lsm.put db ~key:"after" ~value:"x";
  check_str_opt "works after flush" (Some "x") (Lsm.get db ~key:"after")

let lsm_wal_flag () =
  let sys = boot () in
  let with_wal = Lsm.launch ~wal:true sys Lsm.Rocksdb in
  check_bool "wal on" true (Lsm.wal_enabled with_wal);
  (* WAL writes consume extra simulated time per put *)
  let t0 = System.now_ns sys in
  for i = 0 to 99 do
    Lsm.put with_wal ~key:(Printf.sprintf "k%d" i) ~value:"vvvv"
  done;
  let with_time = System.now_ns sys - t0 in
  check_bool "wal costs time" true (with_time > 0)

let lsm_census () =
  let sys = boot () in
  let k = System.kernel sys in
  let before = Census.collect ~root:(Kernel.root k) in
  let _db = Lsm.launch sys Lsm.Leveldb in
  let d = Census.diff (Census.collect ~root:(Kernel.root k)) before in
  (* Table 2 row C *)
  check_int "cap groups" 1 d.Census.cap_groups;
  check_int "threads" 5 d.Census.threads;
  check_int "ipc" 3 d.Census.ipcs;
  check_int "notifications" 2 d.Census.notifications;
  check_int "pmos" 18 d.Census.pmos;
  check_int "vmspaces" 1 d.Census.vmspaces

let lsm_fillbatch () =
  let sys = boot () in
  let db = Lsm.launch sys Lsm.Leveldb in
  Lsm.fillbatch db ~base:0 ~count:64;
  check_str_opt "sequential key" (Some (String.make 100 'b')) (Lsm.get db ~key:"seq0000000042")

(* ---- Sqlite ---- *)

let sqlite_census () =
  let sys = boot () in
  let k = System.kernel sys in
  let before = Census.collect ~root:(Kernel.root k) in
  let _db = Sqlite.launch sys in
  let d = Census.diff (Census.collect ~root:(Kernel.root k)) before in
  (* Table 2 row B *)
  check_int "cap groups" 1 d.Census.cap_groups;
  check_int "threads" 4 d.Census.threads;
  check_int "ipc" 3 d.Census.ipcs;
  check_int "notifications" 0 d.Census.notifications;
  check_int "pmos" 14 d.Census.pmos;
  check_int "vmspaces" 1 d.Census.vmspaces

let sqlite_mixed_ops () =
  let sys = boot () in
  let db = Sqlite.launch sys in
  Sqlite.op_step db Sqlite.Insert 0;
  Sqlite.op_step db Sqlite.Insert 0;
  check_int "two rows" 2 (Sqlite.rows db);
  Sqlite.op_step db Sqlite.Update 0;
  check_int "update keeps rows" 2 (Sqlite.rows db);
  Sqlite.op_step db Sqlite.Delete 0;
  check_int "delete removes" 1 (Sqlite.rows db);
  Sqlite.op_step db Sqlite.Read 1;
  let rng = Rng.create 1L in
  for _ = 1 to 200 do
    Sqlite.step db rng
  done;
  check_bool "rows bounded" true (Sqlite.rows db >= 0)

let sqlite_refresh () =
  let sys = boot () in
  let db = Sqlite.launch sys in
  Sqlite.op_step db Sqlite.Insert 0;
  ignore (System.checkpoint sys);
  Sqlite.op_step db Sqlite.Insert 0;
  let _ = System.crash_and_recover sys in
  Sqlite.refresh db;
  check_int "rolled back to one row" 1 (Sqlite.rows db)

(* ---- Phoenix ---- *)

let phoenix_census kind (dth, dipc, dnt, dpmo) () =
  let sys = boot () in
  let k = System.kernel sys in
  let before = Census.collect ~root:(Kernel.root k) in
  let _app = Phoenix.launch sys kind in
  let d = Census.diff (Census.collect ~root:(Kernel.root k)) before in
  check_int "threads" dth d.Census.threads;
  check_int "ipc" dipc d.Census.ipcs;
  check_int "notifications" dnt d.Census.notifications;
  check_int "pmos" dpmo d.Census.pmos

let phoenix_steps () =
  let sys = boot () in
  let rng = Rng.create 2L in
  List.iter
    (fun kind ->
      let app = Phoenix.launch sys kind in
      let t0 = System.now_ns sys in
      for _ = 1 to 10 do
        Phoenix.step app rng
      done;
      check_int (Phoenix.name app ^ " steps") 10 (Phoenix.progress app);
      check_bool (Phoenix.name app ^ " advances time") true (System.now_ns sys > t0))
    [ Phoenix.Wordcount; Phoenix.Kmeans; Phoenix.Pca ]

let phoenix_wordcount_counts () =
  let sys = boot () in
  let rng = Rng.create 3L in
  let app = Phoenix.launch sys Phoenix.Wordcount in
  for _ = 1 to 50 do
    Phoenix.step app rng
  done;
  (* survives a crash: word counts roll back to the checkpoint *)
  ignore (System.checkpoint sys);
  for _ = 1 to 10 do
    Phoenix.step app rng
  done;
  let _ = System.crash_and_recover sys in
  Phoenix.refresh app;
  for _ = 1 to 5 do
    Phoenix.step app rng
  done;
  check_bool "continues after recovery" true (Phoenix.progress app > 0)

let () =
  Alcotest.run "apps"
    [
      ( "kvstore",
        [
          Alcotest.test_case "put/get" `Quick kv_put_get;
          Alcotest.test_case "update in place" `Quick kv_update_in_place;
          Alcotest.test_case "update grows" `Quick kv_update_grow;
          Alcotest.test_case "grown update then delete (regression)" `Quick
            kv_grown_update_then_delete;
          Alcotest.test_case "delete" `Quick kv_delete;
          Alcotest.test_case "hash collisions" `Quick kv_collisions;
          Alcotest.test_case "region full" `Quick kv_full;
          Alcotest.test_case "full grown update keeps the key" `Quick kv_full_keeps_grown_key;
          Alcotest.test_case "attach roundtrip" `Quick kv_attach_roundtrip;
          Alcotest.test_case "persists across crash" `Quick kv_persists_across_crash;
        ] );
      ( "kv_app",
        [
          Alcotest.test_case "memcached census (Table 2 G)" `Quick
            (app_census Kv_app.Memcached (2, 42, 19, 17, 154, 2));
          Alcotest.test_case "redis census (Table 2 F)" `Quick
            (app_census Kv_app.Redis (2, 77, 60, 6, 262, 2));
          Alcotest.test_case "operations" `Quick app_ops;
          Alcotest.test_case "refresh after crash" `Quick app_refresh_after_crash;
          Alcotest.test_case "matches the old request encoding" `Quick app_matches_old_encoding;
        ] );
      ( "lsm",
        [
          Alcotest.test_case "put/get" `Quick lsm_put_get;
          Alcotest.test_case "flush threshold" `Quick lsm_flush_threshold;
          Alcotest.test_case "wal flag" `Quick lsm_wal_flag;
          Alcotest.test_case "leveldb census (Table 2 C)" `Quick lsm_census;
          Alcotest.test_case "fillbatch" `Quick lsm_fillbatch;
        ] );
      ( "sqlite",
        [
          Alcotest.test_case "census (Table 2 B)" `Quick sqlite_census;
          Alcotest.test_case "mixed operations" `Quick sqlite_mixed_ops;
          Alcotest.test_case "refresh after crash" `Quick sqlite_refresh;
        ] );
      ( "phoenix",
        [
          Alcotest.test_case "wordcount census (Table 2 D)" `Quick
            (phoenix_census Phoenix.Wordcount (12, 3, 8, 31));
          Alcotest.test_case "kmeans census (Table 2 E)" `Quick
            (phoenix_census Phoenix.Kmeans (12, 3, 9, 24));
          Alcotest.test_case "steps advance" `Quick phoenix_steps;
          Alcotest.test_case "wordcount crash/continue" `Quick phoenix_wordcount_counts;
        ] );
    ]
