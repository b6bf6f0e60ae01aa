(* RedoDB as an embedded key-value store with the LevelDB/RocksDB API
   surface: point writes, reads, deletes, atomic write batches, iteration —
   all wait-free and durable-linearizable.

   Run with:  dune exec examples/kv_store.exe *)

module Db = Kv.Redodb

let () =
  print_endline "== kv_store: RedoDB, a wait-free persistent key-value store ==";
  let db = Db.open_db ~num_threads:4 ~capacity_bytes:(1 lsl 20) () in

  (* Point operations. *)
  Db.put db ~tid:0 ~key:"user:1:name" ~value:"ada";
  Db.put db ~tid:0 ~key:"user:1:email" ~value:"ada@lovelace.org";
  Db.put db ~tid:0 ~key:"user:2:name" ~value:"grace";
  Printf.printf "user:1:name = %s\n"
    (Option.value ~default:"<none>" (Db.get db ~tid:0 "user:1:name"));

  (* An atomic batch: rename user 2 and drop a stale key, all or nothing. *)
  Db.write_batch db ~tid:0
    [
      ("user:2:name", Some "grace hopper");
      ("user:2:email", Some "grace@navy.mil");
      ("user:1:email", None);
    ];
  Printf.printf "after batch: user:2:name = %s, user:1:email = %s\n"
    (Option.value ~default:"<none>" (Db.get db ~tid:0 "user:2:name"))
    (Option.value ~default:"<none>" (Db.get db ~tid:0 "user:1:email"));

  (* Concurrent writers + a reader, as in the readwhilewriting workload. *)
  let writers =
    List.init 2 (fun w ->
        Domain.spawn (fun () ->
            for i = 0 to 99 do
              Db.put db ~tid:(w + 1)
                ~key:(Printf.sprintf "bulk:%d:%03d" w i)
                ~value:(string_of_int (i * i))
            done))
  in
  List.iter Domain.join writers;
  Printf.printf "entries after concurrent load: %d\n" (Db.count db ~tid:0);

  (* Crash and reopen: null recovery. *)
  print_endline "pulling the plug...";
  let dt = Db.crash_and_recover db in
  Printf.printf "recovered in %.2f ms; entries = %d; bulk:1:007 = %s\n"
    (dt *. 1000.) (Db.count db ~tid:0)
    (Option.value ~default:"<none>" (Db.get db ~tid:0 "bulk:1:007"));

  (* Iterate a consistent snapshot. *)
  let users =
    Db.fold db ~tid:0 ~init:[] (fun acc k v ->
        if String.length k >= 5 && String.sub k 0 5 = "user:" then (k, v) :: acc
        else acc)
  in
  print_endline "users:";
  List.iter (fun (k, v) -> Printf.printf "  %s -> %s\n" k v)
    (List.sort compare users);

  let nvm, volatile = Db.memory_usage db in
  Printf.printf "memory: %d KiB NVM, %d KiB volatile\n" (nvm * 8 / 1024)
    (volatile * 8 / 1024);

  (* ---- the same store, sharded and served (lib/serve) ----

     The serving engine hash-partitions the keyspace over independent
     RedoDB instances and funnels each shard's writes through a
     group-commit stage; `bin/redodb_server` puts this behind TCP. *)
  print_endline "\n== sharded serving engine (2 shards, group commit) ==";
  let module E = Serve.Engine in
  let e = E.create { E.default_config with shards = 2; num_threads = 2 } in
  let ok = function
    | Ok v -> v
    | Error err -> failwith (E.pp_error err)
  in
  let ack =
    ok
      (E.multi_put e ~tid:0
         (List.init 20 (fun i ->
              (Printf.sprintf "city:%02d" i, Some (string_of_int (i * 111))))))
  in
  Printf.printf "MPUT committed atomically across shards: txid %d, epoch %d\n"
    ack.E.txid ack.E.epoch;
  Printf.printf "city:07 = %s (from shard %d)\n"
    (Option.value ~default:"<none>" (ok (E.get e ~tid:0 "city:07")))
    (E.shard_of e "city:07");
  (match ok (E.multi_get e ~tid:0 [ "city:01"; "city:19"; "city:99" ]) with
  | [ a; b; c ] ->
      Printf.printf "multi_get across shards: %s %s %s\n"
        (Option.value ~default:"<none>" a)
        (Option.value ~default:"<none>" b)
        (Option.value ~default:"<none>" c)
  | _ -> assert false);
  let kvs = ok (E.scan e ~tid:0 ~prefix:"city:0" ~max:5) in
  Printf.printf "scan city:0* (merged over shards): %s\n"
    (String.concat " " (List.map fst kvs));
  print_endline "pulling the plug on every shard...";
  (match
     E.crash_with_faults e ~tid:0 ~seed:7 ~evict_prob:0.5 ~torn_prob:0.3
       ~bitflips:0
   with
  | Ok dt ->
      Printf.printf "all shards recovered in %.2f ms; %d keys intact\n"
        (dt *. 1000.) (E.count e ~tid:0)
  | Error d -> failwith d);
  Printf.printf "group-commit batches on shard 0: %d\n"
    (E.batches_committed e ~shard:0);
  print_endline "done."
