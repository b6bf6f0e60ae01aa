(* Tests for the key-value layer: RedoDB and the RocksDB-sim baseline are
   driven through the same interface and validated against a Hashtbl model,
   including across crashes and under concurrency. *)

module Make (D : Kv.Db_intf.S) = struct
  let mk ?(capacity = 1 lsl 18) () =
    D.open_db ~num_threads:4 ~capacity_bytes:capacity ()

  let test_put_get () =
    let db = mk () in
    Alcotest.(check (option string)) "missing" None (D.get db ~tid:0 "a");
    D.put db ~tid:0 ~key:"a" ~value:"1";
    Alcotest.(check (option string)) "present" (Some "1") (D.get db ~tid:0 "a");
    Alcotest.(check int) "count" 1 (D.count db ~tid:0)

  let test_overwrite () =
    let db = mk () in
    D.put db ~tid:0 ~key:"k" ~value:"v1";
    D.put db ~tid:0 ~key:"k" ~value:"v2";
    Alcotest.(check (option string)) "latest wins" (Some "v2") (D.get db ~tid:0 "k");
    Alcotest.(check int) "no duplicate" 1 (D.count db ~tid:0)

  let test_delete () =
    let db = mk () in
    D.put db ~tid:0 ~key:"k" ~value:"v";
    Alcotest.(check bool) "delete present" true (D.delete db ~tid:0 "k");
    Alcotest.(check (option string)) "gone" None (D.get db ~tid:0 "k");
    Alcotest.(check bool) "delete absent" false (D.delete db ~tid:0 "k")

  let test_empty_value_and_binary_keys () =
    let db = mk () in
    D.put db ~tid:0 ~key:"empty" ~value:"";
    Alcotest.(check (option string)) "empty value" (Some "") (D.get db ~tid:0 "empty");
    let weird = "\x00\x01\xffkey" in
    D.put db ~tid:0 ~key:weird ~value:"bin";
    Alcotest.(check (option string)) "binary-safe key" (Some "bin")
      (D.get db ~tid:0 weird)

  let test_many_keys_and_fold () =
    let db = mk () in
    let n = 300 in
    for i = 0 to n - 1 do
      D.put db ~tid:0 ~key:(Kv.Db_bench.key_of i)
        ~value:(string_of_int (i * 2))
    done;
    Alcotest.(check int) "count" n (D.count db ~tid:0);
    let sum = D.fold db ~tid:0 ~init:0 (fun acc _ v -> acc + int_of_string v) in
    Alcotest.(check int) "fold sees all values" (n * (n - 1)) sum;
    for i = 0 to n - 1 do
      Alcotest.(check (option string)) "lookup"
        (Some (string_of_int (i * 2)))
        (D.get db ~tid:0 (Kv.Db_bench.key_of i))
    done

  let test_write_batch_atomic () =
    let db = mk () in
    D.put db ~tid:0 ~key:"a" ~value:"old";
    D.write_batch db ~tid:0
      [ ("a", Some "new"); ("b", Some "2"); ("a2", None); ("c", Some "3") ];
    Alcotest.(check (option string)) "batched put" (Some "new") (D.get db ~tid:0 "a");
    Alcotest.(check (option string)) "batched put 2" (Some "2") (D.get db ~tid:0 "b");
    Alcotest.(check (option string)) "batched put 3" (Some "3") (D.get db ~tid:0 "c")

  let test_get_batch () =
    let db = mk () in
    D.put db ~tid:0 ~key:"a" ~value:"1";
    D.put db ~tid:0 ~key:"b" ~value:"";
    D.put db ~tid:0 ~key:"\x00bin" ~value:"raw";
    Alcotest.(check (list (option string)))
      "request order, misses as None"
      [ Some ""; None; Some "1"; Some "raw"; Some "1" ]
      (D.get_batch db ~tid:0 [ "b"; "nope"; "a"; "\x00bin"; "a" ]);
    Alcotest.(check (list (option string))) "empty batch" []
      (D.get_batch db ~tid:0 [])

  let test_crash_durability () =
    let db = mk () in
    for i = 0 to 99 do
      D.put db ~tid:0 ~key:(Kv.Db_bench.key_of i) ~value:(string_of_int i)
    done;
    for i = 0 to 99 do
      if i mod 3 = 0 then ignore (D.delete db ~tid:0 (Kv.Db_bench.key_of i))
    done;
    let recovery_s = D.crash_and_recover db in
    Alcotest.(check bool) "recovery measured" true (recovery_s >= 0.);
    for i = 0 to 99 do
      let expect = if i mod 3 = 0 then None else Some (string_of_int i) in
      Alcotest.(check (option string)) "durable entry" expect
        (D.get db ~tid:0 (Kv.Db_bench.key_of i))
    done;
    (* usable after recovery *)
    D.put db ~tid:0 ~key:"post" ~value:"crash";
    Alcotest.(check (option string)) "writable after recovery" (Some "crash")
      (D.get db ~tid:0 "post")

  let test_repeated_crashes () =
    let db = mk () in
    for round = 0 to 2 do
      for i = 0 to 30 do
        D.put db ~tid:0
          ~key:(Kv.Db_bench.key_of ((round * 100) + i))
          ~value:"x"
      done;
      ignore (D.crash_and_recover db)
    done;
    Alcotest.(check int) "all rounds durable" 93 (D.count db ~tid:0)

  let test_concurrent_writers () =
    let db = mk () in
    let per = 50 in
    let ds =
      List.init 3 (fun w ->
          Domain.spawn (fun () ->
              for i = 0 to per - 1 do
                D.put db ~tid:w
                  ~key:(Kv.Db_bench.key_of ((w * 1000) + i))
                  ~value:(string_of_int w)
              done))
    in
    List.iter Domain.join ds;
    Alcotest.(check int) "all present" (3 * per) (D.count db ~tid:0);
    ignore (D.crash_and_recover db);
    Alcotest.(check int) "all durable" (3 * per) (D.count db ~tid:0)

  let test_read_while_writing () =
    let db = mk () in
    for i = 0 to 49 do
      D.put db ~tid:0 ~key:(Kv.Db_bench.key_of i) ~value:"v0"
    done;
    let stop = Atomic.make false in
    let bad = Atomic.make false in
    let readers =
      List.init 2 (fun w ->
          Domain.spawn (fun () ->
              let st = Random.State.make [| w |] in
              while not (Atomic.get stop) do
                let k = Kv.Db_bench.key_of (Random.State.int st 50) in
                match D.get db ~tid:(w + 1) k with
                | Some _ -> ()
                | None -> Atomic.set bad true
              done))
    in
    for round = 1 to 40 do
      let k = Kv.Db_bench.key_of (round mod 50) in
      D.put db ~tid:0 ~key:k ~value:(Printf.sprintf "v%d" round)
    done;
    Atomic.set stop true;
    List.iter Domain.join readers;
    Alcotest.(check bool) "reads always see a value" false (Atomic.get bad)

  let qcheck_model =
    QCheck.Test.make ~name:(D.name ^ " matches Hashtbl model") ~count:20
      QCheck.(list (pair (int_bound 40) (option (string_of_size (Gen.return 8)))))
    @@ fun ops ->
    let db = mk () in
    let model = Hashtbl.create 64 in
    List.iter
      (fun (ki, v) ->
        let key = Kv.Db_bench.key_of ki in
        match v with
        | Some value ->
            D.put db ~tid:0 ~key ~value;
            Hashtbl.replace model key value
        | None ->
            ignore (D.delete db ~tid:0 key);
            Hashtbl.remove model key)
      ops;
    ignore (D.crash_and_recover db);
    Hashtbl.fold
      (fun k v acc -> acc && D.get db ~tid:0 k = Some v)
      model
      (D.count db ~tid:0 = Hashtbl.length model)

  let suites =
    [
      ( "db[" ^ D.name ^ "]",
        [
          Alcotest.test_case "put/get" `Quick test_put_get;
          Alcotest.test_case "overwrite" `Quick test_overwrite;
          Alcotest.test_case "delete" `Quick test_delete;
          Alcotest.test_case "empty/binary" `Quick test_empty_value_and_binary_keys;
          Alcotest.test_case "many keys + fold" `Quick test_many_keys_and_fold;
          Alcotest.test_case "write batch" `Quick test_write_batch_atomic;
          Alcotest.test_case "get batch" `Quick test_get_batch;
          Alcotest.test_case "crash durability" `Quick test_crash_durability;
          Alcotest.test_case "repeated crashes" `Quick test_repeated_crashes;
          Alcotest.test_case "concurrent writers" `Slow test_concurrent_writers;
          Alcotest.test_case "read while writing" `Slow test_read_while_writing;
          QCheck_alcotest.to_alcotest qcheck_model;
        ] );
    ]
end

(* RedoDB-specific: cursor iteration over a consistent snapshot. *)

(* Every entry left from the cursor's position on. *)
let cursor_entries c =
  let rec go acc =
    match Kv.Redodb.entry c with
    | None -> List.rev acc
    | Some kv -> ignore (Kv.Redodb.next c); go (kv :: acc)
  in
  go []

let test_cursor_ordered_iteration () =
  let db = Kv.Redodb.open_db ~num_threads:2 ~capacity_bytes:(1 lsl 17) () in
  List.iter
    (fun (k, v) -> Kv.Redodb.put db ~tid:0 ~key:k ~value:v)
    [ ("b", "2"); ("d", "4"); ("a", "1"); ("c", "3") ];
  Alcotest.(check (list (pair string string)))
    "sorted by key"
    [ ("a", "1"); ("b", "2"); ("c", "3"); ("d", "4") ]
    (cursor_entries (Kv.Redodb.seek db ~tid:0 ""))

let test_cursor_seek_prefix () =
  let db = Kv.Redodb.open_db ~num_threads:2 ~capacity_bytes:(1 lsl 17) () in
  List.iter
    (fun k -> Kv.Redodb.put db ~tid:0 ~key:k ~value:k)
    [ "apple"; "banana"; "blueberry"; "cherry" ];
  let c = Kv.Redodb.seek db ~tid:0 "b" in
  (match Kv.Redodb.entry c with
  | Some (k, _) -> Alcotest.(check string) "first under b" "banana" k
  | None -> Alcotest.fail "expected an entry");
  Alcotest.(check bool) "second exists" true (Kv.Redodb.next c);
  (match Kv.Redodb.entry c with
  | Some (k, _) -> Alcotest.(check string) "next" "blueberry" k
  | None -> Alcotest.fail "expected blueberry");
  Alcotest.(check bool) "exhausted: cherry is not under b" false (Kv.Redodb.next c);
  Alcotest.(check bool) "entry none" true (Kv.Redodb.entry c = None)

(* Model check of the prefix contract: [seek p] yields exactly the
   entries whose key starts with [p], key-sorted.  Keys are binary, 0-20
   bytes, rich in '\000' (which packs like the zero padding of a
   partial word); prefixes are 0-17 bytes, so they end inside, on and
   just past the 8-byte word boundaries of the packed compare.  Around
   each prefix sit the keys that catch a wrong compare: the prefix
   itself, every key shorter than it that it starts with (the length
   test), every one-byte variant of it (the kept bytes of the masked
   last word), and longer keys under it (the masked-off bytes). *)
let test_cursor_seek_model () =
  let st = Random.State.make [| 42 |] in
  let alphabet = "\000\001a\255" in
  let rand_string n = String.init n (fun _ -> alphabet.[Random.State.int st 4]) in
  for _round = 1 to 3 do
    let db = Kv.Redodb.open_db ~num_threads:2 ~capacity_bytes:(1 lsl 18) () in
    let model = Hashtbl.create 1024 in
    let put k =
      let v = "v" ^ k in
      Kv.Redodb.put db ~tid:0 ~key:k ~value:v;
      Hashtbl.replace model k v
    in
    let prefixes =
      List.concat_map
        (fun plen ->
          let p = rand_string plen in
          if plen = 0 then [ p ] else [ p; rand_string (plen - 1) ^ "\000" ])
        (List.init 18 Fun.id)
    in
    List.iter
      (fun p ->
        let plen = String.length p in
        let tail () = rand_string (Random.State.int st (21 - plen)) in
        put p;
        for j = 0 to plen - 1 do
          put (String.sub p 0 j);
          let b = Bytes.of_string p in
          Bytes.set b j (Char.chr ((Char.code p.[j] + 1) land 0xff));
          put (Bytes.to_string b ^ tail ())
        done;
        put (p ^ tail ());
        put (p ^ tail ()))
      prefixes;
    for _ = 1 to 100 do
      put (rand_string (Random.State.int st 21))
    done;
    List.iter
      (fun p ->
        let want =
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []
          |> List.filter (fun (k, _) -> String.starts_with ~prefix:p k)
          |> List.sort compare
        in
        Alcotest.(check (list (pair string string)))
          (Printf.sprintf "seek %S" p)
          want
          (cursor_entries (Kv.Redodb.seek db ~tid:0 p)))
      prefixes
  done

let test_cursor_is_snapshot () =
  let db = Kv.Redodb.open_db ~num_threads:2 ~capacity_bytes:(1 lsl 17) () in
  Kv.Redodb.put db ~tid:0 ~key:"k1" ~value:"v1";
  let c = Kv.Redodb.seek db ~tid:0 "" in
  (* mutations after seek must not affect the cursor *)
  Kv.Redodb.put db ~tid:0 ~key:"k0" ~value:"v0";
  ignore (Kv.Redodb.delete db ~tid:0 "k1");
  (match Kv.Redodb.entry c with
  | Some (k, v) ->
      Alcotest.(check (pair string string)) "snapshot entry" ("k1", "v1") (k, v)
  | None -> Alcotest.fail "snapshot lost");
  Alcotest.(check bool) "snapshot has exactly one entry" false (Kv.Redodb.next c)

(* RedoDB-specific: the lines a write flushes.  One thread over 20k
   preloaded keys with redobench-shaped 64-byte values ("P<writer>.<seq>;"
   padded with 'x').  An overwrite of the same length keeps its block and
   is rewritten in place, storing only the words that change (here the
   one or two words the "P<writer>.<seq>;" head spans).  The block swap it replaced also stored the
   allocator's free-list head and live count, the block header and link
   words and the chain node's value pointer: 10 lines per overwrite and
   100 per batch of 16.  Every line a transaction stores is flushed on
   its replica and again when the next transaction replays its log onto
   the other one. *)
let test_flush_budget () =
  let db = Kv.Redodb.open_db ~num_threads:1 ~capacity_bytes:(8 lsl 20) () in
  let keys = 20_000 in
  let key i = Printf.sprintf "k%06d" i in
  let value writer seq =
    let head = Printf.sprintf "P%d.%d;" writer seq in
    head ^ String.make (64 - String.length head) 'x'
  in
  for b = 0 to (keys / 1000) - 1 do
    Kv.Redodb.write_batch db ~tid:0
      (List.init 1000 (fun j -> (key ((b * 1000) + j), Some (value 0 ((b * 1000) + j)))))
  done;
  let rng = Random.State.make [| 7 |] in
  let any_key () = key (Random.State.int rng keys) in
  (* per-transaction pwbs and fences; the first transactions after the
     preload replay its batches onto the other replica, so they are run
     before the counters are reset *)
  let per_tx ~txs f =
    for i = 1 to 8 do f (-i) done;
    Kv.Redodb.reset_stats db;
    for i = 1 to txs do f i done;
    let s = Kv.Redodb.stats db in
    let per n = float_of_int n /. float_of_int txs in
    (per s.Pmem.Stats.pwb, per (Pmem.Stats.fences s))
  in
  let live = Kv.Redodb.live_words db ~tid:0 in
  let single_pwb, single_fences =
    per_tx ~txs:400 (fun i -> Kv.Redodb.put db ~tid:0 ~key:(any_key ()) ~value:(value 1 i))
  in
  let batch_pwb, batch_fences =
    per_tx ~txs:100 (fun i ->
        Kv.Redodb.write_batch db ~tid:0
          (List.init 16 (fun j -> (any_key (), Some (value 2 ((16 * i) + j))))))
  in
  Alcotest.(check int) "overwrites allocate nothing" live (Kv.Redodb.live_words db ~tid:0);
  let at_most what budget got =
    if got > budget then Alcotest.failf "%s: %.2f pwb, budget %.1f" what got budget
  in
  at_most "same-class overwrite" 5. single_pwb;
  at_most "batch of 16 overwrites" 40. batch_pwb;
  Alcotest.(check (float 0.)) "fences per overwrite" 2. single_fences;
  Alcotest.(check (float 0.)) "fences per batch" 2. batch_fences

let flush_suites =
  [
    ( "db[RedoDB]-flush",
      [ Alcotest.test_case "flush budget of an overwrite" `Quick test_flush_budget ] );
  ]

let cursor_suites =
  [
    ( "db[RedoDB]-cursor",
      [
        Alcotest.test_case "ordered iteration" `Quick test_cursor_ordered_iteration;
        Alcotest.test_case "seek prefix" `Quick test_cursor_seek_prefix;
        Alcotest.test_case "seek prefix vs model" `Quick test_cursor_seek_model;
        Alcotest.test_case "snapshot isolation" `Quick test_cursor_is_snapshot;
      ] );
  ]
