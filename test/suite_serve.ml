(* Tests for the serving layer (lib/serve): wire-protocol round-trips,
   shard-router correctness against a model, deterministic batch
   formation under the cooperative scheduler, the stalled-client and
   overload adversaries, mid-batch crash atomicity, the cross-shard
   two-phase commit (phase-boundary crash sweep, guard-dropping mutants,
   snapshot-read consistency, stalled-coordinator helping), and a
   loopback socket smoke test of the TCP front-end. *)

module E = Serve.Engine
module P = Serve.Protocol
module C = Serve.Commit
module H = Serve.Health

let small_engine ?(shards = 2) ?(num_threads = 4) ?(batch = true) ?(max_batch = 4)
    ?(linger_us = 0.) ?(queue_cap = 16) ?(isolate = false) ?backing_dir () =
  E.create
    {
      E.shards;
      num_threads;
      capacity_bytes = 1 lsl 16;
      batch;
      max_batch;
      linger_us;
      queue_cap;
      backing_dir;
      isolate;
    }

(* ---- protocol ---- *)

let test_protocol_roundtrip () =
  let reqs =
    [
      P.Ping;
      P.Get "\x00binary\xffkey";
      P.Put ("k with spaces", "");
      P.Put ("", "v\nwith\nnewlines");
      P.Del "k";
      P.Scan { prefix = ""; max = 0 };
      P.Scan { prefix = "user:"; max = 1000 };
      P.Mget [ "a"; "b b"; "" ];
      P.Mput [ ("k1", "v 1"); ("k2", "") ];
      P.Stats;
      P.Crash { seed = 3; evict_prob = 0.5; torn_prob = 0.25; bitflips = 2 };
    ]
  in
  List.iter
    (fun r ->
      match P.decode_req (P.encode_req r) with
      | Ok r' -> Alcotest.(check bool) "req round-trip" true (r = r')
      | Error e -> Alcotest.fail ("req round-trip: " ^ e))
    reqs;
  let resps =
    [
      P.Ok;
      P.Ok_ms 12.5;
      P.Val "x\ny \x00z";
      P.Nil;
      P.Vals [ Some ""; None; Some "v" ];
      P.Kvs [ ("a", "1"); ("b c", "2") ];
      P.Kvs [];
      P.Json "{\"a\": 1}";
      P.Overloaded;
      P.Committed { txid = 17; epoch = 9 };
      P.Committed { txid = 0; epoch = 0 };
      P.Unavail "crashing";
      P.In_doubt 23;
      P.Err "boom with spaces";
    ]
  in
  List.iter
    (fun r ->
      match P.decode_resp (P.encode_resp r) with
      | Ok r' -> Alcotest.(check bool) "resp round-trip" true (r = r')
      | Error e -> Alcotest.fail ("resp round-trip: " ^ e))
    resps

let test_protocol_malformed () =
  let bad_req s =
    match P.decode_req s with
    | Ok _ -> Alcotest.fail (Printf.sprintf "accepted malformed request %S" s)
    | Error _ -> ()
  in
  List.iter bad_req
    [ ""; "NOPE"; "GET"; "PUT 1:a"; "GET 5:ab"; "GET 2:abc extra"; "SCAN 1:a x" ];
  match P.decode_resp "VAL" with
  | Ok _ -> Alcotest.fail "accepted malformed response"
  | Error _ -> ()

(* ---- trace context (RID) and METRICS on the wire ---- *)

let test_rid_roundtrip () =
  let reqs = [ P.Ping; P.Get "k"; P.Mput [ ("a", "1"); ("b", "2") ]; P.Metrics ] in
  List.iter
    (fun r ->
      match P.decode_req_rid (P.encode_req ~rid:7 r) with
      | Ok (rid, r') ->
          Alcotest.(check int) "req rid echoed" 7 rid;
          Alcotest.(check bool) "req preserved under RID" true (r = r')
      | Error e -> Alcotest.fail ("rid req round-trip: " ^ e))
    reqs;
  let resps =
    [ P.Ok; P.Val "v"; P.Committed { txid = 3; epoch = 5 }; P.Text "# x 1\n" ]
  in
  List.iter
    (fun r ->
      match P.decode_resp_rid (P.encode_resp ~rid:9 r) with
      | Ok (rid, r') ->
          Alcotest.(check int) "resp rid echoed" 9 rid;
          Alcotest.(check bool) "resp preserved under RID" true (r = r')
      | Error e -> Alcotest.fail ("rid resp round-trip: " ^ e))
    resps;
  (* rid 0 encodes to the bare frame — full backward compatibility *)
  Alcotest.(check string) "rid 0 is the plain frame" (P.encode_req P.Ping)
    (P.encode_req ~rid:0 P.Ping);
  (match P.decode_req_rid "PING" with
  | Ok (0, P.Ping) -> ()
  | _ -> Alcotest.fail "bare frame should decode with rid 0");
  (* the plain decoder accepts a RID frame and drops the id *)
  (match P.decode_req (P.encode_req ~rid:3 (P.Put ("k", "v"))) with
  | Ok (P.Put ("k", "v")) -> ()
  | _ -> Alcotest.fail "plain decoder should accept and drop RID");
  (* malformed trace contexts are rejected, never silently zeroed *)
  List.iter
    (fun s ->
      match P.decode_req s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted bad RID frame %S" s)
      | Error _ -> ())
    [ "RID 0 PING"; "RID -2 PING"; "RID PING"; "RID 7" ]

let test_metrics_roundtrip () =
  (match P.decode_req (P.encode_req P.Metrics) with
  | Ok P.Metrics -> ()
  | _ -> Alcotest.fail "METRICS request round-trip");
  let body = "# TYPE redodb_epoch gauge\nredodb_epoch 42\n" in
  match P.decode_resp (P.encode_resp (P.Text body)) with
  | Ok (P.Text b) -> Alcotest.(check string) "TEXT payload intact" body b
  | _ -> Alcotest.fail "TEXT response round-trip"

(* ---- shard router vs a model (single-threaded, no scheduler) ---- *)

let test_router_model () =
  let module SM = Map.Make (String) in
  let e = small_engine ~shards:3 ~num_threads:2 () in
  let model = ref SM.empty in
  let ok = function
    | Ok v -> v
    | Error err -> Alcotest.fail (E.pp_error err)
  in
  let st = Random.State.make [| 13 |] in
  for i = 0 to 199 do
    let k = Printf.sprintf "key:%03d" (Random.State.int st 120) in
    if Random.State.int st 5 = 0 then begin
      ok (E.delete e ~tid:0 k);
      model := SM.remove k !model
    end
    else begin
      let v = Printf.sprintf "val%d" i in
      ok (E.put e ~tid:0 ~key:k ~value:v);
      model := SM.add k v !model
    end
  done;
  (* multi_put groups per shard; multi_get must preserve request order *)
  ignore
    (ok
       (E.multi_put e ~tid:0
          [ ("key:000", Some "zero"); ("key:001", None); ("mk", Some "mv") ]));
  model := SM.add "key:000" "zero" (SM.remove "key:001" !model);
  model := SM.add "mk" "mv" !model;
  let asked = [ "mk"; "key:000"; "no-such-key"; "key:002" ] in
  let got = ok (E.multi_get e ~tid:0 asked) in
  Alcotest.(check (list (option string)))
    "multi_get in request order"
    (List.map (fun k -> SM.find_opt k !model) asked)
    got;
  Alcotest.(check int) "count over shards" (SM.cardinal !model) (E.count e ~tid:0);
  let prefix = "key:0" in
  let want =
    SM.bindings !model
    |> List.filter (fun (k, _) -> String.starts_with ~prefix k)
  in
  Alcotest.(check (list (pair string string)))
    "merged scan is key-sorted and complete" want
    (ok (E.scan e ~tid:0 ~prefix ~max:1000));
  let capped = ok (E.scan e ~tid:0 ~prefix ~max:3) in
  Alcotest.(check (list (pair string string)))
    "scan honors max"
    (List.filteri (fun i _ -> i < 3) want)
    capped;
  (* keys route to a stable shard, and different shards are actually used *)
  let shards_hit =
    List.sort_uniq compare (List.map (fun (k, _) -> E.shard_of e k) (SM.bindings !model))
  in
  Alcotest.(check bool) "several shards in use" true (List.length shards_hit > 1)

(* Scans over 4 shards that also hold commit metadata: outcome records
   of tokened PUTs and MPUTs, the high-water keys of applied 2PCs, and
   the prepare and decision records of a 2PC cut off right after its
   merged decision (so only the coordinator's slice is applied until a
   reader helps the rest home).  User prefixes of 7 and 8
   bytes become internal prefixes ("u" ^ p) of 8 and 9 bytes: exactly
   one packed word, then a word plus a partial one.  Some user keys
   imitate the metadata namespace, so only the 'u' escape keeps the
   two apart. *)
let test_scan_beside_commit_metadata () =
  let e = small_engine ~shards:4 ~num_threads:2 () in
  let ok what = function
    | Ok v -> v
    | Error err -> Alcotest.fail (what ^ ": " ^ E.pp_error err)
  in
  let model = Hashtbl.create 256 in
  let families =
    [| "grp0001"; "grp00012"; "grp000"; "grp0002"; "m!o!000"; "m!p!0000"; "m!he" |]
  in
  let st = Random.State.make [| 7 |] in
  let key i =
    let f = families.(i mod Array.length families) in
    if Random.State.int st 4 = 0 then f else f ^ string_of_int (Random.State.int st 300)
  in
  for i = 0 to 139 do
    let k = key i and v = Printf.sprintf "v%d" i in
    match i mod 3 with
    | 0 ->
        ok "put" (E.put e ~tid:0 ~key:k ~value:v);
        Hashtbl.replace model k v
    | 1 ->
        ok "tokened put" (E.put ~tok:(1000 + i) e ~tid:0 ~key:k ~value:v);
        Hashtbl.replace model k v
    | _ ->
        let k2 = key (i + 1) in
        let kvs = if k2 = k then [ (k, v) ] else [ (k, v); (k2, v ^ "b") ] in
        ignore
          (ok "tokened mput"
             (E.multi_put ~tok:(1000 + i) e ~tid:0
                (List.map (fun (k, v) -> (k, Some v)) kvs)));
        List.iter (fun (k, v) -> Hashtbl.replace model k v) kvs
  done;
  (* A writer that dies just after its merged decision: shard 1 holds a
     prepare, shard 0 the decision and outcome records and its own slice,
     and the transaction sits unconfirmed in the registry.  It is
     committed, so the model holds it, and the scans below — the first
     reads since the crash, with no recovery — must settle it by the
     decision record and return it whole. *)
  let on shard tag =
    let rec go i =
      let k = tag ^ string_of_int i in
      if E.shard_of e k = shard then k else go (i + 1)
    in
    go 0
  in
  let cut = [ (on 0 "grp0001", "cut"); (on 1 "grp00012", "cut") ] in
  C.set_crash_after (E.commit e) (Some C.Decide);
  (match E.multi_put ~tok:99 e ~tid:0 (List.map (fun (k, v) -> (k, Some v)) cut) with
  | exception C.Injected_crash _ -> ()
  | _ -> Alcotest.fail "expected the injected crash after the decision");
  List.iter (fun (k, v) -> Hashtbl.replace model k v) cut;
  List.iter
    (fun (prefix, max) ->
      let want =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []
        |> List.filter (fun (k, _) -> String.starts_with ~prefix k)
        |> List.sort compare
        |> List.filteri (fun i _ -> i < max)
      in
      Alcotest.(check (list (pair string string)))
        (Printf.sprintf "scan %S max %d" prefix max)
        want
        (ok "scan" (E.scan e ~tid:0 ~prefix ~max)))
    [
      ("grp0001", 1000); ("grp0001", 5); ("grp00012", 1000); ("grp00012", 3);
      ("m!o!000", 1000); ("m!p!0000", 1000); ("m!he", 2); ("", 1000); ("", 7);
    ];
  (match (E.txstat e ~tid:0 1001, E.txstat e ~tid:0 1002, E.txstat e ~tid:0 99) with
  | ( Ok (Serve.Ledger.Tx_committed { records = 1; _ }),
      Ok (Serve.Ledger.Tx_committed { records = 1; _ }),
      Ok (Serve.Ledger.Tx_committed { records = 1; _ }) ) -> ()
  | _ -> Alcotest.fail "every token must have left exactly one outcome record");
  Alcotest.(check int) "count excludes metadata" (Hashtbl.length model) (E.count e ~tid:0);
  let decided, applied = C.stats (E.commit e) in
  Alcotest.(check int) "the dead writer's commit was claimed" decided applied

(* ---- deterministic batch formation under the scheduler ---- *)

let status_strings r =
  Array.to_list
    (Array.map (fun s -> Format.asprintf "%a" Sched.pp_status s) r.Sched.statuses)

(* Fingerprint of a scheduled serving run: scheduler steps, fiber
   statuses, global ack order, and per-shard committed batch sizes must
   be a pure function of the schedule seed. *)
let serve_fingerprint ~seed () =
  let e = small_engine ~linger_us:4. () in
  let ack_seq = Stdlib.Atomic.make 0 in
  let per_fiber = 3 in
  let acks = Array.make (4 * per_fiber) (-1) in
  let body fid =
    for i = 0 to per_fiber - 1 do
      match
        E.put e ~tid:fid
          ~key:(Printf.sprintf "f%d-%d" fid i)
          ~value:(Printf.sprintf "v%d.%d" fid i)
      with
      | Ok () ->
          acks.((fid * per_fiber) + i) <- Sched.Atomic.fetch_and_add ack_seq 1
      | Error _ -> ()
    done
  in
  let r = Sched.run ~seed ~num_fibers:4 body in
  ( r.Sched.steps,
    status_strings r,
    Array.to_list acks,
    E.batch_sizes e ~shard:0,
    E.batch_sizes e ~shard:1 )

let test_batch_determinism () =
  let a = serve_fingerprint ~seed:21 () in
  let b = serve_fingerprint ~seed:21 () in
  Alcotest.(check bool)
    "same seed: same steps, statuses, ack order, batch sizes" true (a = b);
  let c = serve_fingerprint ~seed:22 () in
  Alcotest.(check bool) "different seed: different schedule" true (a <> c);
  let steps, statuses, acks, b0, b1 = a in
  Alcotest.(check bool) "run completed" true (steps > 0);
  List.iter (fun s -> Alcotest.(check string) "all finished" "finished" s) statuses;
  Alcotest.(check bool) "every op acked" true
    (List.for_all (fun x -> x >= 0) acks);
  Alcotest.(check int) "batches cover all ops" 12
    (List.fold_left ( + ) 0 b0 + List.fold_left ( + ) 0 b1);
  Alcotest.(check bool) "group commit coalesced some batch" true
    (List.exists (fun s -> s > 1) (b0 @ b1))

(* A stalled client must not block other clients' batches: stall fiber 0
   at a sweep of steps (deferred while it is leader / holds the stage
   lock, so the stall always lands on a *waiting* client); every other
   fiber must still finish and its writes must be durable.  If the stall
   lands after the victim enqueued, some other leader commits the
   victim's op — the helped case, which must occur somewhere in the
   sweep. *)
let test_stalled_client_adversary () =
  let helped = ref false in
  let landed = ref false in
  List.iter
    (fun at ->
      let e = small_engine ~shards:1 ~linger_us:6. () in
      let body fid =
        let n = if fid = 0 then 1 else 3 in
        for i = 0 to n - 1 do
          ignore
            (E.put e ~tid:fid
               ~key:(Printf.sprintf "f%d-%d" fid i)
               ~value:"v")
        done
      in
      let r =
        Sched.run ~seed:31
          ~injections:[ Sched.Stall { tid = 0; at_step = at; duration = None } ]
          ~hazard:(fun fid -> E.stall_hazard e ~tid:fid)
          ~num_fibers:4 body
      in
      let statuses = status_strings r in
      List.iteri
        (fun fid s ->
          if fid > 0 then
            Alcotest.(check string)
              (Printf.sprintf "fiber %d finished despite stall@%d" fid at)
              "finished" s)
        statuses;
      for fid = 1 to 3 do
        for i = 0 to 2 do
          match E.get e ~tid:1 (Printf.sprintf "f%d-%d" fid i) with
          | Ok (Some "v") -> ()
          | _ ->
              Alcotest.fail
                (Printf.sprintf "stall@%d lost f%d-%d of an unstalled client" at
                   fid i)
        done
      done;
      if List.nth statuses 0 = "stalled" then begin
        landed := true;
        match E.get e ~tid:1 "f0-0" with
        | Ok (Some _) -> helped := true
        | _ -> ()
      end)
    [ 5; 15; 30; 60; 120; 240 ];
  Alcotest.(check bool) "some stall actually landed" true !landed;
  Alcotest.(check bool)
    "a waiting victim's op was committed by another leader" true !helped

(* Crash at an arbitrary scheduler step, drop all volatile batching
   state, recover every shard through the media-fault path: each drained
   batch (logged before its commit) must be all-or-nothing, surviving
   values must be exact, and every acknowledged write must be durable. *)
let test_midbatch_crash_atomicity () =
  List.iter
    (fun stop ->
      let e = small_engine ~num_threads:3 ~max_batch:3 ~linger_us:3. () in
      let per_fiber = 4 in
      let acked = Array.make (3 * per_fiber) false in
      let key fid i = Printf.sprintf "f%d-%d" fid i in
      let value fid i = Printf.sprintf "V%d.%d" fid i in
      let body fid =
        for i = 0 to per_fiber - 1 do
          match E.put e ~tid:fid ~key:(key fid i) ~value:(value fid i) with
          | Ok () -> acked.((fid * per_fiber) + i) <- true
          | Error _ -> ()
        done
      in
      ignore (Sched.run ~seed:5 ~stop_at:stop ~num_fibers:3 body);
      let attempted =
        List.concat
          (List.init (E.shards e) (fun s -> E.attempted_batches e ~shard:s))
      in
      (match
         E.crash_hard_with_faults e ~seed:(100 + stop) ~evict_prob:0.5
           ~torn_prob:0.3 ~bitflips:0
       with
      | Ok _ -> ()
      | Error d ->
          Alcotest.fail (Printf.sprintf "stop@%d: flip-free recovery failed: %s" stop d));
      (* all-or-nothing per attempted batch (keys are written once, so a
         key's presence tells whether its batch's transaction committed) *)
      List.iter
        (fun batch ->
          let present =
            List.length
              (List.filter
                 (fun k ->
                   match E.get e ~tid:0 k with Ok (Some _) -> true | _ -> false)
                 batch)
          in
          Alcotest.(check bool)
            (Printf.sprintf "stop@%d: batch committed atomically (%d/%d)" stop
               present (List.length batch))
            true
            (present = 0 || present = List.length batch))
        attempted;
      (* acked => durable with the exact value; survivors are unmangled *)
      for fid = 0 to 2 do
        for i = 0 to per_fiber - 1 do
          match E.get e ~tid:0 (key fid i) with
          | Ok (Some v) ->
              Alcotest.(check string)
                (Printf.sprintf "stop@%d: value of %s" stop (key fid i))
                (value fid i) v
          | Ok None ->
              if acked.((fid * per_fiber) + i) then
                Alcotest.fail
                  (Printf.sprintf "stop@%d: acked write %s lost" stop (key fid i))
          | Error err -> Alcotest.fail (E.pp_error err)
        done
      done)
    [ 10; 25; 40; 60; 90; 130; 200; 300 ]

(* Bounded-queue admission control: with a long linger and a tiny queue,
   excess clients get an immediate Overloaded — and the rejection counter
   matches. *)
let test_overload_backpressure () =
  let was_on = Obs.Metrics.is_on () in
  Obs.Metrics.enable true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.enable was_on) @@ fun () ->
  let c = Obs.Metrics.counter "serve.overload_rejections" in
  let before = Obs.Metrics.counter_value c in
  let e =
    small_engine ~shards:1 ~num_threads:6 ~max_batch:4 ~linger_us:50.
      ~queue_cap:2 ()
  in
  let outcomes = Array.make 6 `Pending in
  let body fid =
    outcomes.(fid) <-
      (match E.put e ~tid:fid ~key:(Printf.sprintf "k%d" fid) ~value:"v" with
      | Ok () -> `Acked
      | Error E.Overloaded -> `Overloaded
      | Error (E.Unavailable _ | E.In_doubt _ | E.Timed_out | E.Shard_down _)
        -> `Unavailable)
  in
  let r = Sched.run ~seed:3 ~num_fibers:6 body in
  List.iter (fun s -> Alcotest.(check string) "no fiber wedged" "finished" s)
    (status_strings r);
  let rejected =
    Array.to_list outcomes |> List.filter (fun o -> o = `Overloaded) |> List.length
  in
  let acked =
    Array.to_list outcomes |> List.filter (fun o -> o = `Acked) |> List.length
  in
  Alcotest.(check bool) "some client was rejected" true (rejected >= 1);
  Alcotest.(check bool) "admitted clients were served" true (acked >= 1);
  Alcotest.(check int) "every client got a definite answer" 6 (rejected + acked);
  Alcotest.(check int) "rejection counter matches" rejected
    (Obs.Metrics.counter_value c - before);
  (* rejected writes were never applied *)
  Array.iteri
    (fun fid o ->
      let present =
        match E.get e ~tid:0 (Printf.sprintf "k%d" fid) with
        | Ok (Some _) -> true
        | _ -> false
      in
      match o with
      | `Acked -> Alcotest.(check bool) "acked key present" true present
      | `Overloaded -> Alcotest.(check bool) "rejected key absent" false present
      | _ -> ())
    outcomes

(* Real domains: concurrent writers racing a whole-engine power failure.
   Every write acknowledged before, during or after the outage must be
   durable afterwards. *)
let test_domain_crash_under_load () =
  let e = small_engine ~num_threads:4 () in
  let writers = 3 and per_writer = 40 in
  let acked = Array.init writers (fun _ -> Array.make per_writer false) in
  let key w i = Printf.sprintf "w%d:%03d" w i in
  let doms =
    List.init writers (fun w ->
        Domain.spawn (fun () ->
            for i = 0 to per_writer - 1 do
              match E.put e ~tid:(w + 1) ~key:(key w i) ~value:(string_of_int i) with
              | Ok () -> acked.(w).(i) <- true
              | Error _ -> Domain.cpu_relax ()
            done))
  in
  Unix.sleepf 0.0005;
  (match
     E.crash_with_faults e ~tid:0 ~seed:9 ~evict_prob:0.5 ~torn_prob:0.3
       ~bitflips:0
   with
  | Ok dt -> Alcotest.(check bool) "outage took time" true (dt >= 0.)
  | Error d -> Alcotest.fail ("flip-free recovery failed: " ^ d));
  List.iter Domain.join doms;
  for w = 0 to writers - 1 do
    for i = 0 to per_writer - 1 do
      if acked.(w).(i) then
        match E.get e ~tid:0 (key w i) with
        | Ok (Some v) ->
            Alcotest.(check string) (key w i ^ " value") (string_of_int i) v
        | _ -> Alcotest.fail (Printf.sprintf "acked write %s lost" (key w i))
    done
  done

(* ---- cross-shard two-phase commit ---- *)

let okc = function
  | Ok v -> v
  | Error err -> Alcotest.fail (E.pp_error err)

(* A key owned by [shard], found by probing "<tag><n>". *)
let key_on e shard tag =
  let rec go i =
    let k = Printf.sprintf "%s%d" tag i in
    if E.shard_of e k = shard then k else go (i + 1)
  in
  go 0

let present e k =
  match E.get e ~tid:0 k with Ok (Some v) -> Some v | _ -> None

(* Crash at every 2PC phase boundary ({!C.phases}) of a multi_put over
   two and over three shards, recover hard, and audit exact
   all-or-nothing: before the merged decision the transaction must
   vanish entirely; from the decision on it must be rolled forward
   entirely.  The engine must stay usable afterwards. *)
let test_commit_phase_crash_sweep () =
  List.iter
    (fun shards ->
      let phases =
        C.phases (E.commit (small_engine ~shards ())) ~participants:shards
      in
      Alcotest.(check int)
        (Printf.sprintf "%d shards: 2P boundaries" shards)
        (2 * shards) (List.length phases);
      List.iteri
        (fun round phase ->
          let e = small_engine ~shards ~num_threads:2 () in
          let name what =
            Printf.sprintf "%d shards, crash@%s: %s" shards (C.pp_phase phase) what
          in
          okc (E.put e ~tid:0 ~key:"base" ~value:"b");
          let kvs = List.init shards (fun s -> (key_on e s "k", Printf.sprintf "v%d" s)) in
          let keys = List.map fst kvs in
          C.set_crash_after (E.commit e) (Some phase);
          (match E.multi_put e ~tid:0 (List.map (fun (k, v) -> (k, Some v)) kvs) with
          | exception C.Injected_crash p ->
              Alcotest.(check string) (name "crashed at the armed boundary")
                (C.pp_phase phase) (C.pp_phase p)
          | Ok _ -> Alcotest.fail (name "expected an injected crash")
          | Error err -> Alcotest.fail (name (E.pp_error err)));
          (match
             E.crash_hard_with_faults e ~seed:(500 + round) ~evict_prob:0.5
               ~torn_prob:0.3 ~bitflips:0
           with
          | Ok _ -> ()
          | Error d -> Alcotest.fail (name ("recovery failed: " ^ d)));
          let committed = match phase with C.Prepare _ -> false | _ -> true in
          Alcotest.(check (list (option string)))
            (name "exact all-or-nothing across shards")
            (List.map (fun (_, v) -> if committed then Some v else None) kvs)
            (List.map (present e) keys);
          Alcotest.(check (option string)) (name "unrelated key intact") (Some "b")
            (present e "base");
          Alcotest.(check int) (name "user-key count excludes commit metadata")
            (if committed then shards + 1 else 1)
            (E.count e ~tid:0);
          (* post-recovery the engine commits fresh cross-shard transactions *)
          let ack = okc (E.multi_put e ~tid:0 (List.map (fun k -> (k, Some "Z")) keys)) in
          Alcotest.(check bool) (name "post-recovery commit acked") true
            (ack.E.txid > 0 && ack.E.epoch > 0);
          Alcotest.(check (list (option string)))
            (name "post-recovery commit applied")
            (List.map (fun _ -> Some "Z") keys)
            (List.map (present e) keys))
        phases)
    [ 2; 3 ]

(* Commit epochs in acks are strictly monotone, and survive a hard crash
   through the slot records: the epoch source never regresses below any
   acked cross-shard commit — also when the coordinator rots and is
   quarantined at recovery, so that only its participants' prepare
   slots, rewritten idle with each commit epoch, can carry the epochs
   (checked after MPUTs over shards 0 and 1 and over 0 and 2). *)
let test_commit_epoch_monotone_hidden_coordinator () =
  List.iter
    (fun other ->
      let e = small_engine ~shards:3 ~num_threads:2 ~isolate:true () in
      let k s tag = key_on e s (Printf.sprintf "%s%d" tag other) in
      let name what = Printf.sprintf "MPUTs over 0 and %d: %s" other what in
      let last =
        List.fold_left
          (fun _ i ->
            (okc
               (E.multi_put e ~tid:0
                  [ (k 0 "a", Some (string_of_int i)); (k other "b", Some (string_of_int i)) ]))
              .E.epoch)
          0 (List.init 5 Fun.id)
      in
      E.corrupt_shard e 0 ~seed:13 ~count:16;
      (match E.crash_hard_with_faults e ~seed:78 ~evict_prob:0. ~torn_prob:0. ~bitflips:0 with
      | Ok _ -> ()
      | Error d -> Alcotest.fail (name d));
      let state, _, _ = H.shard (E.health e) 0 in
      Alcotest.(check string) (name "the coordinator is quarantined") "quarantined" state;
      Alcotest.(check bool) (name "epoch source survives without the coordinator") true
        (C.current_epoch (E.commit e) >= last);
      let ack = okc (E.multi_put e ~tid:0 [ (k 1 "c", Some "z"); (k 2 "d", Some "z") ]) in
      Alcotest.(check bool) (name "an MPUT beside the quarantine acks a later epoch") true
        (ack.E.epoch > last);
      (match E.rebuild_shard e ~tid:0 0 with
      | Ok () -> ()
      | Error d -> Alcotest.fail (name ("rebuild: " ^ d)));
      let again = okc (E.multi_put e ~tid:0 [ (k 0 "a", Some "y"); (k other "b", Some "y") ]) in
      Alcotest.(check bool) (name "after the rebuild, epochs still rise") true
        (again.E.epoch > ack.E.epoch))
    [ 1; 2 ]

let test_commit_epoch_monotone () =
  let e = small_engine ~shards:2 ~num_threads:2 () in
  let ka = key_on e 0 "a" and kb = key_on e 1 "b" in
  let epochs =
    List.init 5 (fun i ->
        (okc
           (E.multi_put e ~tid:0
              [ (ka, Some (string_of_int i)); (kb, Some (string_of_int i)) ]))
          .E.epoch)
  in
  let rec strictly_up = function
    | a :: (b :: _ as rest) -> a < b && strictly_up rest
    | _ -> true
  in
  Alcotest.(check bool) "ack epochs strictly increase" true (strictly_up epochs);
  let last = List.nth epochs 4 in
  (match
     E.crash_hard_with_faults e ~seed:77 ~evict_prob:0.5 ~torn_prob:0.3
       ~bitflips:0
   with
  | Ok _ -> ()
  | Error d -> Alcotest.fail d);
  Alcotest.(check bool) "epoch source survives the crash" true
    (C.current_epoch (E.commit e) >= last);
  let ack = okc (E.multi_put e ~tid:0 [ (ka, Some "z"); (kb, Some "z") ]) in
  Alcotest.(check bool) "post-crash epoch above every acked epoch" true
    (ack.E.epoch > last);
  test_commit_epoch_monotone_hidden_coordinator ()

(* Guard-dropping mutants: each demonstrates the violation class its
   guard prevents, and the clean protocol is shown immune on the same
   schedule.  Skip_2pc: a crash between per-shard commits leaves a
   durable prefix of the write set. *)
let test_mutant_skip_2pc () =
  let run ~mutants =
    let e = small_engine ~shards:2 ~num_threads:2 () in
    E.set_mutants e mutants;
    let ka = key_on e 0 "a" and kb = key_on e 1 "b" in
    (* seed both keys, then crash an overwriting MPUT between shards *)
    ignore (okc (E.multi_put e ~tid:0 [ (ka, Some "va"); (kb, Some "vb") ]));
    C.set_crash_after (E.commit e) (Some (C.Prepare 1));
    (match E.multi_put e ~tid:0 [ (ka, Some "VA"); (kb, Some "VB") ] with
    | exception C.Injected_crash _ -> ()
    | Ok _ -> Alcotest.fail "expected an injected crash"
    | Error err -> Alcotest.fail (E.pp_error err));
    (match
       E.crash_hard_with_faults e ~seed:31 ~evict_prob:0.5 ~torn_prob:0.3
         ~bitflips:0
     with
    | Ok _ -> ()
    | Error d -> Alcotest.fail d);
    (present e ka, present e kb)
  in
  (* mutant: shard 1's slice committed alone, ahead of the coordinator's
     — the partial commit the sweep must catch *)
  Alcotest.(check (pair (option string) (option string)))
    "skip-2pc leaves a durable part"
    (Some "va", Some "VB")
    (run ~mutants:[ C.Skip_2pc ]);
  (* clean protocol, same crash point: all-or-nothing (the second MPUT
     vanishes — its prepare was rolled back) *)
  Alcotest.(check (pair (option string) (option string)))
    "real protocol rolls the prepared slice back"
    (Some "va", Some "vb")
    (run ~mutants:[])

(* No_rollforward: acking at the decision record is only sound if
   recovery completes in-doubt commits; dropping roll-forward
   half-applies an ACKED multi_put — the coordinator's slice committed
   with the decision, the participant's prepared slice is rolled back. *)
let test_mutant_no_rollforward () =
  let e = small_engine ~shards:2 ~num_threads:2 () in
  E.set_mutants e [ C.No_rollforward ];
  let ka = key_on e 0 "a" and kb = key_on e 1 "b" in
  let ack = okc (E.multi_put e ~tid:0 [ (ka, Some "va"); (kb, Some "vb") ]) in
  Alcotest.(check bool) "mutant acked the commit" true (ack.E.txid > 0);
  (match
     E.crash_hard_with_faults e ~seed:32 ~evict_prob:0.5 ~torn_prob:0.3
       ~bitflips:0
   with
  | Ok _ -> ()
  | Error d -> Alcotest.fail d);
  Alcotest.(check (pair (option string) (option string)))
    "acked multi_put half-applied without roll-forward" (Some "va", None)
    (present e ka, present e kb);
  (* clean protocol on the same schedule: the ack survives the crash *)
  let e = small_engine ~shards:2 ~num_threads:2 () in
  let ka = key_on e 0 "a" and kb = key_on e 1 "b" in
  let ack = okc (E.multi_put e ~tid:0 [ (ka, Some "va"); (kb, Some "vb") ]) in
  Alcotest.(check bool) "clean protocol acked" true (ack.E.txid > 0);
  (match
     E.crash_hard_with_faults e ~seed:32 ~evict_prob:0.5 ~torn_prob:0.3
       ~bitflips:0
   with
  | Ok _ -> ()
  | Error d -> Alcotest.fail d);
  Alcotest.(check (pair (option string) (option string)))
    "acked multi_put durable with roll-forward" (Some "va", Some "vb")
    (present e ka, present e kb)

(* Deterministic scheduler: a writer streams cross-shard MPUT pairs
   (same value on both shards) while readers scan.  A consistent scan
   must always see the pair equal; the epoch-validated snapshot
   guarantees it on every seed, and the No_read_validation mutant is
   caught observing a half-applied MPUT somewhere in the same sweep. *)
let scan_partial_violations ~mutants ~seed =
  let e = small_engine ~shards:2 ~num_threads:4 ~linger_us:2. () in
  E.set_mutants e mutants;
  let ka = key_on e 0 "pa" and kb = key_on e 1 "pb" in
  let violations = ref 0 in
  let body fid =
    if fid = 0 then
      for i = 1 to 4 do
        ignore
          (E.multi_put e ~tid:0
             [ (ka, Some (string_of_int i)); (kb, Some (string_of_int i)) ])
      done
    else
      for _ = 1 to 8 do
        match E.scan e ~tid:fid ~prefix:"p" ~max:10 with
        | Ok kvs ->
            if List.assoc_opt ka kvs <> List.assoc_opt kb kvs then
              incr violations
        | Error _ -> ()
      done
  in
  ignore (Sched.run ~seed ~num_fibers:3 body);
  !violations

let scan_seed_sweep = [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12 ]

let test_scan_never_observes_partial_mput () =
  List.iter
    (fun seed ->
      Alcotest.(check int)
        (Printf.sprintf "seed %d: scan saw only whole MPUTs" seed)
        0
        (scan_partial_violations ~mutants:[] ~seed))
    scan_seed_sweep;
  (* the same sweep must be able to catch the dropped guard, or it
     proves nothing *)
  let caught =
    List.exists
      (fun seed ->
        scan_partial_violations ~mutants:[ C.No_read_validation ] ~seed > 0)
      scan_seed_sweep
  in
  Alcotest.(check bool)
    "sweep catches the no-read-validation mutant on some seed" true caught

(* Stall the coordinator at a sweep of steps (deferred while it is
   hazard-protected: leader, registry lock holder, or inside the
   decide->publish window).  Readers must never see a partial MPUT, and
   when the stall lands after the decision, another client's helping
   completes the commit the coordinator never finished. *)
let test_stalled_coordinator_helping () =
  let was_on = Obs.Metrics.is_on () in
  Obs.Metrics.enable true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.enable was_on) @@ fun () ->
  let c_helped = Obs.Metrics.counter "serve.commit.helped_applies" in
  let helped_before = Obs.Metrics.counter_value c_helped in
  let landed = ref false in
  let completed_by_others = ref 0 in
  List.iter
    (fun at ->
      let e = small_engine ~shards:2 ~num_threads:4 ~linger_us:4. () in
      let ka = key_on e 0 "ha" and kb = key_on e 1 "hb" in
      let partial = ref false in
      let body fid =
        if fid = 0 then
          ignore (E.multi_put e ~tid:0 [ (ka, Some "x"); (kb, Some "x") ])
        else
          for _ = 1 to 8 do
            match E.scan e ~tid:fid ~prefix:"h" ~max:10 with
            | Ok kvs -> (
                match (List.assoc_opt ka kvs, List.assoc_opt kb kvs) with
                | Some _, Some _ | None, None -> ()
                | _ -> partial := true)
            | Error _ -> ()
          done
      in
      let r =
        Sched.run ~seed:41
          ~injections:[ Sched.Stall { tid = 0; at_step = at; duration = None } ]
          ~hazard:(fun fid -> E.stall_hazard e ~tid:fid)
          ~num_fibers:3 body
      in
      let statuses = status_strings r in
      List.iteri
        (fun fid s ->
          if fid > 0 then
            Alcotest.(check string)
              (Printf.sprintf "reader %d finished despite stall@%d" fid at)
              "finished" s)
        statuses;
      Alcotest.(check bool)
        (Printf.sprintf "stall@%d: no reader saw a partial MPUT" at)
        false !partial;
      (* a late scan helps any published-but-unfinished commit home *)
      ignore (E.scan e ~tid:1 ~prefix:"h" ~max:10);
      let decided, applied = C.stats (E.commit e) in
      Alcotest.(check int)
        (Printf.sprintf "stall@%d: every decided commit reached applied" at)
        decided applied;
      if List.nth statuses 0 = "stalled" then begin
        landed := true;
        if decided > 0 then begin
          (* the coordinator never returned, yet the commit is complete *)
          Alcotest.(check (pair (option string) (option string)))
            (Printf.sprintf "stall@%d: helped commit fully visible" at)
            (Some "x", Some "x")
            (present e ka, present e kb);
          incr completed_by_others
        end
      end)
    [ 5; 20; 80; 320; 640; 700; 750; 800; 900; 1000; 1200; 1500; 1800; 2200 ];
  Alcotest.(check bool) "some stall actually landed" true !landed;
  Alcotest.(check bool)
    "a stalled coordinator's commit was completed by another client" true
    (!completed_by_others >= 1);
  Alcotest.(check bool) "helping was counted" true
    (Obs.Metrics.counter_value c_helped > helped_before)

(* A writer frozen across its merged decision.  Its transaction is
   registered before the coordinator's slice can become visible, and
   stays stall-hazardous until it confirms the decision, so a requested
   stall anywhere from registration to confirmation is deferred to a
   point where helpers can finish the commit.  One reader alternates
   SCANs and MGETs over one key per shard: each must return the MPUT
   whole or not at all, and finish within [read_bound] scheduler steps.
   Returns (partial reads, the longest read in steps, whether the reader
   finished). *)
let read_bound = 5_000

let stalled_writer_run ~mutants ~seed ?crash ?stall () =
  let e = small_engine ~shards:3 ~num_threads:2 ~linger_us:2. () in
  E.set_mutants e mutants;
  let keys = List.init 3 (fun s -> key_on e s "w") in
  List.iter (fun key -> okc (E.put e ~tid:0 ~key ~value:"o")) keys;
  C.set_crash_after (E.commit e) crash;
  let crashed_at = ref (-1) and partial = ref 0 and longest = ref 0 in
  let whole vs = List.for_all (( = ) (Some "o")) vs || List.for_all (( = ) (Some "x")) vs in
  let timed f =
    let t0 = Sched.now () in
    let r = f () in
    longest := max !longest (Sched.now () - t0);
    r
  in
  let body fid =
    if fid = 0 then
      try ignore (E.multi_put e ~tid:0 (List.map (fun k -> (k, Some "x")) keys))
      with C.Injected_crash _ -> crashed_at := Sched.now ()
    else
      for _ = 1 to 6 do
        (match timed (fun () -> E.scan e ~tid:1 ~prefix:"w" ~max:10) with
        | Ok kvs -> if not (whole (List.map (fun k -> List.assoc_opt k kvs) keys)) then incr partial
        | Error _ -> ());
        match timed (fun () -> E.multi_get e ~tid:1 keys) with
        | Ok vs -> if not (whole vs) then incr partial
        | Error _ -> ()
      done
  in
  let r =
    Sched.run ~seed ~budget:200_000
      ~injections:
        (Option.fold stall ~none:[] ~some:(fun at ->
             [ Sched.Stall { tid = 0; at_step = at; duration = None } ]))
      ~hazard:(fun fid -> E.stall_hazard e ~tid:fid)
      ~num_fibers:2 body
  in
  (!crashed_at, !partial, !longest, (status_strings r |> List.rev |> List.hd) = "finished")

let stalled_writer_seeds = [ 3; 4; 5 ]

(* The writer's registration-to-confirmation window on [seed]'s
   schedule: the steps of its last prepare and decision crash points,
   which the same seed reaches on the same schedule. *)
let writer_window ~seed =
  let at phase = let s, _, _, _ = stalled_writer_run ~mutants:[] ~seed ~crash:phase () in s in
  (at (C.Prepare 2), at C.Decide)

let test_stalled_writer_merged_commit () =
  List.iter
    (fun seed ->
      let first, last = writer_window ~seed in
      Alcotest.(check bool) (Printf.sprintf "seed %d: window found" seed) true
        (first > 0 && last > first);
      for at = first to last + 2 do
        let name what = Printf.sprintf "seed %d, writer stalled at step %d: %s" seed at what in
        let _, partial, longest, finished = stalled_writer_run ~mutants:[] ~seed ~stall:at () in
        Alcotest.(check bool) (name "reader finished") true finished;
        Alcotest.(check int) (name "every read all-or-nothing") 0 partial;
        if longest > read_bound then
          Alcotest.failf "%s" (name (Printf.sprintf "a read took %d steps" longest))
      done)
    stalled_writer_seeds;
  let caught =
    List.exists
      (fun seed ->
        let first, last = writer_window ~seed in
        List.exists
          (fun at ->
            let _, partial, _, _ =
              stalled_writer_run ~mutants:[ C.No_read_validation ] ~seed ~stall:at ()
            in
            partial > 0)
          (List.init (last + 3 - first) (fun i -> first + i)))
      stalled_writer_seeds
  in
  Alcotest.(check bool) "the sweep catches the no-read-validation mutant" true caught

(* A writer frozen between its prepare and its forget while two other
   writers commit more MPUTs than a ring has slots (K = 2 x shards x
   threads = 12 here), every MPUT over shards 0 and 1 with keys of its
   own.  The frozen writer holds its slot, so the txid source skips it
   and no later MPUT overwrites its live records.  Once resumed, every
   MPUT must pass the exactly-once audit (acked ones whole, none
   half-applied), live and after a clean power failure.  The other
   writers spin until the freeze point [at], so the schedule up to it
   is the same for every [at] on one seed; the freeze outlasts them.
   With [crash] armed and no freeze, the writer records the step of
   that crash point instead.  Returns that step and the audit's
   messages. *)
let slot_reuse_run ~mutants ~seed ?crash ?(at = max_int) () =
  let e = small_engine ~shards:2 ~num_threads:3 () in
  E.set_mutants e mutants;
  C.set_crash_after (E.commit e) crash;
  let group tag = [ (key_on e 0 tag, tag); (key_on e 1 (tag ^ "b"), tag) ] in
  let writes = Array.init 3 (fun _ -> ref []) in
  let crashed_at = ref (-1) and done_ = ref false in
  let mput fid tag =
    let kvs = group tag in
    let outcome =
      match E.multi_put e ~tid:fid (List.map (fun (k, v) -> (k, Some v)) kvs) with
      | Ok _ -> Serve.Write_audit.Acked
      | Error (E.In_doubt _) -> Ambiguous
      | Error _ -> Failed
      | exception C.Injected_crash _ ->
          crashed_at := Sched.now ();
          Ambiguous
    in
    writes.(fid) := { Serve.Write_audit.tok = 0; kvs; outcome } :: !(writes.(fid))
  in
  let body fid =
    if fid = 0 then begin
      mput 0 "frozen";
      done_ := true
    end
    else begin
      while Sched.now () <= at && not !done_ do
        Sched.yield ()
      done;
      if Sched.now () > at then
        for i = 1 to 8 do
          mput fid (Printf.sprintf "w%d.%d" fid i)
        done
    end
  in
  let r =
    Sched.run ~seed ~budget:2_000_000 ~num_fibers:3
      ~hazard:(fun fid -> E.stall_hazard e ~tid:fid)
      ~injections:
        (if at = max_int then []
         else [ Sched.Stall { tid = 0; at_step = at; duration = Some 400_000 } ])
      body
  in
  Alcotest.(check (list string))
    (Printf.sprintf "seed %d, frozen at %d: every fiber finished" seed at)
    [ "finished"; "finished"; "finished" ] (status_strings r);
  let history = List.concat_map (fun w -> List.rev !w) (Array.to_list writes) in
  let audit () = (Serve.Write_audit.check (Serve.Write_audit.engine_reader e) history).messages in
  let live = if crash = None then audit () else [] in
  (match E.crash_hard_with_faults e ~seed ~evict_prob:0. ~torn_prob:0. ~bitflips:0 with
  | Ok _ -> ()
  | Error d -> Alcotest.fail d);
  (!crashed_at, live @ audit ())

(* Twelve freeze points from the writer's prepare crash point to its
   forget crash point, on three seeds: past the decision, its claim is
   still held by its published decision or by its queued forget.  A
   freeze is deferred while the writer leads a batch or holds a lock,
   which would stall the others instead. *)
let test_slot_reuse () =
  let caught = ref 0 in
  List.iter
    (fun seed ->
      let step phase = fst (slot_reuse_run ~mutants:[] ~seed ~crash:phase ()) in
      let first = step (C.Prepare 1) and last = step C.Forget in
      Alcotest.(check bool) (Printf.sprintf "seed %d: window found" seed) true
        (first > 0 && last > first);
      for i = 0 to 11 do
        let at = first + ((last - first) * i / 12) in
        (match slot_reuse_run ~mutants:[] ~seed ~at () with
        | _, [] -> ()
        | _, m :: _ -> Alcotest.failf "seed %d, writer frozen at step %d: %s" seed at m);
        if snd (slot_reuse_run ~mutants:[ C.Slot_reuse ] ~seed ~at ()) <> [] then incr caught
      done)
    [ 3; 4; 5 ];
  Alcotest.(check bool) "the sweep catches the slot-reuse mutant" true (!caught > 0)

(* ---- request span tree under the deterministic scheduler ---- *)

(* One cross-shard MPUT must leave a complete causally-ordered span tree
   in the trace, linked by its request id: the commit umbrella span, a
   prepare per participant other than the coordinator, exactly one
   decision — on the coordinator, whose slice it commits — an apply per
   prepared participant, and the queue-wait spans of the batcher
   submissions — ordered commit <= prepares <= decide <= applies by
   start timestamp. *)
let test_sched_span_tree () =
  Obs.Trace.enable ();
  Fun.protect ~finally:(fun () -> Obs.Trace.disable ()) @@ fun () ->
  let e = small_engine ~shards:3 ~num_threads:2 ~linger_us:2. () in
  let keys = List.init 3 (fun s -> key_on e s "t") in
  let committed = ref false in
  let body _fid =
    match E.multi_put e ~tid:0 ~rid:42 (List.map (fun k -> (k, Some "x")) keys) with
    | Ok _ -> committed := true
    | Error err -> Alcotest.fail (E.pp_error err)
  in
  ignore (Sched.run ~seed:7 ~num_fibers:1 body);
  Alcotest.(check bool) "mput committed" true !committed;
  let doc = Obs.Trace.export () in
  let events =
    match Obs.Json.member "traceEvents" doc with
    | Some (Obs.Json.List es) -> es
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let arg name ev =
    match Obs.Json.member "args" ev with
    | Some args -> (
        match Obs.Json.member name args with
        | Some (Obs.Json.Int r) -> r
        | _ -> 0)
    | None -> 0
  in
  let rid_of = arg "rid" in
  let num = function
    | Some (Obs.Json.Int i) -> float_of_int i
    | Some (Obs.Json.Float f) -> f
    | _ -> Alcotest.fail "non-numeric ts"
  in
  let spans =
    List.filter_map
      (fun ev ->
        if rid_of ev <> 42 then None
        else
          match Obs.Json.member "name" ev with
          | Some (Obs.Json.String n) -> Some (n, num (Obs.Json.member "ts" ev), arg "v" ev)
          | _ -> Alcotest.fail "span without name")
      events
  in
  let ts_of n =
    List.filter_map (fun (m, ts, _) -> if m = n then Some ts else None) spans
  in
  let shards_of n =
    List.sort compare (List.filter_map (fun (m, _, a) -> if m = n then Some a else None) spans)
  in
  let count n = List.length (ts_of n) in
  Alcotest.(check (list int)) "a prepare span per non-coordinator participant"
    [ 1; 2 ] (shards_of "prepare");
  Alcotest.(check (list int)) "exactly one decision, on the coordinator" [ 0 ]
    (shards_of "decide");
  Alcotest.(check (list int)) "an apply span per prepared participant" [ 1; 2 ]
    (shards_of "apply");
  Alcotest.(check int) "one commit umbrella span" 1 (count "commit");
  Alcotest.(check bool) "queue-wait spans from the batcher" true
    (count "queue_wait" >= 1);
  let mn l = List.fold_left min infinity l in
  let mx l = List.fold_left max neg_infinity l in
  let t_commit = List.hd (ts_of "commit") in
  let t_decide = List.hd (ts_of "decide") in
  Alcotest.(check bool) "commit span opens the tree" true
    (List.for_all (fun (_, ts, _) -> t_commit <= ts) spans);
  Alcotest.(check bool) "every prepare precedes the decision" true
    (mx (ts_of "prepare") <= t_decide);
  Alcotest.(check bool) "the decision precedes every apply" true
    (t_decide <= mn (ts_of "apply"));
  (* the link is per-request: no span leaks to another request id *)
  Alcotest.(check int) "no spans under a foreign rid" 0
    (List.length (List.filter (fun ev -> rid_of ev = 41) events))

(* ---- the MPUT's PTM transaction budget ----

   A cross-shard MPUT over P shards costs 2P - 1 PTM transactions: P - 1
   prepares, the coordinator's merged decision and P - 1 guarded
   applies; the decision record's forget rides the next decision.
   Counted over 100 MPUTs spanning all four shards of an in-process
   engine, after 100 warm-up MPUTs (which fill every slot of the rings),
   with values of a fixed size so that every put overwrites in place.
   Two shapes: two keys per shard with 6-byte values, and the
   [mput_scan] benchmark's — one key per shard, 64-byte values whose
   head names the write.  Each pwb ceiling sits just above its measured
   cost (EXPERIMENTS, flush budget: 58.5 and 48.3). *)
let mput_pwb_ceilings = [ (2, 6, 60); (1, 64, 50) ]

let test_mput_txn_budget () =
  List.iter
    (fun (per_shard, len, ceiling) ->
      let e = E.create { E.default_config with shards = 4; num_threads = 2 } in
      let keys =
        List.concat_map
          (fun s -> List.init per_shard (fun j -> key_on e s (Printf.sprintf "b%d." j)))
          [ 0; 1; 2; 3 ]
      in
      let mput i =
        let head = Printf.sprintf "v%05d" i in
        let v = head ^ String.make (len - String.length head) 'x' in
        ignore (okc (E.multi_put e ~tid:0 (List.map (fun k -> (k, Some v)) keys)))
      in
      for i = 1 to 100 do
        mput i
      done;
      let was_on = Obs.Metrics.is_on () in
      Obs.Metrics.enable true;
      let c = Obs.Metrics.counter "ptm.tx.commit" in
      let t0 = Obs.Metrics.counter_value c and p0 = E.pmem_stats e in
      Fun.protect ~finally:(fun () -> Obs.Metrics.enable was_on) (fun () ->
          for i = 101 to 200 do
            mput i
          done);
      let txns = Obs.Metrics.counter_value c - t0 in
      let pwbs = (E.pmem_stats e).Pmem.Stats.pwb - p0.Pmem.Stats.pwb in
      let shape = Printf.sprintf "%d key(s) per shard, %d B values" per_shard len in
      Alcotest.(check int) (shape ^ ": 7 PTM transactions per 4-shard MPUT") 700 txns;
      if pwbs > 100 * ceiling then
        Alcotest.failf "%s: %.1f pwbs per 4-shard MPUT, over the ceiling of %d" shape
          (float_of_int pwbs /. 100.) ceiling)
    mput_pwb_ceilings

(* ---- loopback TCP smoke (reactor + client over a real socket) ---- *)

let reactor_config ?(reactors = 2) ?(workers = 2) ?(max_conns = 16)
    ?(max_inflight = 8) ?(linger_us = 0.) ?(queue_cap = E.default_config.queue_cap)
    ?chaos () =
  {
    Serve.Reactor.host = "127.0.0.1";
    port = 0;
    reactors;
    workers_per_reactor = workers;
    max_conns;
    max_inflight;
    ingress_cap = 256;
    engine =
      {
        E.default_config with
        shards = 2;
        capacity_bytes = 1 lsl 16;
        max_batch = 8;
        linger_us;
        queue_cap;
      };
    chaos;
    scrub_pause_us = None;
    block_in_reactor = false;
  }

let test_socket_smoke () =
  match Serve.Reactor.start (reactor_config ~max_conns:2 ()) with
  | exception Unix.Unix_error ((EPERM | EACCES | EADDRNOTAVAIL), _, _) ->
      Printf.printf "socket smoke skipped: loopback sockets unavailable\n"
  | srv ->
      Fun.protect ~finally:(fun () -> Serve.Reactor.stop srv) @@ fun () ->
      let c =
        Serve.Client.connect ~retries:50 ~host:"127.0.0.1"
          ~port:(Serve.Reactor.port srv) ()
      in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      Serve.Client.ping c;
      let ok = function
        | Ok v -> v
        | Error `Overloaded -> Alcotest.fail "unexpected overload"
        | Error (`Unavailable d) -> Alcotest.fail ("unavailable: " ^ d)
        | Error (`InDoubt txid) ->
            Alcotest.fail (Printf.sprintf "in doubt: txn %d" txid)
        | Error (`Shard_down s) ->
            Alcotest.fail (Printf.sprintf "shard %d down" s)
        | Error `Timeout -> Alcotest.fail "unexpected timeout"
        | Error (`Err e) -> Alcotest.fail e
      in
      ok (Serve.Client.put c ~key:"alpha" ~value:"1");
      let txid, epoch = ok (Serve.Client.mput c [ ("beta", "2"); ("gamma", "3") ]) in
      Alcotest.(check bool) "mput ack carries txid and epoch" true
        (txid >= 0 && epoch >= 0);
      Alcotest.(check (option string)) "get over the wire" (Some "1")
        (ok (Serve.Client.get c "alpha"));
      Alcotest.(check (list (option string)))
        "mget over the wire"
        [ Some "2"; None; Some "3" ]
        (ok (Serve.Client.mget c [ "beta"; "nope"; "gamma" ]));
      Alcotest.(check (list (pair string string)))
        "scan over the wire"
        [ ("alpha", "1"); ("beta", "2"); ("gamma", "3") ]
        (ok (Serve.Client.scan c ~prefix:"" ~max:10));
      (match Serve.Client.stats c with
      | Ok j ->
          Alcotest.(check bool) "stats reports both shards" true
            (Obs.Json.member "shards" j = Some (Obs.Json.Int 2))
      | Error e -> Alcotest.fail ("stats: " ^ e));
      (match Serve.Client.metrics c with
      | Ok text ->
          Alcotest.(check bool) "metrics exposition has a TYPE line" true
            (String.length text > 0
            && String.split_on_char '\n' text
               |> List.exists (String.starts_with ~prefix:"# TYPE "))
      | Error e -> Alcotest.fail ("metrics: " ^ e));
      Alcotest.(check bool) "client stamped request ids" true
        (Serve.Client.last_rid c > 0);
      (match Serve.Client.crash c ~seed:4 ~evict_prob:0.5 ~torn_prob:0.3 ~bitflips:0 with
      | Ok ms -> Alcotest.(check bool) "recovery time reported" true (ms >= 0.)
      | Error e -> Alcotest.fail ("crash: " ^ e));
      Alcotest.(check (option string)) "durable across the wire crash" (Some "1")
        (ok (Serve.Client.get c "alpha"));
      ok (Serve.Client.del c "alpha");
      Alcotest.(check (option string)) "deleted" None (ok (Serve.Client.get c "alpha"))

(* ---- resilience: envelope, framing, policy, exactly-once, chaos ---- *)

let test_env_roundtrip () =
  List.iter
    (fun ((rid, ttl_us, tok), req) ->
      let s = P.encode_req ~rid ~ttl_us ~tok req in
      match P.decode_req_env s with
      | Ok (env, req') ->
          Alcotest.(check bool)
            ("envelope survives: " ^ s)
            true
            (env.P.rid = rid && env.P.ttl_us = ttl_us && env.P.tok = tok
           && req' = req)
      | Error e -> Alcotest.fail (s ^ ": " ^ e))
    [
      ((0, 0, 0), P.Ping);
      ((7, 0, 0), P.Get "key");
      ((0, 2500, 0), P.Scan { prefix = "x"; max = 4 });
      ((0, 0, 99), P.Put ("k", "v with spaces"));
      ((12, 1, 345), P.Mput [ ("a", "1"); ("b", "2") ]);
      ((1, 50_000, 7), P.Del "gone");
      ((0, 0, 0), P.Txstat 42);
    ];
  List.iter
    (fun r ->
      match P.decode_resp (P.encode_resp r) with
      | Ok r' ->
          Alcotest.(check bool) "shed/TXSTAT responses round-trip" true (r = r')
      | Error e -> Alcotest.fail e)
    [
      P.Timeout;
      P.Txstat_committed { txid = 9; epoch = 4; records = 2 };
      P.Txstat_aborted;
      P.Txstat_unknown;
    ]

let test_env_malformed () =
  List.iter
    (fun s ->
      match P.decode_req_env s with
      | Ok _ -> Alcotest.fail ("accepted malformed envelope: " ^ s)
      | Error _ -> ())
    [
      "RID 0 PING";
      "TTL 0 PING";
      "TTL x PING";
      "TOK -3 PING";
      "TOK 5";
      "TOK 3 TTL 5 PING" (* prefixes out of order *);
      "TOK 3 TOK 4 PING";
      "TXSTAT 0";
      "TXSTAT";
    ]

let test_io_framing_fuzz () =
  let with_pair f =
    let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () ->
        (try Unix.close a with Unix.Unix_error _ -> ());
        try Unix.close b with Unix.Unix_error _ -> ())
      (fun () -> f a b)
  in
  (* Seeded binary payloads written as one stream by a concurrently
     scheduled domain in 1-7 byte chunks: the reader must reassemble
     every frame exactly, then see a clean EOF at the boundary. *)
  with_pair (fun a b ->
      let rng = Random.State.make [| 0xf4a2e; 17 |] in
      let payloads =
        List.init 25 (fun _ ->
            String.init (Random.State.int rng 300) (fun _ ->
                Char.chr (Random.State.int rng 256)))
      in
      let stream =
        String.concat ""
          (List.map
             (fun p -> Printf.sprintf "%d\n%s" (String.length p) p)
             payloads)
      in
      let writer =
        Domain.spawn (fun () ->
            let rng = Random.State.make [| 0x5eed |] in
            let n = String.length stream in
            let i = ref 0 in
            while !i < n do
              let k = min (1 + Random.State.int rng 7) (n - !i) in
              i := !i + Unix.write_substring a stream !i k
            done;
            Unix.close a)
      in
      let io = P.Io.of_fd b in
      List.iteri
        (fun i p ->
          match P.Io.read_frame io with
          | Ok (Some got) ->
              if got <> p then
                Alcotest.fail
                  (Printf.sprintf "frame %d corrupted in reassembly" i)
          | Ok None -> Alcotest.fail "EOF before all frames"
          | Error e -> Alcotest.fail e)
        payloads;
      (match P.Io.read_frame io with
      | Ok None -> ()
      | _ -> Alcotest.fail "expected clean EOF at frame boundary");
      Domain.join writer);
  (* Malformed streams must come back as decode errors, never crash or
     hang; an empty stream is a clean EOF. *)
  let feed bytes check =
    with_pair (fun a b ->
        if bytes <> "" then
          ignore (Unix.write_substring a bytes 0 (String.length bytes));
        Unix.close a;
        check (P.Io.read_frame (P.Io.of_fd b)))
  in
  let expect_err what = function
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (what ^ ": expected a framing error")
  in
  feed "" (function
    | Ok None -> ()
    | _ -> Alcotest.fail "empty stream must be a clean EOF");
  feed "xyz\nrest" (expect_err "garbage length line");
  feed "\n" (expect_err "empty frame header");
  feed "12" (expect_err "EOF inside header");
  feed "5\nab" (expect_err "EOF inside payload");
  feed "-4\nabcd" (expect_err "negative length");
  feed "99999999\n" (expect_err "length above max_frame");
  feed "9999999999\n" (expect_err "overlong header");
  (* An armed read deadline with no bytes arriving raises Read_timeout. *)
  with_pair (fun _a b ->
      let io = P.Io.of_fd b in
      P.Io.set_deadline io (Unix.gettimeofday () +. 0.05);
      match P.Io.read_frame io with
      | exception P.Io.Read_timeout -> ()
      | _ -> Alcotest.fail "armed deadline must raise Read_timeout")

let test_chaos_plan_roundtrip () =
  let module Ch = Serve.Chaos in
  let check_rt p =
    let s = Ch.pp_plan p in
    match Ch.parse_plan s with
    | Ok p' -> Alcotest.(check string) "pp/parse fixpoint" s (Ch.pp_plan p')
    | Error e -> Alcotest.fail (s ^ ": " ^ e)
  in
  check_rt Ch.default_plan;
  check_rt
    {
      Ch.seed = 94211;
      sever_prob = 0.015;
      truncate_prob = 0.005;
      corrupt_prob = 0.002;
      delay_prob = 0.2;
      delay_us = 450;
      stall_prob = 0.001;
      stall_us = 30_000;
      drop_prob = 0.08;
    };
  List.iter
    (fun s ->
      match Ch.parse_plan s with
      | Ok _ -> Alcotest.fail ("accepted bad plan: " ^ s)
      | Error _ -> ())
    [ "sever=1.5"; "bogus=1"; "seed=x"; "drop=-0.1"; "seed" ];
  Alcotest.(check bool) "derive is deterministic and spreads" true
    (Ch.derive 42 1 = Ch.derive 42 1 && Ch.derive 42 1 <> Ch.derive 42 2)

let test_deadline_shed_engine () =
  let e = small_engine ~shards:2 () in
  let past = Unix.gettimeofday () -. 1. in
  (match E.put ~deadline:past e ~tid:0 ~key:"late" ~value:"v" with
  | Error E.Timed_out -> ()
  | Ok () -> Alcotest.fail "expired put must be shed"
  | Error _ -> Alcotest.fail "expected Timed_out");
  (match E.delete e ~tid:0 ~deadline:past "late" with
  | Error E.Timed_out -> ()
  | _ -> Alcotest.fail "expired delete must be shed");
  (match E.get e ~tid:0 "late" with
  | Ok None -> ()
  | _ -> Alcotest.fail "shed write must leave nothing durable");
  match E.put e ~tid:0 ~key:"ok" ~value:"v" with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "undeadlined put must still land"

let test_exactly_once_txstat () =
  let e = small_engine ~shards:2 ~num_threads:3 () in
  let ok what = function
    | Ok v -> v
    | Error _ -> Alcotest.fail ("engine error: " ^ what)
  in
  (* Single-shard tokened put: the retry overwrites the same ledger key,
     so exactly one outcome record survives. *)
  ok "put tok 7" (E.put ~tok:7 e ~tid:0 ~key:"k1" ~value:"v1");
  ok "retry tok 7" (E.put ~tok:7 e ~tid:0 ~key:"k1" ~value:"v1");
  (match E.txstat e ~tid:0 7 with
  | Ok (Serve.Ledger.Tx_committed { records; _ }) ->
      Alcotest.(check int) "single-shard retry leaves one record" 1 records
  | _ -> Alcotest.fail "tok 7 must resolve committed");
  (* ... and a retry after a later write is answered from the ledger,
     not run again over that write. *)
  ok "later write" (E.put e ~tid:0 ~key:"k1" ~value:"v2");
  ok "late retry tok 7" (E.put ~tok:7 e ~tid:0 ~key:"k1" ~value:"v1");
  Alcotest.(check (option string)) "a deduplicated retry writes nothing" (Some "v2")
    (ok "get k1" (E.get e ~tid:0 "k1"));
  (* Cross-shard tokened MPUT: keys pinned to distinct shards so the
     commit really is two-phase; the retry is answered from the ledger
     with the original ack. *)
  let key_on shard =
    let rec go i =
      let k = Printf.sprintf "xk%d" i in
      if E.shard_of e k = shard then k else go (i + 1)
    in
    go 0
  in
  let kvs = [ (key_on 0, Some "a"); (key_on 1, Some "b") ] in
  let ack1 = ok "mput tok 9" (E.multi_put ~tok:9 e ~tid:1 kvs) in
  let ack2 = ok "retry tok 9" (E.multi_put ~tok:9 e ~tid:1 kvs) in
  Alcotest.(check bool) "retry answered from the ledger" true
    (ack1.E.txid = ack2.E.txid && ack1.E.epoch = ack2.E.epoch);
  (match E.txstat e ~tid:0 9 with
  | Ok (Serve.Ledger.Tx_committed { records; _ }) ->
      Alcotest.(check int) "dedup keeps exactly one outcome record" 1 records
  | _ -> Alcotest.fail "tok 9 must resolve committed");
  (match E.txstat e ~tid:0 424242 with
  | Ok Serve.Ledger.Tx_aborted -> ()
  | _ -> Alcotest.fail "unseen token must be presumed aborted");
  (* The no-dedup mutant re-executes the retry under a fresh txid and
     leaves a second record — durable proof the guard matters. *)
  E.set_mutants e [ C.No_dedup ];
  ignore (ok "mutant retry tok 9" (E.multi_put ~tok:9 e ~tid:1 kvs));
  E.set_mutants e [];
  match E.txstat e ~tid:0 9 with
  | Ok (Serve.Ledger.Tx_committed { records; _ }) ->
      Alcotest.(check bool) "mutant leaves duplicated outcome records" true
        (records >= 2)
  | _ -> Alcotest.fail "tok 9 still committed after the mutant retry"

let with_temp_dir f =
  let dir = Filename.temp_file "redodb-test" "" in
  Unix.unlink dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let test_backed_reopen () =
  with_temp_dir @@ fun dir ->
  let mk () = small_engine ~shards:2 ~batch:false ~backing_dir:dir () in
  let ok what = function
    | Ok v -> v
    | Error _ -> Alcotest.fail ("engine error: " ^ what)
  in
  let e1 = mk () in
  for i = 0 to 19 do
    ok "seed put"
      (E.put e1 ~tid:0 ~key:(Printf.sprintf "key%02d" i)
         ~value:(string_of_int i))
  done;
  ignore
    (ok "seed mput" (E.multi_put e1 ~tid:0 [ ("m0", Some "a"); ("m1", Some "b") ]));
  (* A fresh engine over the same directory reopens the region files and
     recovers every acked write instead of formatting. *)
  let e2 = mk () in
  for i = 0 to 19 do
    Alcotest.(check (option string))
      "value survives reopen"
      (Some (string_of_int i))
      (ok "reopened get" (E.get e2 ~tid:0 (Printf.sprintf "key%02d" i)))
  done;
  Alcotest.(check (option string))
    "mput survives reopen" (Some "b")
    (ok "reopened get" (E.get e2 ~tid:0 "m1"))

let test_unformatted_region_recreated () =
  with_temp_dir @@ fun dir ->
  (* A kill landing between a region file's ftruncate and its format's
     first psync leaves a nonempty all-zeros file.  It holds no data, so
     opening it must recreate the region — refusing would turn one
     unlucky kill into a permanent crash loop. *)
  let oc = open_out_bin (Filename.concat dir "shard-0.region") in
  output_string oc (String.make 4096 '\000');
  close_out oc;
  let e = small_engine ~shards:2 ~batch:false ~backing_dir:dir () in
  (match E.put e ~tid:0 ~key:"alive" ~value:"yes" with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "engine over a cut-down region must serve");
  match E.get e ~tid:0 "alive" with
  | Ok (Some "yes") -> ()
  | _ -> Alcotest.fail "write over a recreated region must stick"

let loopback_unavailable = function
  | Unix.Unix_error ((EPERM | EACCES | EADDRNOTAVAIL), _, _) -> true
  | _ -> false

let test_client_call_timeout () =
  (* A listener that accepts and then never replies: the read deadline
     must cut each attempt, and the idempotent request must come back
     [`Timeout] once retries exhaust — bounded, never hung. *)
  let srv = Unix.socket PF_INET SOCK_STREAM 0 in
  match
    Unix.bind srv (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
    Unix.listen srv 8
  with
  | exception e when loopback_unavailable e ->
      Unix.close srv;
      Printf.printf "client timeout skipped: loopback sockets unavailable\n"
  | () ->
      let port =
        match Unix.getsockname srv with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> assert false
      in
      let held = ref [] in
      let stop = Atomic.make false in
      (* select-driven accept: a plain blocking accept would not wake
         when the main domain closes the listener *)
      let acceptor =
        Domain.spawn (fun () ->
            try
              while not (Atomic.get stop) do
                match Unix.select [ srv ] [] [] 0.05 with
                | [], _, _ -> ()
                | _ ->
                    let fd, _ = Unix.accept srv in
                    held := fd :: !held
              done
            with Unix.Unix_error _ | Invalid_argument _ -> ())
      in
      Fun.protect
        ~finally:(fun () ->
          Atomic.set stop true;
          Domain.join acceptor;
          (try Unix.close srv with Unix.Unix_error _ -> ());
          List.iter
            (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
            !held)
        (fun () ->
          let policy = { Serve.Client.call_timeout = 0.15; max_retries = 1 } in
          let c =
            Serve.Client.connect ~retries:2 ~retry_delay:0.01 ~policy
              ~host:"127.0.0.1" ~port ()
          in
          Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
          let t0 = Unix.gettimeofday () in
          (match Serve.Client.get c "k" with
          | Error `Timeout -> ()
          | Ok _ -> Alcotest.fail "a silent server cannot answer"
          | Error _ -> Alcotest.fail "expected `Timeout");
          let dt = Unix.gettimeofday () -. t0 in
          Alcotest.(check bool) "bounded by deadline x attempts" true (dt < 3.);
          let t = Serve.Client.tallies c in
          Alcotest.(check bool) "deadline cuts were counted" true
            (t.Serve.Client.timeouts >= 2))

let test_midframe_disconnect_no_leak () =
  match Serve.Reactor.start (reactor_config ~max_conns:2 ()) with
  | exception e when loopback_unavailable e ->
      Printf.printf "mid-frame test skipped: loopback sockets unavailable\n"
  | srv ->
      Fun.protect ~finally:(fun () -> Serve.Reactor.stop srv) @@ fun () ->
      let port = Serve.Reactor.port srv in
      let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
      (* Clients that die mid-frame (header sent, payload never comes)
         must not leak connections. *)
      for _ = 1 to 6 do
        let s = Unix.socket PF_INET SOCK_STREAM 0 in
        Unix.connect s addr;
        ignore (Unix.write_substring s "100\nabc" 0 7);
        Unix.close s
      done;
      let deadline = Unix.gettimeofday () +. 5. in
      while
        Serve.Reactor.live_conns srv > 0 && Unix.gettimeofday () < deadline
      do
        Unix.sleepf 0.005
      done;
      Alcotest.(check int) "mid-frame disconnects free their slots" 0
        (Serve.Reactor.live_conns srv);
      (* The kernel backlog can still hold churn connections the server
         answers OVERLOADED while its slots cycle — keep probing until a
         fresh client is actually served. *)
      let rec probe until =
        let c = Serve.Client.connect ~retries:50 ~host:"127.0.0.1" ~port () in
        match Serve.Client.ping c with
        | () -> c
        | exception Serve.Client.Protocol_error _
          when Unix.gettimeofday () < until ->
            Serve.Client.close c;
            Unix.sleepf 0.02;
            probe until
      in
      let c = probe (Unix.gettimeofday () +. 5.) in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      match Serve.Client.put c ~key:"after" ~value:"ok" with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "server must keep serving after the churn"

let test_ttl_shed_over_wire () =
  (* 1 ms TTL inside a 30 ms group-commit linger window: the batcher
     must shed the queued write with TIMEOUT and commit nothing. *)
  match Serve.Reactor.start (reactor_config ~linger_us:30_000. ()) with
  | exception e when loopback_unavailable e ->
      Printf.printf "ttl shed skipped: loopback sockets unavailable\n"
  | srv ->
      Fun.protect ~finally:(fun () -> Serve.Reactor.stop srv) @@ fun () ->
      let c =
        Serve.Client.connect ~retries:50 ~host:"127.0.0.1"
          ~port:(Serve.Reactor.port srv) ()
      in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      (match Serve.Client.put c ~ttl_us:1000 ~key:"stale" ~value:"v" with
      | Error `Timeout -> ()
      | Ok () -> Alcotest.fail "expired TTL must shed the write"
      | Error _ -> Alcotest.fail "expected `Timeout");
      (match E.get (Serve.Reactor.engine srv) ~tid:0 "stale" with
      | Ok None -> ()
      | _ -> Alcotest.fail "shed write must leave nothing durable");
      (match Serve.Client.put c ~key:"fresh" ~value:"v" with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "untimed put must ride the linger window");
      match Serve.Client.get c "fresh" with
      | Ok (Some "v") -> ()
      | _ -> Alcotest.fail "fresh write must be readable"

let test_graceful_drain () =
  match Serve.Reactor.start (reactor_config ()) with
  | exception e when loopback_unavailable e ->
      Printf.printf "drain test skipped: loopback sockets unavailable\n"
  | srv ->
      let port = Serve.Reactor.port srv in
      let c = Serve.Client.connect ~retries:50 ~host:"127.0.0.1" ~port () in
      (match Serve.Client.put c ~key:"durable" ~value:"1" with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "put before drain");
      Serve.Client.close c;
      Serve.Reactor.drain srv;
      let deadline = Unix.gettimeofday () +. 5. in
      while
        Serve.Reactor.live_conns srv > 0 && Unix.gettimeofday () < deadline
      do
        Unix.sleepf 0.005
      done;
      Alcotest.(check int) "drained server holds no connections" 0
        (Serve.Reactor.live_conns srv);
      (match E.get (Serve.Reactor.engine srv) ~tid:0 "durable" with
      | Ok (Some "1") -> ()
      | _ -> Alcotest.fail "acked write must survive the drain");
      (match Serve.Client.connect ~host:"127.0.0.1" ~port () with
      | exception _ -> ()
      | c2 ->
          Serve.Client.close c2;
          Alcotest.fail "drained listener must refuse new connections");
      (* stop after drain is an idempotent no-op, not an error *)
      Serve.Reactor.stop srv

let test_resilient_client_under_chaos () =
  let plan =
    {
      Serve.Chaos.default_plan with
      seed = 4242;
      drop_prob = 0.25;
      truncate_prob = 0.05;
      delay_prob = 0.1;
      delay_us = 200;
    }
  in
  let src = Serve.Chaos.source plan in
  match Serve.Reactor.start (reactor_config ~chaos:src ()) with
  | exception e when loopback_unavailable e ->
      Printf.printf "chaos client skipped: loopback sockets unavailable\n"
  | srv ->
      Fun.protect ~finally:(fun () -> Serve.Reactor.stop srv) @@ fun () ->
      let policy = { Serve.Client.call_timeout = 0.2; max_retries = 10 } in
      let c =
        Serve.Client.connect ~retries:50 ~retry_delay:0.005 ~policy
          ~host:"127.0.0.1" ~port:(Serve.Reactor.port srv) ()
      in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      for i = 0 to 11 do
        let key = Printf.sprintf "c%02d" i in
        let tok = Serve.Client.fresh_tok c in
        match Serve.Client.put ~tok c ~key ~value:(string_of_int i) with
        | Ok () -> ()
        | Error (`InDoubt _) ->
            Alcotest.fail "tokened put must resolve, not stay in doubt"
        | Error _ -> Alcotest.fail ("put failed under chaos: " ^ key)
      done;
      let e = Serve.Reactor.engine srv in
      for i = 0 to 11 do
        match E.get e ~tid:0 (Printf.sprintf "c%02d" i) with
        | Ok (Some v) when v = string_of_int i -> ()
        | _ -> Alcotest.fail "acked write missing after chaos"
      done;
      Alcotest.(check bool) "chaos actually injected faults" true
        (Serve.Chaos.total_faults src > 0)

(* ---- per-shard fault isolation: quarantine, degraded mode, rebuild ---- *)

(* Silent rot on one shard, found by the scrubber (two strikes), must
   quarantine only that shard: concurrent writers on the other shards
   never see a refusal across quarantine AND rebuild, the rotten shard
   answers Shard_down without durable effect, and the online rebuild
   (snapshot export + commit-journal replay) readmits it with every
   previously acked write intact. *)
let test_quarantine_under_load () =
  let e = small_engine ~shards:3 ~num_threads:6 ~isolate:true () in
  let nseed = 30 in
  for i = 0 to nseed - 1 do
    okc
      (E.put e ~tid:0
         ~key:(Printf.sprintf "seed%03d" i)
         ~value:(string_of_int i))
  done;
  E.corrupt_shard e 0 ~seed:11 ~count:4;
  let state () =
    let s, _, _ = H.shard (E.health e) 0 in
    s
  in
  Alcotest.(check string) "rot is silent before the scrub" "healthy" (state ());
  let k0 = key_on e 0 "qk" in
  let stop = Atomic.make false in
  let refused = Atomic.make 0 in
  let doms =
    List.init 2 (fun w ->
        Domain.spawn (fun () ->
            let i = ref 0 in
            while not (Atomic.get stop) do
              let k = Printf.sprintf "load%d-%04d" w !i in
              if E.shard_of e k <> 0 then begin
                match E.put e ~tid:(w + 1) ~key:k ~value:"v" with
                | Ok () | Error E.Overloaded | Error E.Timed_out -> ()
                | Error (E.Shard_down _ | E.Unavailable _ | E.In_doubt _) ->
                    Atomic.incr refused
              end;
              incr i
            done))
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      List.iter Domain.join doms)
    (fun () ->
      (* two-strike scrub: the first anomaly suspects, the confirm
         quarantines *)
      (match E.scrub_step e ~tid:0 0 with
      | `Suspected _ | `Confirmed _ -> ()
      | `Clean | `Skipped -> Alcotest.fail "scrub must flag the rotten shard");
      (match E.scrub_step e ~tid:0 0 with
      | `Confirmed _ | `Skipped -> ()
      | `Clean | `Suspected _ -> Alcotest.fail "second strike must quarantine");
      Alcotest.(check string) "shard 0 quarantined" "quarantined" (state ());
      (* degraded mode: the quarantined shard refuses, nothing durable *)
      (match E.put e ~tid:0 ~key:k0 ~value:"x" with
      | Error (E.Shard_down 0) -> ()
      | _ -> Alcotest.fail "write to a quarantined shard must answer Shard_down");
      (match E.get e ~tid:0 k0 with
      | Error (E.Shard_down 0) -> ()
      | _ -> Alcotest.fail "read from a quarantined shard must answer Shard_down");
      (* online rebuild: snapshot export + commit-journal replay *)
      (match E.rebuild_shard e ~tid:0 0 with
      | Ok () -> ()
      | Error d -> Alcotest.fail ("rebuild failed: " ^ d));
      Alcotest.(check string) "shard 0 readmitted" "healthy" (state ()));
  Alcotest.(check int) "healthy shards never refused a write" 0
    (Atomic.get refused);
  (* every pre-rot acked write — including shard 0's — survived *)
  for i = 0 to nseed - 1 do
    match E.get e ~tid:0 (Printf.sprintf "seed%03d" i) with
    | Ok (Some v) ->
        Alcotest.(check string)
          (Printf.sprintf "seed%03d intact" i)
          (string_of_int i) v
    | _ -> Alcotest.fail (Printf.sprintf "seed%03d lost across the rebuild" i)
  done;
  okc (E.put e ~tid:0 ~key:k0 ~value:"fresh");
  Alcotest.(check (option string)) "readmitted shard serves" (Some "fresh")
    (present e k0);
  let hc = H.counters (E.health e) in
  let cv k = match List.assoc_opt k hc with Some v -> v | None -> 0 in
  Alcotest.(check bool) "counters track the round-trip" true
    (cv "serve.health.quarantines" >= 1 && cv "serve.health.readmissions" >= 1)

(* The sealed relocatable snapshot restores into a brand-new region
   (different geometry and offsets): every key survives, the restored
   region is live and verifies, and a tampered or truncated blob is
   refused with nothing created. *)
let test_snapshot_roundtrip () =
  let db = Kv.Redodb.open_db ~num_threads:2 ~capacity_bytes:(1 lsl 16) () in
  for i = 0 to 99 do
    Kv.Redodb.put db ~tid:0
      ~key:(Printf.sprintf "k%03d" i)
      ~value:(Printf.sprintf "v%d" i)
  done;
  ignore (Kv.Redodb.delete db ~tid:0 "k050");
  let snap = Kv.Redodb.export_snapshot db ~tid:0 in
  (match Kv.Redodb.open_from_snapshot ~num_threads:3 snap with
  | Error d -> Alcotest.fail ("import refused a good snapshot: " ^ d)
  | Ok fresh ->
      Alcotest.(check int) "counts match" (Kv.Redodb.count db ~tid:0)
        (Kv.Redodb.count fresh ~tid:0);
      for i = 0 to 99 do
        let k = Printf.sprintf "k%03d" i in
        Alcotest.(check (option string)) k (Kv.Redodb.get db ~tid:0 k)
          (Kv.Redodb.get fresh ~tid:0 k)
      done;
      Kv.Redodb.put fresh ~tid:0 ~key:"new" ~value:"x";
      Alcotest.(check (option string)) "restored region serves" (Some "x")
        (Kv.Redodb.get fresh ~tid:0 "new");
      (match Kv.Redodb.verify_meta fresh with
      | Ok () -> ()
      | Error d -> Alcotest.fail ("restored region fails verification: " ^ d)));
  let bad = Bytes.of_string snap in
  let mid = Bytes.length bad / 2 in
  Bytes.set bad mid (Char.chr (Char.code (Bytes.get bad mid) lxor 1));
  (match Kv.Redodb.open_from_snapshot ~num_threads:2 (Bytes.to_string bad) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bit-flipped snapshot must be refused");
  match
    Kv.Redodb.open_from_snapshot ~num_threads:2
      (String.sub snap 0 (String.length snap / 2))
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated snapshot must be refused"

(* A snapshot carries the live extent, not the capacity: an empty 1 MiB
   store exports a few lines of allocator and table metadata, and the
   region it restores into keeps the full capacity. *)
let test_snapshot_live_extent () =
  let db = Kv.Redodb.open_db ~num_threads:2 ~capacity_bytes:(1 lsl 20) () in
  let snap = Kv.Redodb.export_snapshot db ~tid:0 in
  if String.length snap >= 64 * 1024 then
    Alcotest.failf "empty 1 MiB store exported %d bytes" (String.length snap);
  match Kv.Redodb.open_from_snapshot ~num_threads:2 snap with
  | Error d -> Alcotest.fail ("import refused a good snapshot: " ^ d)
  | Ok fresh ->
      let value = String.make 1000 'v' in
      for i = 0 to 599 do
        Kv.Redodb.put fresh ~tid:0 ~key:(Printf.sprintf "k%03d" i) ~value
      done;
      Alcotest.(check int) "restored region holds more than 512 KiB" 600
        (Kv.Redodb.count fresh ~tid:0)

(* A cross-shard MPUT with a quarantined participant must abort cleanly:
   Shard_down, no durable effect on ANY shard (never a prefix commit),
   the healthy shard keeps serving, and after the participant rebuilds
   the same MPUT commits. *)
let test_mid_2pc_quarantine () =
  let e = small_engine ~shards:2 ~num_threads:2 ~isolate:true () in
  let ka = key_on e 0 "a" and kb = key_on e 1 "b" in
  okc (E.put e ~tid:0 ~key:ka ~value:"a0");
  okc (E.put e ~tid:0 ~key:kb ~value:"b0");
  E.quarantine e ~tid:0 1 ~reason:"operator freeze (test)";
  (match E.multi_put e ~tid:0 [ (ka, Some "A"); (kb, Some "B") ] with
  | Error (E.Shard_down 1) -> ()
  | Ok _ -> Alcotest.fail "MPUT through a quarantined participant must abort"
  | Error err -> Alcotest.fail (E.pp_error err));
  Alcotest.(check (option string)) "no prefix on the healthy shard" (Some "a0")
    (present e ka);
  okc (E.put e ~tid:0 ~key:ka ~value:"a1");
  (match E.rebuild_shard e ~tid:0 1 with
  | Ok () -> ()
  | Error d -> Alcotest.fail ("rebuild: " ^ d));
  Alcotest.(check (option string))
    "participant's data survived the freeze round-trip" (Some "b0")
    (present e kb);
  let ack = okc (E.multi_put e ~tid:0 [ (ka, Some "A"); (kb, Some "B") ]) in
  Alcotest.(check bool) "post-readmission MPUT commits" true (ack.E.txid > 0);
  Alcotest.(check (pair (option string) (option string)))
    "post-readmission MPUT applied" (Some "A", Some "B")
    (present e ka, present e kb)

(* A decided MPUT whose shards rot before the crash must come back whole
   whichever shards rot and in whichever order they are rebuilt.  The
   power fails just after the decision record (shard 0, the coordinator,
   holds it), so recovery must roll the MPUT forward — but it can reach
   only the shards that did not rot.  Each rebuild settles the txid over
   every reachable shard: it may neither apply one slice and forget the
   decision while another prepare is unresolved, nor roll a prepare back
   while the coordinator is still quarantined. *)
let test_rot_then_rebuild ~rot ~rebuild () =
  let e = small_engine ~shards:2 ~num_threads:2 ~isolate:true () in
  let ka = key_on e 0 "a" and kb = key_on e 1 "b" in
  okc (E.put e ~tid:0 ~key:ka ~value:"a0");
  okc (E.put e ~tid:0 ~key:kb ~value:"b0");
  C.set_crash_after (E.commit e) (Some C.Decide);
  (match E.multi_put e ~tid:0 [ (ka, Some "A"); (kb, Some "B") ] with
  | exception C.Injected_crash _ -> ()
  | _ -> Alcotest.fail "expected an injected crash after the decision");
  List.iter (fun s -> E.corrupt_shard e s ~seed:(11 + s) ~count:16) rot;
  let crash () =
    match
      E.crash_hard_with_faults e ~seed:5 ~evict_prob:0. ~torn_prob:0. ~bitflips:0
    with
    | Ok _ -> ()
    | Error d -> Alcotest.fail ("recovery failed: " ^ d)
  in
  crash ();
  List.iter
    (fun s ->
      let state, _, _ = H.shard (E.health e) s in
      Alcotest.(check string) (Printf.sprintf "shard %d quarantined" s) "quarantined"
        state)
    rot;
  List.iter
    (fun s ->
      match E.rebuild_shard e ~tid:0 s with
      | Ok () -> ()
      | Error d -> Alcotest.fail ("rebuild: " ^ d))
    rebuild;
  let whole when_ =
    Alcotest.(check (pair (option string) (option string)))
      ("decided MPUT whole " ^ when_) (Some "A", Some "B")
      (present e ka, present e kb)
  in
  whole "after the rebuilds";
  crash ();
  whole "after one more clean power failure"

(* An MPUT over shards 0 and 2 decided just before a power failure that
   leaves its coordinator rotten: recovery finds only its live prepare
   on shard 2 and leaves it in doubt, holding its slot.  More MPUTs than
   a ring has slots then run over shards 1 and 2, each preparing on
   shard 2; none may overwrite the in-doubt prepare, which the
   coordinator's rebuild must still roll forward. *)
let test_recovery_holds_in_doubt_slot () =
  let e = small_engine ~shards:4 ~num_threads:2 ~isolate:true () in
  let k s tag = key_on e s tag in
  okc (E.put e ~tid:0 ~key:(k 0 "x") ~value:"x0");
  okc (E.put e ~tid:0 ~key:(k 2 "z") ~value:"z0");
  C.set_crash_after (E.commit e) (Some C.Decide);
  (match E.multi_put e ~tid:0 [ (k 0 "x", Some "X"); (k 2 "z", Some "Z") ] with
  | exception C.Injected_crash _ -> ()
  | _ -> Alcotest.fail "expected an injected crash after the decision");
  E.corrupt_shard e 0 ~seed:17 ~count:16;
  (match E.crash_hard_with_faults e ~seed:6 ~evict_prob:0. ~torn_prob:0. ~bitflips:0 with
  | Ok _ -> ()
  | Error d -> Alcotest.fail ("recovery failed: " ^ d));
  for i = 1 to 40 do
    let v = string_of_int i in
    ignore (okc (E.multi_put e ~tid:0 [ (k 1 ("a" ^ v), Some v); (k 2 ("b" ^ v), Some v) ]))
  done;
  (match E.rebuild_shard e ~tid:0 0 with
  | Ok () -> ()
  | Error d -> Alcotest.fail ("rebuild: " ^ d));
  Alcotest.(check (pair (option string) (option string))) "the decided MPUT is whole"
    (Some "X", Some "Z")
    (present e (k 0 "x"), present e (k 2 "z"))

(* A rebuild beside a live cross-shard commit: a writer's MPUT over
   shards 0 and 1 (fiber 0) is frozen at scheduler step [at] for
   [duration] steps while an operator (fiber 1) spins until [at], then
   freezes and rebuilds [shard] (the participant, 1, by default; 0 is
   the coordinator).  The rebuild may roll a decided txid forward, but
   it must not roll back a prepare whose coordinator may yet decide, a
   settle must not forget a decision whose apply landed on the replaced
   instance, and the MPUT must not decide over a prepare, nor ack a
   decision, the rebuilt instance never saw: live reads right after the
   rebuild, and again after one more clean power failure, see the MPUT
   whole or absent — whole if it was acked, absent if it was refused
   (anything but [In_doubt]).  Each run adds its observed outcome to
   [outcomes].  With [~reader:true] a third fiber alternates MGETs and
   SCANs over the MPUT's keys until the other two are done, frozen at
   the same step for the same time as the writer, so that it reads
   across the rebuild with whatever it took before the quarantine: each
   read must see the MPUT whole or absent (a SCAN may leave out a shard
   that is down). *)
let live_commit_setup () =
  let e = small_engine ~shards:2 ~num_threads:3 ~isolate:true () in
  let ka = key_on e 0 "a" and kb = key_on e 1 "b" in
  okc (E.put e ~tid:0 ~key:ka ~value:"a0");
  okc (E.put e ~tid:0 ~key:kb ~value:"b0");
  (e, ka, kb, fun () -> E.multi_put e ~tid:0 [ (ka, Some "A"); (kb, Some "B") ])

(* Scheduler steps of [f e mput] run alone on a fresh setup. *)
let steps_alone f =
  let e, _, _, mput = live_commit_setup () in
  (Sched.run ~num_fibers:1 (fun _ -> f e mput)).Sched.steps

let rebuild_steps_alone () =
  steps_alone (fun e _ ->
      E.quarantine e ~tid:0 1 ~reason:"operator freeze (test)";
      ignore (E.rebuild_shard e ~tid:0 1))

let rebuild_beside_commit ~outcomes ~duration ?(shard = 1) ?(reader = false) at =
  let e, ka, kb, mput = live_commit_setup () in
  let acked = ref false and refused = ref false and rebuilt = ref false in
  let done_ = ref 0 and torn = ref [] in
  let read_whole = function
    | (Some "a0", Some "b0") | (Some "A", Some "B") | (None, _) | (_, None) -> ()
    | (Some a, Some b) -> torn := (a, b) :: !torn
  in
  let body fid =
    if fid = 0 then begin
      (match mput () with
      | Ok _ -> acked := true
      | Error (E.In_doubt _) -> ()
      | Error _ -> refused := true);
      incr done_
    end
    else if fid = 1 then begin
      while Sched.now () < at do
        Sched.yield ()
      done;
      E.quarantine e ~tid:1 shard ~reason:"operator freeze (test)";
      rebuilt := Result.is_ok (E.rebuild_shard e ~tid:1 shard);
      incr done_
    end
    else
      while !done_ < 2 do
        (match E.multi_get e ~tid:2 [ ka; kb ] with
        | Ok [ a; b ] -> read_whole (a, b)
        | _ -> ());
        match E.scan e ~tid:2 ~prefix:"" ~max:10 with
        | Ok kvs -> read_whole (List.assoc_opt ka kvs, List.assoc_opt kb kvs)
        | Error _ -> ()
      done
  in
  let fibers = if reader then 3 else 2 in
  let r =
    Sched.run ~seed:at ~num_fibers:fibers
      ~injections:
        (List.init (fibers - 1) (fun i ->
             let tid = 2 * i in
             Sched.Stall { tid; at_step = at; duration = Some duration }))
      body
  in
  let name what =
    Printf.sprintf "shard %d rebuilt, writer%s frozen at step %d for %d: %s" shard
      (if reader then " and reader" else "")
      at duration what
  in
  Alcotest.(check (list string)) (name "every fiber finished")
    (List.init fibers (fun _ -> "finished"))
    (status_strings r);
  Alcotest.(check (list (pair string string))) (name "every read whole or absent") [] !torn;
  Alcotest.(check bool) (name "shard rebuilt") true !rebuilt;
  let audit when_ =
    let got = (present e ka, present e kb) in
    Hashtbl.replace outcomes got ();
    if
      not
        ((got = (Some "A", Some "B") && not !refused)
        || ((not !acked) && got = (Some "a0", Some "b0")))
    then
      Alcotest.failf "%s: got (%s, %s)"
        (name ("MPUT half-applied or lost " ^ when_))
        (Option.value (fst got) ~default:"-")
        (Option.value (snd got) ~default:"-")
  in
  audit "while live";
  (match
     E.crash_hard_with_faults e ~seed:at ~evict_prob:0. ~torn_prob:0. ~bitflips:0
   with
  | Ok _ -> ()
  | Error d -> Alcotest.fail (name d));
  audit "after one more clean power failure"

(* The hard case, swept coarsely: freezes at 24 points, for a sweep of
   durations.  Short freezes let the writer settle while the rebuild
   restores and replays the journal, three-quarter-rebuild ones while it
   resolves and re-anchors (the resolve runs about halfway through),
   long ones after the readmission.  The operator spins until the freeze
   point, so the writer gets about half the steps before it: sweeping up
   to twice the writer's step count run alone covers its whole commit. *)
let test_rebuild_beside_live_commit () =
  let writer = steps_alone (fun _ mput -> ignore (mput ())) in
  let rebuild = rebuild_steps_alone () in
  let outcomes = Hashtbl.create 4 in
  List.iter
    (fun duration ->
      List.iter
        (rebuild_beside_commit ~outcomes ~duration)
        (List.init 24 (fun i -> 2 * writer * i / 24)))
    [ 50; rebuild / 16; 3 * rebuild / 4; 2 * rebuild ];
  Alcotest.(check int) "the sweep reaches both outcomes" 2 (Hashtbl.length outcomes)

(* The writer's shard-1 prepare, swept densely: freezes at every second
   step across it, each outlasting the whole rebuild.  A freeze while the
   prepare sits in the old instance's batcher lets the operator
   quarantine shard 1 and rebuild it from a journal that lacks the
   prepare; the prepare then commits on the dropped instance.  The
   writer must see that shard 1's instance changed under its prepare and
   abort: deciding would commit shard 0's slice while the fresh shard 1,
   holding no guard, refuses its own — an acked (A, b0).  The prepare's
   steps are the writer's, run alone, from its start to its prepare crash
   point, doubled as in the coarse sweep.  Only the first half is swept:
   the race is the prepare's trip through the batcher, ahead of its PTM
   commit, which holds the journal lock the rebuild's journal read waits
   for. *)
let steps_to phase =
  steps_alone (fun e mput ->
      C.set_crash_after (E.commit e) (Some phase);
      try ignore (mput ()) with C.Injected_crash _ -> ())

let test_rebuild_under_prepare () =
  let second = steps_to (C.Prepare 1) in
  let duration = 2 * rebuild_steps_alone () in
  let outcomes = Hashtbl.create 4 in
  List.iter
    (rebuild_beside_commit ~outcomes ~duration)
    (List.init ((second / 2) + 1) (fun i -> 2 * i))

(* The coordinator's merged decision, swept densely the same way: the
   operator rebuilds shard 0 while the writer is frozen at every second
   step across the decision's submit, from its prepare crash point to
   its decision crash point.  A decision that sits in the old instance's
   batcher while the rebuild reads the journal commits on the dropped
   instance — the coordinator's slice and the decision record are lost
   with it — so the writer must answer from the current view: roll the
   participant back and refuse when the rebuilt coordinator lacks the
   decision, or report the transaction in doubt while it is still
   behind quarantine.  Assuming the commit decided would ack (a0, B).
   The sweep runs again with a reader frozen beside the writer: a read
   that trusted the instance it took before the quarantine would return
   the dropped instance's (A, b0). *)
let test_rebuild_under_decision () =
  let first = steps_to (C.Prepare 1) and second = steps_to C.Decide in
  let duration = 2 * rebuild_steps_alone () in
  let outcomes = Hashtbl.create 4 in
  List.iter
    (fun reader ->
      List.iter
        (rebuild_beside_commit ~outcomes ~duration ~shard:0 ~reader)
        (List.init (second - first + 1) (fun i -> 2 * (first + i))))
    [ false; true ];
  Alcotest.(check int) "the sweep reaches both outcomes" 2 (Hashtbl.length outcomes)

(* A single-shard write across a rebuild of its shard: a PUT (tokened
   or not) frozen at every second step of twice its run alone, each
   freeze outlasting the whole rebuild, while an operator quarantines
   shard 0 and rebuilds it.  A batch drained before the quarantine can
   commit on the dropped instance after the rebuild read its journal;
   the write must then not be acked.  An acked PUT is present, live and
   after one more clean power failure; a refused one (anything but
   [In_doubt]) is absent. *)
let test_rebuild_under_put () =
  let setup () =
    let e = small_engine ~shards:2 ~num_threads:3 ~isolate:true () in
    let k = key_on e 0 "p" in
    okc (E.put e ~tid:0 ~key:k ~value:"p0");
    (e, k)
  in
  let rebuild =
    let e, _ = setup () in
    (Sched.run ~num_fibers:1 (fun _ ->
         E.quarantine e ~tid:0 0 ~reason:"operator freeze (test)";
         ignore (E.rebuild_shard e ~tid:0 0)))
      .Sched.steps
  in
  List.iter
    (fun tok ->
      let writer =
        let e, k = setup () in
        (Sched.run ~num_fibers:1 (fun _ -> ignore (E.put ~tok e ~tid:0 ~key:k ~value:"P")))
          .Sched.steps
      in
      let outcomes = Hashtbl.create 4 in
      List.iter
        (fun at ->
          let e, k = setup () in
          let answer = ref None and rebuilt = ref false in
          let body fid =
            if fid = 0 then answer := Some (E.put ~tok e ~tid:0 ~key:k ~value:"P")
            else begin
              while Sched.now () < at do
                Sched.yield ()
              done;
              E.quarantine e ~tid:1 0 ~reason:"operator freeze (test)";
              rebuilt := Result.is_ok (E.rebuild_shard e ~tid:1 0)
            end
          in
          let r =
            Sched.run ~seed:at ~num_fibers:2
              ~injections:[ Sched.Stall { tid = 0; at_step = at; duration = Some (2 * rebuild) } ]
              body
          in
          let name what = Printf.sprintf "tok %d, PUT frozen at step %d: %s" tok at what in
          Alcotest.(check (list string)) (name "both fibers finished") [ "finished"; "finished" ]
            (status_strings r);
          Alcotest.(check bool) (name "shard rebuilt") true !rebuilt;
          let audit when_ =
            let got = present e k in
            match !answer with
            | Some (Ok ()) ->
                Hashtbl.replace outcomes "acked" ();
                if got <> Some "P" then Alcotest.fail (name ("acked PUT lost " ^ when_))
            | Some (Error (E.In_doubt _)) -> Hashtbl.replace outcomes "in doubt" ()
            | Some (Error _) ->
                Hashtbl.replace outcomes "refused" ();
                if got <> Some "p0" then Alcotest.fail (name ("refused PUT present " ^ when_))
            | None -> Alcotest.fail (name "no answer")
          in
          audit "while live";
          (match E.crash_hard_with_faults e ~seed:at ~evict_prob:0. ~torn_prob:0. ~bitflips:0 with
          | Ok _ -> ()
          | Error d -> Alcotest.fail (name d));
          audit "after one more clean power failure")
        (List.init (writer + 1) (fun i -> 2 * i));
      Alcotest.(check bool)
        (Printf.sprintf "tok %d: the sweep reaches an acked PUT" tok)
        true (Hashtbl.mem outcomes "acked"))
    [ 0; 7 ]

(* [Commit.two_phase] over two bare stores, through a [view] and a
   [submit] the test owns, so that a swap of the coordinator's instance
   lands exactly where a rebuild's would.  [on_decide db] runs just
   before the merged decision commits on the coordinator's instance
   [db] (shard 0's one submit), and what it returns just after.
   Returns the commit, the served instances and an MPUT over shards 0
   and 1. *)
let bare_commit () =
  let store () = Kv.Redodb.open_db ~num_threads:2 ~capacity_bytes:(1 lsl 17) () in
  let dbs = [| Some (store ()); Some (store ()) |] in
  let view s = dbs.(s) in
  let c = C.create ~shards:2 ~num_threads:2 ~mutants:(ref []) in
  let mput ?(on_decide = fun _ () -> ()) ?(hidden = fun _ -> false) ~tid (a, b) =
    let view s = if hidden s then None else view s in
    let submit ~deadline:_ s ops =
      match view s with
      | None -> Error ()
      | Some db ->
          let after = if s = 0 then on_decide db else Fun.id in
          Kv.Redodb.write_batch db ~tid ops;
          after ();
          Ok ()
    in
    C.two_phase c ~tid ~rid:0 ~tok:0 ~deadline:0. ~view ~submit
      [ (0, [ (C.user_key "a", Some a) ]); (1, [ (C.user_key "b", Some b) ]) ]
  in
  (c, dbs, mput)

let bare_values dbs =
  List.map2
    (fun s k -> Option.bind dbs.(s) (fun db -> Kv.Redodb.get db ~tid:0 (C.user_key k)))
    [ 0; 1 ] [ "a"; "b" ]

(* Shard 0 rebuilt under the merged decision: the fresh instance is a
   copy of the old one taken before the decision commits there, and
   replaces it right after. *)
let copy_of old =
  match Kv.Redodb.open_from_snapshot ~num_threads:2 (Kv.Redodb.export_snapshot old ~tid:0) with
  | Ok fresh -> fresh
  | Error d -> Alcotest.fail d

(* A completed MPUT's decision record is rewritten idle by its
   coordinator's next decision, so a coordinator holds at most one live
   decision record however many MPUTs it ran, and none after recovery.
   A merged commit lost with a rebuilt coordinator carried the previous
   record's forget: it is queued again and rides the next decision. *)
let test_forgets_ride_next_decision () =
  let c, dbs, mput = bare_commit () in
  let records () =
    Kv.Redodb.fold (Option.get dbs.(0)) ~tid:0 ~init:0 (fun n k v ->
        match C.decode_record v with
        | Some { C.live = true; _ } when String.starts_with ~prefix:"m!d!" k -> n + 1
        | _ -> n)
  in
  let acked v =
    match mput ~tid:0 (v, v) with
    | Ok _ -> Alcotest.(check int) (v ^ ": one live decision record") 1 (records ())
    | Error _ -> Alcotest.failf "MPUT %s refused" v
  in
  List.iter acked (List.init 20 (Printf.sprintf "v%02d"));
  let rebuilt old =
    let fresh = copy_of old in
    fun () -> dbs.(0) <- Some fresh
  in
  (match mput ~tid:0 ~on_decide:rebuilt ("lost", "lost") with
  | Error (`Shard_down 0) -> ()
  | _ -> Alcotest.fail "a decision lost with the coordinator must be refused");
  Alcotest.(check (list (option string))) "the refused MPUT is absent"
    [ Some "v19"; Some "v19" ] (bare_values dbs);
  acked "v20";
  (match C.recover c ~shards:2 ~view:(fun s -> dbs.(s)) with
  | Ok () -> ()
  | Error d -> Alcotest.fail d);
  Alcotest.(check int) "no live decision record after recovery" 0 (records ())

(* A coordinator quarantined under its merged decision, which lands on
   the dropped instance only: the writer answers in doubt and leaves
   the participant's prepare live.  The coordinator's rebuild, from a
   copy without the decision, must settle that transaction too — its
   only record on the rebuilt shard is the missing decision — rolling
   the prepare back before the shard serves again. *)
let test_rebuild_settles_lost_decision () =
  let c, dbs, mput = bare_commit () in
  ignore (mput ~tid:0 ("a0", "b0"));
  let fresh = ref None in
  let quarantined old =
    fresh := Some (copy_of old);
    dbs.(0) <- None;
    Fun.id
  in
  (match mput ~tid:0 ~on_decide:quarantined ("A", "B") with
  | Error (`In_doubt _) -> ()
  | _ -> Alcotest.fail "a decision lost behind a quarantine must be in doubt");
  let live_prepares () =
    Kv.Redodb.fold (Option.get dbs.(1)) ~tid:0 ~init:0 (fun n k v ->
        match C.decode_record v with
        | Some { C.live = true; _ } when String.starts_with ~prefix:"m!p!" k -> n + 1
        | _ -> n)
  in
  Alcotest.(check int) "the in-doubt prepare is live" 1 (live_prepares ());
  let fresh = Option.get !fresh in
  dbs.(0) <- Some fresh;
  C.resolve_shard c ~tid:0 ~view:(fun s -> dbs.(s)) fresh;
  Alcotest.(check int) "the rebuild rolled the prepare back" 0 (live_prepares ());
  Alcotest.(check (list (option string))) "the MPUT is absent" [ Some "a0"; Some "b0" ]
    (bare_values dbs)

(* A decided MPUT whose participant, shard 1, is out of reach once its
   apply committed: [`Writer] hides it from the writer right after the
   apply, [`Recovery] at a crash after the MPUT completed, when the
   coordinator's last decision is still live (its forget waits for the
   next decision).  Either way the decision cannot be forgotten and the
   transaction keeps its slot, while the participant's rebuilt copy
   holds only an idle prepare.  That rebuild must settle it: no live
   decision record may be left, and the next K txids must all be drawn,
   none skipped for a slot still held. *)
let test_rebuild_settles_participant ~unreachable () =
  let c, dbs, mput = bare_commit () in
  ignore (mput ~tid:0 ("a0", "b0"));
  let b_applied _ =
    Kv.Redodb.get (Option.get dbs.(1)) ~tid:0 (C.user_key "b") = Some "B"
  in
  (match unreachable with
  | `Writer -> (
      match mput ~tid:0 ~hidden:(fun s -> s = 1 && b_applied ()) ("A", "B") with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "a decided MPUT must be acked")
  | `Recovery -> (
      ignore (mput ~tid:0 ("A", "B"));
      match C.recover c ~shards:2 ~view:(fun s -> if s = 1 then None else dbs.(s)) with
      | Ok () -> ()
      | Error d -> Alcotest.fail d));
  let live_decisions () =
    Kv.Redodb.fold (Option.get dbs.(0)) ~tid:0 ~init:0 (fun n k v ->
        match C.decode_record v with
        | Some { C.live = true; _ } when String.starts_with ~prefix:"m!d!" k -> n + 1
        | _ -> n)
  in
  Alcotest.(check int) "the decision is still live" 1 (live_decisions ());
  let fresh = copy_of (Option.get dbs.(1)) in
  dbs.(1) <- Some fresh;
  C.resolve_shard c ~tid:0 ~view:(fun s -> dbs.(s)) fresh;
  Alcotest.(check int) "the rebuild forgot the decision" 0 (live_decisions ());
  let txid v =
    match mput ~tid:0 (v, v) with
    | Ok (a : C.ack) -> a.txid
    | Error _ -> Alcotest.failf "MPUT %s refused" v
  in
  let first = txid "n0" in
  let k = 2 * 2 * 2 in
  let last = List.fold_left (fun _ i -> txid (Printf.sprintf "n%d" i)) first (List.init k succ) in
  Alcotest.(check int) "no txid skipped for a held slot" (first + k) last;
  Alcotest.(check (list (option string))) "the MPUTs are whole"
    [ Some (Printf.sprintf "n%d" k); Some (Printf.sprintf "n%d" k) ]
    (bare_values dbs)

(* A store written in the earlier per-txid record format is refused as
   such, not reported as corrupt: its high-water keys, or a record
   framed without the state word. *)
let test_earlier_format_refused () =
  let check key value =
    let db = Kv.Redodb.open_db ~num_threads:2 ~capacity_bytes:(1 lsl 17) () in
    Kv.Redodb.write_batch db ~tid:0 [ (key, Some value) ];
    let c = C.create ~shards:1 ~num_threads:2 ~mutants:(ref []) in
    Alcotest.(check (result unit string)) key
      (Error
         (Printf.sprintf
            "shard 0: key %S is in the earlier per-txid commit-record format, not read here" key))
      (C.recover c ~shards:1 ~view:(fun _ -> Some db))
  in
  check "m!ht" "17";
  (* any digest frame without the state word, as the earlier records were *)
  check "m!d!0000000005" (Option.get (snd (C.outcome_op ~tok:1 ~txid:5 ~epoch:3)))

(* A helper that took the coordinator's instance before a quarantine and
   reads it after the merged decision landed there, behind the rebuild's
   copy: the record it finds is lost with that instance.  The writer
   sees its coordinator moved, finds no decision on the fresh instance
   and refuses, so a helper that rolled the participant forward by the
   stale record would leave (a0, B) behind a refused MPUT.  The helper's
   [view] hands out the old instance once, at the moment the commit
   lands on it; the writer waits a bounded while for the helper before
   returning from the submit. *)
let test_helper_stale_coordinator () =
  let c, dbs, mput = bare_commit () in
  ignore (mput ~tid:0 ("a0", "b0"));
  let old = Option.get dbs.(0) in
  let landed = ref false and helped = ref false and answer = ref None in
  let rebuilt old =
    dbs.(0) <- None;
    let fresh = copy_of old in
    fun () ->
      landed := true;
      dbs.(0) <- Some fresh;
      let t0 = Sched.now () in
      while (not !helped) && Sched.now () - t0 < 2_000 do
        Sched.yield ()
      done
  in
  let handed = ref false in
  let helper_view s =
    if s = 0 && not !handed then begin
      handed := true;
      while not !landed do
        Sched.yield ()
      done;
      Some old
    end
    else dbs.(s)
  in
  let body fid =
    if fid = 0 then answer := Some (mput ~tid:0 ~on_decide:rebuilt ("A", "B"))
    else begin
      while fst (C.stats c) < 2 do
        Sched.yield ()
      done;
      C.help c ~tid:1 ~view:helper_view;
      helped := true
    end
  in
  let r = Sched.run ~seed:1 ~budget:200_000 ~num_fibers:2 body in
  Alcotest.(check (list string)) "both fibers finished" [ "finished"; "finished" ]
    (status_strings r);
  Alcotest.(check bool) "the helper read the dropped instance" true !handed;
  let want =
    match !answer with
    | Some (Ok _) -> [ Some "A"; Some "B" ]
    | Some (Error (`Shard_down 0)) -> [ Some "a0"; Some "b0" ]
    | _ -> Alcotest.fail "unexpected answer"
  in
  Alcotest.(check (list (option string))) "the answer matches the stores" want (bare_values dbs)

(* Txids held only by quarantined shards.  A cross-shard MPUT over
   shards 0 and 2 crashes after [first] (after shard 2's prepare: it
   aborted; after its decision: it committed), both shards rot, and
   recovery sees only shard 1.  The shards in [before] are rebuilt, then
   an MPUT over 0 and 1 runs — cut by a crash just after its decision
   if [cut], else to completion, which leaves its decision record on
   shard 0 until the next decision there — then the rest are rebuilt.
   Each MPUT must end whole or absent, by its own fate.  After a
   decision, the rebuild of shard 0 lifts the txid source past the
   decided txid, so that the later MPUT does not overwrite its decision.
   After a prepare alone, nothing the rebuilt shard 0 holds names the
   aborted txid (the coordinator writes no prepare), so the later MPUT
   reuses it: rebuilding shard 2 must not take that MPUT's decision
   record for the aborted one's, whose participant list differs. *)
let test_quarantined_txids ~first ~before ~cut () =
  let e = small_engine ~shards:3 ~num_threads:2 ~isolate:true () in
  let k = Array.init 3 (fun s -> key_on e s (Printf.sprintf "q%d" s)) in
  Array.iteri (fun s key -> okc (E.put e ~tid:0 ~key ~value:(Printf.sprintf "v%d" s))) k;
  let crash_after phase kvs =
    C.set_crash_after (E.commit e) (Some phase);
    match E.multi_put e ~tid:0 kvs with
    | exception C.Injected_crash _ -> ()
    | _ -> Alcotest.fail "expected an injected crash"
  in
  let crash () =
    match E.crash_hard_with_faults e ~seed:9 ~evict_prob:0. ~torn_prob:0. ~bitflips:0 with
    | Ok _ -> ()
    | Error d -> Alcotest.fail ("recovery failed: " ^ d)
  in
  let rebuild =
    List.iter (fun s ->
        match E.rebuild_shard e ~tid:0 s with
        | Ok () -> ()
        | Error d -> Alcotest.fail ("rebuild: " ^ d))
  in
  crash_after first [ (k.(0), Some "X"); (k.(2), Some "Z") ];
  List.iter (fun s -> E.corrupt_shard e s ~seed:(21 + s) ~count:16) [ 0; 2 ];
  crash ();
  rebuild before;
  let second = [ (k.(0), Some "P"); (k.(1), Some "Q") ] in
  if cut then begin
    crash_after C.Decide second;
    crash ()
  end
  else ignore (okc (E.multi_put e ~tid:0 second));
  rebuild (List.filter (fun s -> not (List.mem s before)) [ 0; 2 ]);
  crash ();
  Alcotest.(check (list (option string)))
    "each MPUT whole or absent by its own fate"
    [ Some "P"; Some "Q"; Some (if first = C.Decide then "Z" else "v2") ]
    (Array.to_list (Array.map (present e) k))

(* A txid reused across a crash that hid a quarantined shard.  A writer's
   MPUT over shards 0 and 2 is frozen at a sweep of steps while an
   operator freezes shard 2; where the freeze lands between the prepares
   and the decision, the MPUT aborts and its prepare survives only on
   shard 2.  Recovery cannot see shard 2, so the next MPUT, over 0 and
   1, reuses the txid; the power fails just after its decision and shard
   1 rots, so that decision outlives recovery.  Rebuilding shard 2 must
   not take it for the aborted MPUT's decision. *)
let test_reused_txid () =
  let setup () =
    let e = small_engine ~shards:3 ~num_threads:2 ~isolate:true () in
    let k = Array.init 3 (fun s -> key_on e s (Printf.sprintf "r%d" s)) in
    Array.iteri (fun s key -> okc (E.put e ~tid:0 ~key ~value:(Printf.sprintf "v%d" s))) k;
    (e, k, fun () -> E.multi_put e ~tid:0 [ (k.(0), Some "X"); (k.(2), Some "Z") ])
  in
  let writer =
    let _, _, mput = setup () in
    (Sched.run ~num_fibers:1 (fun _ -> ignore (mput ()))).Sched.steps
  in
  let refused = ref 0 in
  List.iter
    (fun at ->
      let e, k, mput = setup () in
      let acked = ref false in
      let body fid =
        if fid = 0 then acked := Result.is_ok (mput ())
        else begin
          while Sched.now () < at do
            Sched.yield ()
          done;
          E.quarantine e ~tid:1 2 ~reason:"operator freeze (test)"
        end
      in
      ignore
        (Sched.run ~seed:at ~num_fibers:2
           ~injections:[ Sched.Stall { tid = 0; at_step = at; duration = Some 50 } ]
           body);
      if not !acked then incr refused;
      let name what = Printf.sprintf "operator froze shard 2 at step %d: %s" at what in
      let crash () =
        match E.crash_hard_with_faults e ~seed:at ~evict_prob:0. ~torn_prob:0. ~bitflips:0 with
        | Ok _ -> ()
        | Error d -> Alcotest.fail (name d)
      in
      crash ();
      C.set_crash_after (E.commit e) (Some C.Decide);
      (match E.multi_put e ~tid:0 [ (k.(0), Some "P"); (k.(1), Some "Q") ] with
      | exception C.Injected_crash _ -> ()
      | _ -> Alcotest.fail (name "expected an injected crash"));
      E.corrupt_shard e 1 ~seed:(31 + at) ~count:16;
      crash ();
      List.iter
        (fun s ->
          match E.rebuild_shard e ~tid:0 s with
          | Ok () -> ()
          | Error d -> Alcotest.fail (name ("rebuild: " ^ d)))
        [ 2; 1 ];
      Alcotest.(check (list (option string)))
        (name "first MPUT whole iff acked, second whole")
        [ Some "P"; Some "Q"; Some (if !acked then "Z" else "v2") ]
        (Array.to_list (Array.map (present e) k)))
    (List.init 24 (fun i -> 2 * writer * i / 24));
  Alcotest.(check bool) "the sweep refuses the first MPUT somewhere" true (!refused > 0)

(* No_scrub_verify: a scrubber that skips re-verification reports a
   rotten shard Clean forever.  Only the mutant-blind audit verifier
   still sees the rot — which is exactly how the quarantine sweep
   catches the mutant (rot never quarantined, never rebuilt, final
   audit fails). *)
let test_mutant_no_scrub_verify () =
  let rotten mutants =
    let e = small_engine ~shards:2 ~isolate:true () in
    E.set_mutants e mutants;
    E.corrupt_shard e 0 ~seed:5 ~count:3;
    e
  in
  let e = rotten [] in
  (match E.scrub_step e ~tid:0 0 with
  | `Suspected _ | `Confirmed _ -> ()
  | `Clean | `Skipped -> Alcotest.fail "clean scrubber must flag seeded rot");
  let e = rotten [ C.No_scrub_verify ] in
  (match E.scrub_step e ~tid:0 0 with
  | `Clean -> ()
  | _ -> Alcotest.fail "mutant must wave the rotten shard through");
  (match E.scrub_step e ~tid:0 0 with
  | `Clean -> ()
  | _ -> Alcotest.fail "mutant stays blind on the second pass");
  let healthy, _, passes = H.shard (E.health e) 0 in
  Alcotest.(check string) "mutant never quarantines" "healthy" healthy;
  Alcotest.(check bool) "scrub cursor still advanced" true (passes >= 2);
  match E.verify_shard e 0 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "audit verifier must still see the rot"

(* ---- aio reactor: event loop, incremental decoding, pipelining ---- *)

(* The resumable frame decoder must reassemble a seeded binary stream
   byte-for-byte whether it arrives dribbled or coalesced, and turn
   garbage into the same decode errors the blocking path always
   raised. *)
let test_decoder_incremental () =
  let module D = P.Io.Decoder in
  let rng = Random.State.make [| 0xdec0de; 3 |] in
  let payloads =
    List.init 40 (fun _ ->
        String.init (Random.State.int rng 400) (fun _ ->
            Char.chr (Random.State.int rng 256)))
  in
  let stream =
    String.concat ""
      (List.map (fun p -> Printf.sprintf "%d\n%s" (String.length p) p) payloads)
  in
  (* dribbled in 1-5 byte chunks, decoding interleaved with feeding *)
  let dec = D.create ~initial:16 () in
  let got = ref [] in
  let i = ref 0 in
  let n = String.length stream in
  while !i < n do
    let k = min (1 + Random.State.int rng 5) (n - !i) in
    D.feed_string dec (String.sub stream !i k);
    i := !i + k;
    let rec drain () =
      match D.next dec with
      | `Frame p ->
          got := p :: !got;
          drain ()
      | `Need_more -> ()
      | `Error e -> Alcotest.fail e
    in
    drain ()
  done;
  Alcotest.(check int) "all dribbled frames reassembled" (List.length payloads)
    (List.length !got);
  List.iter2
    (fun want g -> if want <> g then Alcotest.fail "dribbled frame corrupted")
    payloads (List.rev !got);
  Alcotest.(check bool) "dribbled stream ends at a clean boundary" true
    (D.eof_reason dec = None);
  (* coalesced: the whole stream in one feed *)
  let dec = D.create () in
  D.feed_string dec stream;
  List.iter
    (fun want ->
      match D.next dec with
      | `Frame p when p = want -> ()
      | `Frame _ -> Alcotest.fail "coalesced frame corrupted"
      | `Need_more -> Alcotest.fail "Need_more with the full stream buffered"
      | `Error e -> Alcotest.fail e)
    payloads;
  Alcotest.(check bool) "coalesced stream ends at a clean boundary" true
    (D.next dec = `Need_more && D.eof_reason dec = None);
  (* garbage and torn streams: same errors as the blocking decoder *)
  let expect_error bytes want =
    let dec = D.create () in
    D.feed_string dec bytes;
    match D.next dec with
    | `Error e -> Alcotest.(check string) ("error for " ^ String.escaped bytes) want e
    | `Frame _ | `Need_more ->
        Alcotest.fail ("garbage accepted: " ^ String.escaped bytes)
  in
  expect_error "12x\nhello" "bad frame header byte 'x'";
  expect_error "1234567890\n" "frame header too long";
  expect_error "\n" "empty frame header";
  expect_error "99999999\nx" "frame too large";
  let torn bytes want =
    let dec = D.create () in
    D.feed_string dec bytes;
    Alcotest.(check bool) ("torn " ^ String.escaped bytes) true
      (D.next dec = `Need_more && D.eof_reason dec = Some want)
  in
  torn "12" "EOF inside frame header";
  torn "5\nab" "EOF inside frame payload"

(* The event loop by itself: timers fire in deadline order, suspended
   fibers resume, cross-domain posts land, IO waits with a deadline
   time out, and two fibers stream a socketpair through EAGAIN. *)
let test_aio_loop () =
  let l = Aio.create () in
  let order = ref [] in
  let push x = order := x :: !order in
  let resume = ref (fun () -> ()) in
  Aio.post l (fun () ->
      Aio.spawn (fun () ->
          Aio.sleep 0.03;
          push "t30");
      Aio.spawn (fun () ->
          Aio.sleep 0.01;
          push "t10");
      Aio.spawn (fun () ->
          Aio.sleep 0.02;
          push "t20");
      Aio.spawn (fun () ->
          Aio.suspend (fun k -> resume := k);
          push "resumed");
      Aio.spawn (fun () ->
          Aio.yield ();
          !resume ());
      Alcotest.(check bool) "active inside a fiber" true (Aio.active ()));
  let poster =
    Domain.spawn (fun () ->
        Unix.sleepf 0.005;
        Aio.post l (fun () -> push "posted"))
  in
  Aio.run l (fun () -> push "main");
  Domain.join poster;
  Alcotest.(check bool) "inactive outside the loop" false (Aio.active ());
  let o = List.rev !order in
  let pos x =
    let rec go i = function
      | [] -> Alcotest.fail (x ^ " never ran")
      | y :: _ when y = x -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 o
  in
  Alcotest.(check bool) "timers fired in deadline order" true
    (pos "t10" < pos "t20" && pos "t20" < pos "t30");
  ignore (pos "main");
  ignore (pos "resumed");
  ignore (pos "posted");
  (* a quiet fd times out; a busy socketpair streams through EAGAIN *)
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  Unix.set_nonblock a;
  Unix.set_nonblock b;
  let l = Aio.create () in
  let received = Buffer.create 1024 in
  let timed_out = ref false in
  let msg =
    String.concat "" (List.init 2000 (fun i -> Printf.sprintf "m%04d." i))
  in
  Aio.post l (fun () ->
      (match Aio.wait_readable ~deadline:(Unix.gettimeofday () +. 0.02) b with
      | `Timed_out -> timed_out := true
      | `Ready -> ());
      let buf = Bytes.create 97 in
      let rec go () =
        match Unix.read b buf 0 97 with
        | 0 -> Aio.close b
        | n ->
            Buffer.add_subbytes received buf 0 n;
            go ()
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
            (match Aio.wait_readable b with `Ready | `Timed_out -> ());
            go ()
        | exception Unix.Unix_error (EINTR, _, _) -> go ()
      in
      go ());
  Aio.post l (fun () ->
      (* start writing only after the reader's deadline probe expired *)
      Aio.sleep 0.03;
      let bts = Bytes.of_string msg in
      let off = ref 0 in
      let rec go () =
        if !off < Bytes.length bts then (
          match Unix.write a bts !off (min 1237 (Bytes.length bts - !off)) with
          | n ->
              off := !off + n;
              Aio.yield ();
              go ()
          | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
              (match Aio.wait_writable a with `Ready | `Timed_out -> ());
              go ()
          | exception Unix.Unix_error (EINTR, _, _) -> go ())
        else Aio.close a
      in
      go ());
  Aio.run l (fun () -> ());
  Alcotest.(check bool) "read deadline fired" true !timed_out;
  Alcotest.(check string) "streamed byte-for-byte across fibers" msg
    (Buffer.contents received)

(* ---- the client on Aio fibers, and its one retry policy ---- *)

(* A raw responder, one domain per each of [conns] accepted
   connections, answering every request [answer] maps to a response
   (it may sleep first) and ignoring the rest. *)
let responder ~conns answer =
  let srv_fd = Unix.socket PF_INET SOCK_STREAM 0 in
  let port =
    try
      Unix.setsockopt srv_fd SO_REUSEADDR true;
      Unix.bind srv_fd (ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.listen srv_fd 4;
      match Unix.getsockname srv_fd with ADDR_INET (_, p) -> p | ADDR_UNIX _ -> assert false
    with e ->
      Unix.close srv_fd;
      raise e
  in
  let serve fd =
    let io = P.Io.of_fd fd in
    let rec loop () =
      match P.Io.read_frame io with
      | Ok (Some payload) ->
          (match P.decode_req_env payload with
          | Ok (env, req) ->
              Option.iter
                (fun resp -> P.Io.write_frame io (P.encode_resp ~rid:env.P.rid resp))
                (answer req)
          | Error _ -> ());
          loop ()
      | _ | (exception _) -> ()
    in
    loop ();
    Unix.close fd
  in
  let acceptor =
    Domain.spawn (fun () ->
        let servers =
          List.init conns (fun _ ->
              let fd, _ = Unix.accept srv_fd in
              Domain.spawn (fun () -> serve fd))
        in
        List.iter Domain.join servers;
        Unix.close srv_fd)
  in
  (port, acceptor)

(* Answers each GET [delay] seconds after reading it. *)
let slow_responder ~delay ~conns =
  responder ~conns (function
    | P.Get k ->
        Unix.sleepf delay;
        Some (P.Val ("v:" ^ k))
    | _ -> None)

(* Answers each PUT [shed] the first [n] times it sees its key, then OK. *)
let shedding_responder ~shed ~n =
  let seen = Hashtbl.create 16 and m = Mutex.create () in
  responder ~conns:1 (function
    | P.Put (k, _) ->
        let k_seen = Mutex.protect m (fun () ->
            let c = Option.value (Hashtbl.find_opt seen k) ~default:0 in
            Hashtbl.replace seen k (c + 1);
            c)
        in
        Some (if k_seen < n then shed else P.Ok)
    | _ -> None)

(* A serial call and a depth-4 pipeline wait on a slow server from two
   fibers of one loop; a sibling's 5 ms timer keeps firing meanwhile. *)
let test_client_on_fiber () =
  match slow_responder ~delay:0.1 ~conns:2 with
  | exception e when loopback_unavailable e ->
      Printf.printf "client on a fiber skipped: loopback sockets unavailable\n"
  | port, responder ->
      let busy = ref 2 and ticks = ref 0 and worst = ref 0. in
      let serial = ref None and piped = ref [] in
      Aio.run (Aio.create ()) (fun () ->
          Aio.spawn (fun () ->
              let c = Serve.Client.connect ~host:"127.0.0.1" ~port () in
              serial := Some (Serve.Client.get c "s");
              Serve.Client.close c;
              decr busy);
          Aio.spawn (fun () ->
              let c = Serve.Client.connect ~host:"127.0.0.1" ~port () in
              let p = Serve.Client.Pipeline.create ~window:4 c in
              let tks =
                List.init 4 (fun i ->
                    Serve.Client.Pipeline.submit p (P.Get (Printf.sprintf "p%d" i)))
              in
              piped := List.map (Serve.Client.Pipeline.await p) tks;
              Serve.Client.close c;
              decr busy);
          let last = ref (Unix.gettimeofday ()) in
          while !busy > 0 do
            Aio.sleep 0.005;
            let now = Unix.gettimeofday () in
            worst := Float.max !worst (now -. !last);
            last := now;
            incr ticks
          done);
      Domain.join responder;
      Alcotest.(check bool) "serial answer" true (!serial = Some (Ok (Some "v:s")));
      Alcotest.(check bool) "pipelined answers, by RID" true
        (!piped = List.init 4 (fun i -> P.Val (Printf.sprintf "v:p%d" i)));
      Alcotest.(check bool) "the timer kept firing" true (!ticks >= 20);
      if !worst >= 0.05 then
        Alcotest.failf "a client wait stalled the loop for %.0f ms" (!worst *. 1000.)

(* Four connections, fibers of one loop, keep 16 PUTs in flight each
   against shard queues of one slot whose leaders linger 2 ms: writes
   from the other reactor find the queue full.  [policy] decides what
   those OVERLOADED answers become. *)
let overload_pipeline policy =
  let srv = Serve.Reactor.start (reactor_config ~queue_cap:1 ~linger_us:2000. ()) in
  Fun.protect ~finally:(fun () -> Serve.Reactor.stop srv) @@ fun () ->
  let answers = ref [] and retries = ref 0 in
  Aio.run (Aio.create ()) (fun () ->
      for conn = 0 to 3 do
        Aio.spawn (fun () ->
            let c =
              Serve.Client.connect ~retries:50 ~policy ~host:"127.0.0.1"
                ~port:(Serve.Reactor.port srv) ()
            in
            let p = Serve.Client.Pipeline.create ~window:16 c in
            let tks =
              List.init 32 (fun i ->
                  Serve.Client.Pipeline.submit p (P.Put (Printf.sprintf "o%d.%02d" conn i, "v")))
            in
            let mine = List.map (Serve.Client.Pipeline.await p) tks in
            answers := mine @ !answers;
            retries := !retries + (Serve.Client.tallies c).Serve.Client.retries;
            Serve.Client.close c)
      done);
  (!answers, !retries)

let test_pipeline_retries_overload () =
  match overload_pipeline Serve.Client.resilient with
  | exception e when loopback_unavailable e ->
      Printf.printf "overload retry skipped: loopback sockets unavailable\n"
  | answers, retries ->
      List.iter (fun a -> if a <> P.Ok then Alcotest.failf "put: %s" (P.encode_resp a)) answers;
      Alcotest.(check int) "every put answered" 128 (List.length answers);
      Alcotest.(check bool) "the OVERLOADED answers were retried" true (retries > 0)

(* The contract bench/e2e's preload relies on: without retries the
   pipeline hands the shed answers back as they came. *)
let test_pipeline_default_raw () =
  match overload_pipeline Serve.Client.default_policy with
  | exception e when loopback_unavailable e ->
      Printf.printf "raw overload skipped: loopback sockets unavailable\n"
  | answers, retries ->
      let shed = List.length (List.filter (fun a -> a = P.Overloaded) answers) in
      Alcotest.(check bool) "OVERLOADED delivered raw" true (shed > 0);
      Alcotest.(check int) "acks or OVERLOADED, nothing else" 128
        (shed + List.length (List.filter (fun a -> a = P.Ok) answers));
      Alcotest.(check int) "no retries" 0 retries

(* Serial resilient writes across a CRASH whose recovery pays a slow
   device: the writes that meet the outage are answered UNAVAILABLE,
   retried, and ack once the engine is back. *)
let test_resilient_write_rides_out_crash () =
  match Serve.Reactor.start (reactor_config ()) with
  | exception e when loopback_unavailable e ->
      Printf.printf "crash retry skipped: loopback sockets unavailable\n"
  | srv ->
      Fun.protect ~finally:(fun () -> Serve.Reactor.stop srv) @@ fun () ->
      let port = Serve.Reactor.port srv in
      let e = Serve.Reactor.engine srv in
      E.set_flush_cost e 2000;
      let c =
        Serve.Client.connect ~retries:50 ~policy:Serve.Client.resilient
          ~host:"127.0.0.1" ~port ()
      in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      let admin = Serve.Client.connect ~host:"127.0.0.1" ~port () in
      let crashed = Atomic.make false in
      let crasher =
        Domain.spawn (fun () ->
            Fun.protect ~finally:(fun () -> Atomic.set crashed true) @@ fun () ->
            Unix.sleepf 0.02;
            Serve.Client.crash admin ~seed:7 ~evict_prob:0. ~torn_prob:0. ~bitflips:0)
      in
      let acked = ref [] in
      while not (Atomic.get crashed) do
        let key = Printf.sprintf "w%05d" (List.length !acked) in
        match Serve.Client.put ~tok:(Serve.Client.fresh_tok c) c ~key ~value:key with
        | Ok () -> acked := key :: !acked
        | Error _ -> Alcotest.failf "resilient put %s did not ack" key
      done;
      (match Domain.join crasher with
      | Ok _ -> ()
      | Error d -> Alcotest.failf "CRASH did not recover: %s" d);
      Serve.Client.close admin;
      Alcotest.(check bool) "a write met the outage and was retried" true
        ((Serve.Client.tallies c).Serve.Client.retries > 0);
      List.iter
        (fun k ->
          match E.get e ~tid:0 k with
          | Ok (Some v) when v = k -> ()
          | _ -> Alcotest.failf "acked write %s lost across the CRASH" k)
        !acked

(* An UNAVAILABLE answer (an engine mid crash recovery) spends no
   retry: one retry of budget rides out six of them. *)
let test_unavailable_spends_no_retry () =
  match shedding_responder ~shed:(P.Unavail "crashing") ~n:6 with
  | exception e when loopback_unavailable e ->
      Printf.printf "free outage retries skipped: loopback sockets unavailable\n"
  | port, responder ->
      let c =
        Serve.Client.connect
          ~policy:{ Serve.Client.call_timeout = 1.; max_retries = 1 }
          ~host:"127.0.0.1" ~port ()
      in
      let r = Serve.Client.put c ~key:"k" ~value:"v" in
      let retries = (Serve.Client.tallies c).Serve.Client.retries in
      Serve.Client.close c;
      Domain.join responder;
      Alcotest.(check bool) "the put acks" true (r = Ok ());
      Alcotest.(check int) "one backoff per UNAVAILABLE" 6 retries

(* Eight pipelined PUTs, each shed four times (backoffs of about 5, 10,
   20 and 40 ms): the window waits them out side by side, not one
   submission after another (about 600 ms). *)
let test_pipeline_backoffs_overlap () =
  match shedding_responder ~shed:P.Overloaded ~n:4 with
  | exception e when loopback_unavailable e ->
      Printf.printf "overlapping backoffs skipped: loopback sockets unavailable\n"
  | port, responder ->
      let c =
        Serve.Client.connect ~policy:Serve.Client.resilient ~host:"127.0.0.1" ~port ()
      in
      let p = Serve.Client.Pipeline.create ~window:8 c in
      let t0 = Unix.gettimeofday () in
      let tks =
        List.init 8 (fun i -> Serve.Client.Pipeline.submit p (P.Put (Printf.sprintf "b%d" i, "v")))
      in
      let answers = List.map (Serve.Client.Pipeline.await p) tks in
      let took = Unix.gettimeofday () -. t0 in
      let retries = (Serve.Client.tallies c).Serve.Client.retries in
      Serve.Client.close c;
      Domain.join responder;
      Alcotest.(check bool) "every put acks" true (List.for_all (( = ) P.Ok) answers);
      Alcotest.(check int) "four backoffs per put" 32 retries;
      if took >= 0.3 then
        Alcotest.failf "the window's backoffs ran one after another: %.0f ms" (took *. 1000.)

(* A frame larger than the socket buffer, written while the peer reads
   nothing for 200 ms: the writer parks instead of spinning, and the
   frame arrives whole. *)
let test_write_frame_parks () =
  let payload = String.init (1 lsl 20) (fun i -> Char.chr (97 + (i mod 26))) in
  let start () =
    let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
    Unix.set_nonblock a;
    let reader =
      Domain.spawn (fun () ->
          Unix.sleepf 0.2;
          let r = P.Io.read_frame (P.Io.of_fd b) in
          Unix.close b;
          r)
    in
    (a, reader)
  in
  let arrived reader =
    Alcotest.(check bool) "the frame arrives intact" true
      (Domain.join reader = Ok (Some payload))
  in
  (* outside a loop: blocked in select, not burning the CPU *)
  let a, reader = start () in
  let cpu () =
    let t = Unix.times () in
    t.tms_utime +. t.tms_stime
  in
  let c0 = cpu () in
  P.Io.write_frame (P.Io.of_fd a) payload;
  let spent = cpu () -. c0 in
  Unix.close a;
  arrived reader;
  if spent >= 0.05 then Alcotest.failf "writer burned %.0f ms of CPU" (spent *. 1000.);
  (* on a loop: parked, and a sibling fiber runs meanwhile *)
  let a, reader = start () in
  let writing = ref true and ticks = ref 0 in
  Aio.run (Aio.create ()) (fun () ->
      Aio.spawn (fun () ->
          while !writing do
            Aio.sleep 0.005;
            incr ticks
          done);
      P.Io.write_frame (P.Io.of_fd a) payload;
      writing := false);
  Aio.close a;
  arrived reader;
  Alcotest.(check bool) "a sibling fiber ran while the writer waited" true (!ticks >= 5)

(* A deadline read on a fiber of a frame already sitting in the socket,
   larger than the reader's buffer: the read that fills the buffer
   leaves bytes no new edge will announce, so the next read must not
   wait for one. *)
let test_read_frame_past_full_buffer () =
  let payload = String.make 65536 'x' in
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close a; Aio.close b) @@ fun () ->
  P.Io.write_frame (P.Io.of_fd a) payload;
  Unix.set_nonblock b;
  let got = ref (Error "not read") in
  let t0 = Unix.gettimeofday () in
  Aio.run (Aio.create ()) (fun () ->
      let io = P.Io.of_fd b in
      P.Io.set_deadline io (Unix.gettimeofday () +. 2.);
      got := try P.Io.read_frame io with P.Io.Read_timeout -> Error "read timed out");
  Alcotest.(check bool) "the whole frame" true (!got = Ok (Some payload));
  Alcotest.(check bool) "without waiting out the deadline" true
    (Unix.gettimeofday () -. t0 < 1.)

(* The reactor serves the serial and the pipelined client over one
   connection, exposes connection occupancy in STATS, and drains
   gracefully with every acked write durable. *)
let test_reactor_smoke () =
  match Serve.Reactor.start (reactor_config ()) with
  | exception e when loopback_unavailable e ->
      Printf.printf "reactor smoke skipped: loopback sockets unavailable\n"
  | srv ->
      let stopped = ref false in
      Fun.protect
        ~finally:(fun () -> if not !stopped then Serve.Reactor.stop srv)
      @@ fun () ->
      let c =
        Serve.Client.connect ~retries:50 ~host:"127.0.0.1"
          ~port:(Serve.Reactor.port srv) ()
      in
      Serve.Client.ping c;
      let ok = function
        | Ok v -> v
        | Error _ -> Alcotest.fail "request failed against the reactor"
      in
      ok (Serve.Client.put c ~key:"alpha" ~value:"1");
      let _txid, _epoch =
        ok (Serve.Client.mput c [ ("beta", "2"); ("gamma", "3") ])
      in
      Alcotest.(check (option string)) "get over the reactor" (Some "1")
        (ok (Serve.Client.get c "alpha"));
      Alcotest.(check (list (option string)))
        "mget over the reactor"
        [ Some "2"; None ]
        (ok (Serve.Client.mget c [ "beta"; "nope" ]));
      Alcotest.(check (list (pair string string)))
        "scan over the reactor"
        [ ("alpha", "1"); ("beta", "2"); ("gamma", "3") ]
        (ok (Serve.Client.scan c ~prefix:"" ~max:10));
      (match Serve.Client.stats c with
      | Ok j -> (
          match Obs.Json.member "conns" j with
          | Some (Obs.Json.Obj fields) ->
              (match List.assoc_opt "open" fields with
              | Some (Obs.Json.Int n) ->
                  Alcotest.(check bool) "STATS counts this connection" true
                    (n >= 1)
              | _ -> Alcotest.fail "conns.open missing from STATS")
          | _ -> Alcotest.fail "conns occupancy missing from STATS")
      | Error e -> Alcotest.fail ("stats: " ^ e));
      (* pipelined: a window of interleaved writes and reads completes
         with every response matched back to its submission *)
      let p = Serve.Client.Pipeline.create ~window:8 c in
      let tickets =
        List.init 24 (fun i ->
            if i mod 2 = 0 then
              ( i,
                `Put,
                Serve.Client.Pipeline.submit p
                  (P.Put (Printf.sprintf "pk%02d" i, string_of_int i)) )
            else (i, `Get, Serve.Client.Pipeline.submit p (P.Get "alpha")))
      in
      List.iter
        (fun (i, kind, tk) ->
          match (kind, Serve.Client.Pipeline.await p tk) with
          | `Put, P.Ok -> ()
          | `Get, P.Val "1" -> ()
          | _ -> Alcotest.fail (Printf.sprintf "pipelined response %d wrong" i))
        tickets;
      Alcotest.(check int) "window fully drained" 0
        (Serve.Client.Pipeline.inflight p);
      Alcotest.(check bool) "reactor saw this connection" true
        (Serve.Reactor.live_conns srv >= 1);
      Serve.Client.close c;
      (* graceful drain: acked writes remain durable in the engine *)
      Serve.Reactor.drain srv;
      stopped := true;
      let e = Serve.Reactor.engine srv in
      (match E.get e ~tid:0 "pk22" with
      | Ok (Some "22") -> ()
      | _ -> Alcotest.fail "acked pipelined write lost across drain")

(* Out-of-order completion: a hand-rolled server reads a whole window
   of requests and answers them in REVERSE order — the pipelined
   client must match responses back by RID, not arrival order. *)
let test_pipeline_rid_matching () =
  let n = 8 in
  match Unix.socket PF_INET SOCK_STREAM 0 with
  | exception e when loopback_unavailable e ->
      Printf.printf "pipeline RID skipped: loopback sockets unavailable\n"
  | srv_fd -> (
      match
        Unix.setsockopt srv_fd SO_REUSEADDR true;
        Unix.bind srv_fd (ADDR_INET (Unix.inet_addr_loopback, 0));
        Unix.listen srv_fd 4
      with
      | exception e when loopback_unavailable e ->
          (try Unix.close srv_fd with Unix.Unix_error _ -> ());
          Printf.printf "pipeline RID skipped: loopback sockets unavailable\n"
      | () ->
          let port =
            match Unix.getsockname srv_fd with
            | ADDR_INET (_, p) -> p
            | ADDR_UNIX _ -> assert false
          in
          let server =
            Domain.spawn (fun () ->
                let fd, _ = Unix.accept srv_fd in
                let io = P.Io.of_fd fd in
                let batch = ref [] in
                (try
                   for _ = 1 to n do
                     match P.Io.read_frame io with
                     | Ok (Some payload) -> (
                         match P.decode_req_env payload with
                         | Ok (env, P.Get k) ->
                             batch := (env.P.rid, k) :: !batch
                         | _ -> ())
                     | _ -> ()
                   done
                 with _ -> ());
                (* reverse arrival order: last request answered first *)
                List.iter
                  (fun (rid, k) ->
                    P.Io.write_frame io (P.encode_resp ~rid (P.Val ("v:" ^ k))))
                  !batch;
                (try Unix.close fd with Unix.Unix_error _ -> ());
                try Unix.close srv_fd with Unix.Unix_error _ -> ())
          in
          let c = Serve.Client.connect ~retries:50 ~host:"127.0.0.1" ~port () in
          let p = Serve.Client.Pipeline.create ~window:n c in
          let tickets =
            List.init n (fun i ->
                ( i,
                  Serve.Client.Pipeline.submit p
                    (P.Get (Printf.sprintf "k%d" i)) ))
          in
          List.iter
            (fun (i, tk) ->
              match Serve.Client.Pipeline.await p tk with
              | P.Val v ->
                  Alcotest.(check string) "response matched by RID"
                    (Printf.sprintf "v:k%d" i) v
              | _ -> Alcotest.fail "unexpected response shape")
            tickets;
          Serve.Client.close c;
          Domain.join server)

(* Chaos round against the REACTOR path: pipelined tokened writes with
   drops/truncates/delays injected must still land exactly once — the
   client's recovery (token resolve before resend) plus the server's
   outcome ledger give one commit record per token, and every acked
   write is durable. *)
let test_reactor_pipelined_chaos () =
  let plan =
    {
      Serve.Chaos.default_plan with
      seed = 909;
      drop_prob = 0.2;
      truncate_prob = 0.04;
      delay_prob = 0.1;
      delay_us = 150;
    }
  in
  let src = Serve.Chaos.source plan in
  match Serve.Reactor.start (reactor_config ~chaos:src ()) with
  | exception e when loopback_unavailable e ->
      Printf.printf "reactor chaos skipped: loopback sockets unavailable\n"
  | srv ->
      Fun.protect ~finally:(fun () -> Serve.Reactor.stop srv) @@ fun () ->
      let policy = { Serve.Client.call_timeout = 0.2; max_retries = 10 } in
      let c =
        Serve.Client.connect ~retries:50 ~retry_delay:0.005 ~policy
          ~host:"127.0.0.1" ~port:(Serve.Reactor.port srv) ()
      in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      let n = 24 in
      let toks = Array.init n (fun _ -> Serve.Client.fresh_tok c) in
      let key i = Printf.sprintf "p%02d" i in
      let p = Serve.Client.Pipeline.create ~window:6 c in
      let tickets =
        List.init n (fun i ->
            ( i,
              Serve.Client.Pipeline.submit ~tok:toks.(i) p
                (P.Put (key i, string_of_int i)) ))
      in
      let acked = Array.make n false in
      List.iter
        (fun (i, tk) ->
          match Serve.Client.Pipeline.await p tk with
          | P.Ok | P.Txstat_committed _ -> acked.(i) <- true
          | P.Overloaded | P.Timeout | P.Txstat_unknown | P.Unavail _
          | P.Shard_unavailable _ | P.In_doubt _ ->
              ()  (* settled serially below *)
          | P.Err e -> Alcotest.fail ("pipelined put: " ^ e)
          | _ -> Alcotest.fail "unexpected pipelined response shape")
        tickets;
      (* settle the stragglers through the serial exactly-once path,
         reusing each write's original token *)
      for i = 0 to n - 1 do
        if not acked.(i) then begin
          match
            Serve.Client.put ~tok:toks.(i) c ~key:(key i)
              ~value:(string_of_int i)
          with
          | Ok () -> acked.(i) <- true
          | Error (`InDoubt _) ->
              Alcotest.fail "tokened put must resolve, not stay in doubt"
          | Error _ -> Alcotest.fail ("put failed under chaos: " ^ key i)
        end
      done;
      (* every acked write durable, with exactly one outcome record *)
      let e = Serve.Reactor.engine srv in
      for i = 0 to n - 1 do
        (match E.get e ~tid:0 (key i) with
        | Ok (Some v) when v = string_of_int i -> ()
        | _ -> Alcotest.fail ("acked write missing after chaos: " ^ key i));
        match Serve.Client.txstat c toks.(i) with
        | Ok (Serve.Ledger.Tx_committed { records; _ }) ->
            if records <> 1 then
              Alcotest.fail
                (Printf.sprintf "tok %d: %d outcome records (duplicated \
                                 commit)" toks.(i) records)
        | Ok (Serve.Ledger.Tx_aborted | Serve.Ledger.Tx_unknown) ->
            Alcotest.fail "acked token not committed at audit"
        | Error _ -> Alcotest.fail "audit TXSTAT failed"
      done;
      Alcotest.(check bool) "chaos actually injected faults" true
        (Serve.Chaos.total_faults src > 0)

(* Pipeline [reqs] over one fresh connection in a SINGLE write, so the
   reactor finds them queued at its ingress together, and return the
   responses in request order (matched back by RID). *)
let pipeline_at_once ~port reqs =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
  let buf = Buffer.create 4096 in
  List.iteri
    (fun i r ->
      let p = P.encode_req ~rid:(i + 1) r in
      Buffer.add_string buf (Printf.sprintf "%d\n%s" (String.length p) p))
    reqs;
  let s = Buffer.contents buf in
  let rec send off =
    if off < String.length s then
      send (off + Unix.write_substring fd s off (String.length s - off))
  in
  send 0;
  let io = P.Io.of_fd fd in
  P.Io.set_deadline io (Unix.gettimeofday () +. 20.);
  let out = Array.make (List.length reqs) None in
  List.iter
    (fun _ ->
      match P.Io.read_frame io with
      | Ok (Some payload) -> (
          match P.decode_resp_rid payload with
          | Ok (rid, resp) -> out.(rid - 1) <- Some resp
          | Error e -> Alcotest.fail ("bad response: " ^ e))
      | _ -> Alcotest.fail "connection ended before every response")
    reqs;
  Array.to_list (Array.map Option.get out)

(* Group commit forms its batches at the reactor's ingress: at zero
   linger on one event loop, 40 PUTs to one shard pipelined in one go
   must share PTM transactions (a worker that committed each request
   alone would leave every batch at size 1), and every acked PUT must
   read back. *)
let test_reactor_batch_formation () =
  match
    Serve.Reactor.start (reactor_config ~reactors:1 ~max_inflight:64 ())
  with
  | exception e when loopback_unavailable e ->
      Printf.printf "batch formation skipped: loopback sockets unavailable\n"
  | srv ->
      Fun.protect ~finally:(fun () -> Serve.Reactor.stop srv) @@ fun () ->
      let e = Serve.Reactor.engine srv in
      let shard = 1 in
      let keys =
        List.init 40 (fun i -> key_on e shard (Printf.sprintf "b%02d-" i))
      in
      let resps =
        pipeline_at_once ~port:(Serve.Reactor.port srv)
          (List.map (fun k -> P.Put (k, "v:" ^ k)) keys)
      in
      List.iter
        (fun r -> if r <> P.Ok then Alcotest.fail "pipelined PUT not acked")
        resps;
      let sizes = E.batch_sizes e ~shard in
      Alcotest.(check int) "batches cover every PUT" 40
        (List.fold_left ( + ) 0 sizes);
      Alcotest.(check bool)
        (Printf.sprintf "some batch holds more than one PUT (sizes %s)"
           (String.concat "," (List.map string_of_int sizes)))
        true
        (List.exists (fun n -> n > 1) sizes);
      List.iter
        (fun k ->
          Alcotest.(check (option string)) ("acked PUT reads back: " ^ k)
            (Some ("v:" ^ k)) (present e k))
        keys

(* Grouping must keep each key's write order: one connection pipelines
   interleaved PUT/DEL runs over a few keys (with reads between them,
   which a group skips over) and one MPUT between two PUTs of the same
   key.  Afterwards every key holds the last write sent. *)
let test_reactor_write_order () =
  match
    Serve.Reactor.start (reactor_config ~reactors:1 ~max_inflight:128 ())
  with
  | exception e when loopback_unavailable e ->
      Printf.printf "write order skipped: loopback sockets unavailable\n"
  | srv ->
      Fun.protect ~finally:(fun () -> Serve.Reactor.stop srv) @@ fun () ->
      let key j = Printf.sprintf "ord%d" j in
      let run i =
        let k = key (i mod 4) in
        if i mod 7 = 6 then P.Get k
        else if i mod 5 = 3 then P.Del k
        else P.Put (k, Printf.sprintf "v%d" i)
      in
      let reqs =
        List.init 30 run
        @ [ P.Mput [ (key 1, "mput"); (key 2, "mput") ] ]
        @ List.init 30 (fun i -> run (i + 30))
        @ [ P.Mput [ (key 3, "last") ] ]
      in
      let resps = pipeline_at_once ~port:(Serve.Reactor.port srv) reqs in
      List.iter2
        (fun req resp ->
          match (req, resp) with
          | (P.Put _ | P.Del _), P.Ok
          | P.Mput _, P.Committed _
          | P.Get _, (P.Val _ | P.Nil) ->
              ()
          | _ -> Alcotest.fail "pipelined request failed")
        reqs resps;
      let model = Hashtbl.create 4 in
      List.iter
        (function
          | P.Put (k, v) -> Hashtbl.replace model k (Some v)
          | P.Del k -> Hashtbl.replace model k None
          | P.Mput kvs -> List.iter (fun (k, v) -> Hashtbl.replace model k (Some v)) kvs
          | _ -> ())
        reqs;
      let e = Serve.Reactor.engine srv in
      for j = 0 to 3 do
        Alcotest.(check (option string))
          (key j ^ " holds the last write sent")
          (Hashtbl.find model (key j))
          (present e (key j))
      done

let suites =
  [
    ( "serve-protocol",
      [
        Alcotest.test_case "round-trips" `Quick test_protocol_roundtrip;
        Alcotest.test_case "malformed input is rejected" `Quick
          test_protocol_malformed;
        Alcotest.test_case "RID trace context round-trips" `Quick
          test_rid_roundtrip;
        Alcotest.test_case "METRICS/TEXT round-trips" `Quick
          test_metrics_roundtrip;
        Alcotest.test_case "RID/TTL/TOK envelope round-trips" `Quick
          test_env_roundtrip;
        Alcotest.test_case "malformed envelopes are rejected" `Quick
          test_env_malformed;
        Alcotest.test_case "frame decoder survives dribble and garbage" `Quick
          test_io_framing_fuzz;
        Alcotest.test_case
          "incremental decoder survives dribble, coalescing and garbage"
          `Quick test_decoder_incremental;
        Alcotest.test_case "chaos plans pp/parse round-trip" `Quick
          test_chaos_plan_roundtrip;
      ] );
    ( "serve-engine",
      [
        Alcotest.test_case "shard router vs model" `Quick test_router_model;
        Alcotest.test_case "scan beside commit metadata vs model" `Quick
          test_scan_beside_commit_metadata;
        Alcotest.test_case "deterministic batch formation" `Quick
          test_batch_determinism;
        Alcotest.test_case "stalled client cannot block batches" `Quick
          test_stalled_client_adversary;
        Alcotest.test_case "mid-batch crash atomicity" `Quick
          test_midbatch_crash_atomicity;
        Alcotest.test_case "overload backpressure" `Quick
          test_overload_backpressure;
        Alcotest.test_case "crash under concurrent domain load" `Quick
          test_domain_crash_under_load;
      ] );
    ( "serve-commit",
      [
        Alcotest.test_case "2PC phase-boundary crash sweep" `Quick
          test_commit_phase_crash_sweep;
        Alcotest.test_case "commit epochs monotone across crashes" `Quick
          test_commit_epoch_monotone;
        Alcotest.test_case "mutant: skip-2pc leaves a prefix" `Quick
          test_mutant_skip_2pc;
        Alcotest.test_case "mutant: no roll-forward loses acked MPUT" `Quick
          test_mutant_no_rollforward;
        Alcotest.test_case "scan never observes a partial MPUT" `Quick
          test_scan_never_observes_partial_mput;
        Alcotest.test_case "stalled coordinator is helped to completion" `Quick
          test_stalled_coordinator_helping;
        Alcotest.test_case "a writer stalled across its merged decision is helped"
          `Quick test_stalled_writer_merged_commit;
        Alcotest.test_case "a frozen writer's slot is never reused" `Quick
          test_slot_reuse;
        Alcotest.test_case "MPUT leaves a causally-ordered span tree" `Quick
          test_sched_span_tree;
        Alcotest.test_case "a 4-shard MPUT costs 7 PTM transactions" `Quick
          test_mput_txn_budget;
      ] );
    ( "serve-wire",
      [ Alcotest.test_case "loopback socket smoke" `Quick test_socket_smoke ] );
    ( "serve-reactor",
      [
        Alcotest.test_case "aio loop: timers, suspend, posts, fiber IO" `Quick
          test_aio_loop;
        Alcotest.test_case "reactor front-end smoke (serial + pipelined)"
          `Quick test_reactor_smoke;
        Alcotest.test_case "permuted responses match back by RID" `Quick
          test_pipeline_rid_matching;
        Alcotest.test_case "chaos round on the reactor path is exactly-once"
          `Quick test_reactor_pipelined_chaos;
        Alcotest.test_case "pipelined writes form group-commit batches" `Quick
          test_reactor_batch_formation;
        Alcotest.test_case "grouped writes keep per-key order" `Quick
          test_reactor_write_order;
      ] );
    ( "serve-client",
      [
        Alcotest.test_case "a client on an Aio fiber does not stall its loop"
          `Quick test_client_on_fiber;
        Alcotest.test_case "resilient pipeline turns OVERLOADED into acks"
          `Quick test_pipeline_retries_overload;
        Alcotest.test_case "default policy delivers OVERLOADED raw" `Quick
          test_pipeline_default_raw;
        Alcotest.test_case "resilient write rides out a CRASH" `Quick
          test_resilient_write_rides_out_crash;
        Alcotest.test_case "UNAVAILABLE spends no retry" `Quick
          test_unavailable_spends_no_retry;
        Alcotest.test_case "a pipeline's backoffs overlap" `Quick
          test_pipeline_backoffs_overlap;
        Alcotest.test_case "write_frame parks on a full socket" `Quick
          test_write_frame_parks;
        Alcotest.test_case "a fiber's deadline read takes a frame past its buffer"
          `Quick test_read_frame_past_full_buffer;
      ] );
    ( "serve-resilience",
      [
        Alcotest.test_case "expired deadlines shed before durable work" `Quick
          test_deadline_shed_engine;
        Alcotest.test_case "tokened retries are exactly-once (TXSTAT)" `Quick
          test_exactly_once_txstat;
        Alcotest.test_case "acked writes survive engine reopen" `Quick
          test_backed_reopen;
        Alcotest.test_case "cut-down region file is recreated, not refused"
          `Quick test_unformatted_region_recreated;
        Alcotest.test_case "client call timeout is bounded" `Quick
          test_client_call_timeout;
        Alcotest.test_case "mid-frame disconnects leak no handler slots" `Quick
          test_midframe_disconnect_no_leak;
        Alcotest.test_case "TTL expiry sheds queued writes over the wire"
          `Quick test_ttl_shed_over_wire;
        Alcotest.test_case "graceful drain keeps acked writes" `Quick
          test_graceful_drain;
        Alcotest.test_case "resilient client rides out injected chaos" `Quick
          test_resilient_client_under_chaos;
      ] );
    ( "serve-health",
      [
        Alcotest.test_case "quarantine isolates one shard under load" `Quick
          test_quarantine_under_load;
        Alcotest.test_case "a snapshot carries only the live extent" `Quick
          test_snapshot_live_extent;
        Alcotest.test_case "snapshot round-trips into a fresh region" `Quick
          test_snapshot_roundtrip;
        Alcotest.test_case "mid-2PC participant quarantine aborts cleanly"
          `Quick test_mid_2pc_quarantine;
        Alcotest.test_case "mutant: no-scrub-verify hides rot from the scrub"
          `Quick test_mutant_no_scrub_verify;
        Alcotest.test_case "decided MPUT whole: coordinator rots, rebuilt" `Quick
          (test_rot_then_rebuild ~rot:[ 0 ] ~rebuild:[ 0 ]);
        Alcotest.test_case "decided MPUT whole: both rot, participant first"
          `Quick
          (test_rot_then_rebuild ~rot:[ 0; 1 ] ~rebuild:[ 1; 0 ]);
        Alcotest.test_case "decided MPUT whole: both rot, coordinator first"
          `Quick
          (test_rot_then_rebuild ~rot:[ 0; 1 ] ~rebuild:[ 0; 1 ]);
        Alcotest.test_case "recovery holds an in-doubt transaction's slot" `Quick
          test_recovery_holds_in_doubt_slot;
        Alcotest.test_case "rebuild beside a live MPUT never half-applies it"
          `Quick test_rebuild_beside_live_commit;
        Alcotest.test_case "a rebuild under a live prepare aborts the MPUT"
          `Quick test_rebuild_under_prepare;
        Alcotest.test_case "a rebuild under the merged decision answers by the record"
          `Quick test_rebuild_under_decision;
        Alcotest.test_case "a rebuild under a PUT never acks it lost" `Quick
          test_rebuild_under_put;
        Alcotest.test_case "forgets ride the coordinator's next decision" `Quick
          test_forgets_ride_next_decision;
        Alcotest.test_case "a rebuild settles a decision lost under quarantine" `Quick
          test_rebuild_settles_lost_decision;
        Alcotest.test_case "a participant's rebuild settles a decision its apply left live"
          `Quick (test_rebuild_settles_participant ~unreachable:`Writer);
        Alcotest.test_case "a participant's rebuild settles what recovery held" `Quick
          (test_rebuild_settles_participant ~unreachable:`Recovery);
        Alcotest.test_case "an earlier-format store is refused by name" `Quick
          test_earlier_format_refused;
        Alcotest.test_case "a helper ignores a dropped coordinator's record" `Quick
          test_helper_stale_coordinator;
        Alcotest.test_case "txids of quarantined shards are never reused"
          `Quick
          (test_quarantined_txids ~first:(C.Prepare 1) ~before:[ 0 ] ~cut:false);
        Alcotest.test_case "a rebuilt coordinator's txids are never reused"
          `Quick
          (test_quarantined_txids ~first:C.Decide ~before:[ 0 ] ~cut:true);
        Alcotest.test_case "a reused txid never decides an aborted MPUT"
          `Quick test_reused_txid;
      ] );
  ]
