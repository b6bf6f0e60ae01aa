(* Deep recovery tests: crash after every small batch of a long workload
   (not just once at the end), across a sweep of eviction probabilities,
   for each PTM.  Catches bugs that only appear after repeated
   crash-recover epochs (e.g. stale durable headers, state reuse across
   epochs).  Torn-epoch and concurrent variants exercise the media-fault
   crash path ([crash_with_faults]) under the same oracle. *)

module Make (P : Ptm.Ptm_intf.S) = struct
  module H = Pds.Hash_set.Make (P)
  module I64Set = Set.Make (Int64)

  let run_epochs ?(torn_prob = 0.) ~epochs ~batch ~evict_prob ~seed () =
    let p = P.create ~num_threads:2 ~words:(1 lsl 15) () in
    H.init p ~tid:0 ~slot:1;
    let model = ref I64Set.empty in
    let st = Random.State.make [| seed |] in
    for epoch = 1 to epochs do
      for _ = 1 to batch do
        let k = Int64.of_int (Random.State.int st 200) in
        if Random.State.bool st then begin
          ignore (H.add p ~tid:0 ~slot:1 k);
          model := I64Set.add k !model
        end
        else begin
          ignore (H.remove p ~tid:0 ~slot:1 k);
          model := I64Set.remove k !model
        end
      done;
      if torn_prob > 0. then
        P.crash_with_faults p ~seed:(seed + epoch) ~evict_prob ~torn_prob
          ~bitflips:0
      else if evict_prob <= 0. then P.crash_and_recover p
      else P.crash_with_evictions p ~seed:(seed + epoch) ~prob:evict_prob;
      Alcotest.(check int)
        (Printf.sprintf "cardinality (epoch %d)" epoch)
        (I64Set.cardinal !model)
        (H.cardinal p ~tid:0 ~slot:1);
      I64Set.iter
        (fun k ->
          if not (H.contains p ~tid:0 ~slot:1 k) then
            Alcotest.failf "lost key %Ld in epoch %d" k epoch)
        !model
    done

  let test_many_epochs_strict () =
    run_epochs ~epochs:12 ~batch:25 ~evict_prob:0. ~seed:1 ()

  let test_eviction_sweep () =
    List.iter
      (fun prob -> run_epochs ~epochs:5 ~batch:20 ~evict_prob:prob ~seed:99 ())
      [ 0.1; 0.3; 0.5; 0.7; 0.9; 1.0 ]

  (* Every at-crash eviction persists only a partial line: fenced metadata
     must survive untouched, so recovery must still be exact. *)
  let test_torn_epochs () =
    List.iter
      (fun (evict_prob, torn_prob) ->
        run_epochs ~epochs:4 ~batch:20 ~evict_prob ~torn_prob ~seed:31 ())
      [ (0.5, 0.5); (0.7, 1.0); (1.0, 1.0) ]

  (* Satellite: a concurrent batch across >= 4 domains, then a quiescent
     crash with evictions and torn lines.  Each domain owns a disjoint key
     range so the final model is deterministic despite interleaving. *)
  let test_concurrent_batch_then_crash () =
    let domains = 4 and per_domain = 25 in
    let p = P.create ~num_threads:domains ~words:(1 lsl 15) () in
    H.init p ~tid:0 ~slot:1;
    let worker tid =
      for i = 0 to per_domain - 1 do
        let k = Int64.of_int ((tid * 1000) + i) in
        ignore (H.add p ~tid ~slot:1 k);
        if i mod 3 = 0 then ignore (H.remove p ~tid ~slot:1 k)
      done
    in
    List.init domains (fun tid -> Domain.spawn (fun () -> worker tid))
    |> List.iter Domain.join;
    let model = ref I64Set.empty in
    for tid = 0 to domains - 1 do
      for i = 0 to per_domain - 1 do
        if i mod 3 <> 0 then
          model := I64Set.add (Int64.of_int ((tid * 1000) + i)) !model
      done
    done;
    P.crash_with_faults p ~seed:77 ~evict_prob:0.6 ~torn_prob:0.5 ~bitflips:0;
    Alcotest.(check int)
      "cardinality after concurrent batch + faulty crash"
      (I64Set.cardinal !model)
      (H.cardinal p ~tid:0 ~slot:1);
    I64Set.iter
      (fun k ->
        if not (H.contains p ~tid:0 ~slot:1 k) then
          Alcotest.failf "lost key %Ld after concurrent batch" k)
      !model

  let test_crash_immediately_after_create () =
    let p = P.create ~num_threads:2 ~words:(1 lsl 14) () in
    P.crash_and_recover p;
    H.init p ~tid:0 ~slot:1;
    ignore (H.add p ~tid:0 ~slot:1 1L);
    P.crash_and_recover p;
    Alcotest.(check bool) "usable after create-crash" true
      (H.contains p ~tid:0 ~slot:1 1L)

  let test_double_crash_without_ops () =
    let p = P.create ~num_threads:2 ~words:(1 lsl 14) () in
    H.init p ~tid:0 ~slot:1;
    ignore (H.add p ~tid:0 ~slot:1 5L);
    P.crash_and_recover p;
    P.crash_and_recover p;
    Alcotest.(check bool) "state stable across idle crashes" true
      (H.contains p ~tid:0 ~slot:1 5L)

  let suites =
    [
      ( "recovery[" ^ P.name ^ "]",
        [
          Alcotest.test_case "many epochs (strict)" `Quick test_many_epochs_strict;
          Alcotest.test_case "eviction probability sweep" `Slow
            test_eviction_sweep;
          Alcotest.test_case "torn-line epochs" `Quick test_torn_epochs;
          Alcotest.test_case "concurrent batch then faulty crash" `Quick
            test_concurrent_batch_then_crash;
          Alcotest.test_case "crash right after create" `Quick
            test_crash_immediately_after_create;
          Alcotest.test_case "double crash, no ops" `Quick
            test_double_crash_without_ops;
        ] );
    ]
end

(* The curComb fallback rule of CX and Redo, one case at a time.  The
   durable layout: word 0 is the sealed header, word [1 + i] replica [i]'s
   sealed (seq, index) record, and [meta_ranges] spans exactly those
   words.  Each case breaks the header's seal, plants records, and
   crashes. *)
module Fallback (P : Ptm.Ptm_intf.S) = struct
  module H = Pds.Hash_set.Make (P)

  let keys = List.init 20 Int64.of_int
  let seal ~seq ~idx = Pmem.Checksum.seal (Ptm.Seqtid.pack ~seq ~tid:0 ~idx)

  let unseal w = Pmem.Checksum.unseal w (* a Seqtid.t payload *)

  (* Durably store [w] at [addr]. *)
  let poke p addr w =
    let pm = P.pmem p in
    Pmem.set_word pm ~tid:0 addr w;
    Pmem.pwb pm ~tid:0 addr;
    Pmem.psync pm ~tid:0

  (* A populated instance, its record count, and its newest record's
     (seq, replica); the header's seal is broken. *)
  let broken_header () =
    let p = P.create ~num_threads:2 ~words:(1 lsl 14) () in
    H.init p ~tid:0 ~slot:1;
    List.iter (fun k -> ignore (H.add p ~tid:0 ~slot:1 k)) keys;
    let nrec =
      match P.meta_ranges p with
      | [ (0, last) ] -> last
      | _ -> Alcotest.fail "meta_ranges is not the header line"
    in
    let newest = ref None in
    for i = 0 to nrec - 1 do
      match unseal (Pmem.durable_word (P.pmem p) (1 + i)) with
      | Some st -> (
          match !newest with
          | Some (seq, _) when seq >= Ptm.Seqtid.seq st -> ()
          | _ -> newest := Some (Ptm.Seqtid.seq st, i))
      | None -> ()
    done;
    let newest =
      match !newest with
      | Some n -> n
      | None -> Alcotest.fail "no sealed replica record"
    in
    let bad = Int64.logxor (Pmem.durable_word (P.pmem p) 0) 1L in
    Alcotest.(check bool) "flipped header fails its seal" true (unseal bad = None);
    poke p 0 bad;
    (p, nrec, newest)

  let test_newest_record_wins () =
    let p, _, (_, i) = broken_header () in
    P.crash_and_recover p;
    let st = unseal (Pmem.get_word (P.pmem p) 0) in
    Alcotest.(check (option int)) "recovered replica is the newest record's"
      (Some i) (Option.map Ptm.Seqtid.idx st);
    Alcotest.(check int) "cardinality" (List.length keys)
      (H.cardinal p ~tid:0 ~slot:1);
    List.iter
      (fun k ->
        if not (H.contains p ~tid:0 ~slot:1 k) then
          Alcotest.failf "lost committed key %Ld" k)
      keys

  (* Plant [record j] at another replica [j] than the newest, then
     recovery must refuse. *)
  let refuses record () =
    let p, nrec, (seq, i) = broken_header () in
    let j = (i + 1) mod nrec in
    poke p (1 + j) (record ~seq ~j ~nrec);
    match P.crash_and_recover p with
    | () -> Alcotest.fail "recovered past an ambiguous fallback"
    | exception Ptm.Ptm_intf.Unrecoverable _ -> ()

  let unsealable ~seq ~j ~nrec:_ =
    let w = Int64.logxor (seal ~seq ~idx:j) 1L in
    Alcotest.(check bool) "planted record fails its seal" true (unseal w = None);
    w

  let tied ~seq ~j ~nrec:_ = seal ~seq ~idx:j
  let foreign ~seq:_ ~j ~nrec = seal ~seq:0 ~idx:((j + 1) mod nrec)

  let suites =
    [
      (* Kept short: a suite name wider than every other one widens
         alcotest's name column and changes how other test names print. *)
      ( "curcomb[" ^ P.name ^ "]",
        [
          Alcotest.test_case "header broken, records intact" `Quick
            test_newest_record_wins;
          Alcotest.test_case "header broken, a record fails its seal" `Quick
            (refuses unsealable);
          Alcotest.test_case "header broken, newest records tie" `Quick
            (refuses tied);
          Alcotest.test_case "header broken, a record names another replica"
            `Quick (refuses foreign);
        ] );
    ]
end
