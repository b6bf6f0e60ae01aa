(* Serve.Write_audit against a fake reader: each violation class from a
   history built to break exactly that rule, a clean history that breaks
   none, and the untokened path, which must never ask for TXSTAT. *)

module W = Serve.Write_audit
module L = Serve.Ledger

(* A durable image of [kvs] and a ledger of [ledger]; [reads] keys fail
   to read.  [txstats] counts the TXSTATs the audit sent. *)
let fake ?(unreadable = []) ?(ledger = []) kvs =
  let txstats = ref 0 in
  let reader =
    {
      W.read =
        List.map (fun k ->
            if List.mem k unreadable then Error "refused" else Ok (List.assoc_opt k kvs));
      txstat =
        (fun tok ->
          incr txstats;
          Ok (Option.value (List.assoc_opt tok ledger) ~default:L.Tx_aborted));
    }
  in
  (reader, txstats)

let committed records = L.Tx_committed { txid = 1; epoch = 1; records }
let group tag = [ (tag ^ ".a", tag ^ "-va"); (tag ^ ".b", tag ^ "-vb") ]
let write ?(tok = 0) outcome kvs = { W.tok; kvs; outcome }

(* Exactly the violations [want] (class and count), nothing else. *)
let expect want rep =
  List.iter
    (fun cls ->
      let n = Option.value (List.assoc_opt cls want) ~default:0 in
      Alcotest.(check int) (W.class_name cls) n (W.count rep cls))
    W.classes;
  Alcotest.(check int) "one message per violation" (W.total rep) (List.length rep.W.messages)

let one_class cls ?unreadable ?ledger image history () =
  let reader, _ = fake ?unreadable ?ledger image in
  expect [ (cls, 1) ] (W.check reader history)

let g = group "g"

let cases =
  [
    ( "mangled value",
      one_class W.Mangled [ ("k", "other") ] [ write W.Ambiguous [ ("k", "v") ] ] );
    ( "half-applied group",
      one_class W.Half_applied [ List.hd g ] [ write W.Ambiguous g ] );
    ( "acked write missing",
      one_class W.Acked_missing [] [ write W.Acked [ ("k", "v") ] ] );
    ( "acked token aborted",
      one_class W.Acked_missing g [ write ~tok:7 W.Acked g ] );
    ( "aborted token left keys",
      one_class W.Aborted_with_keys g [ write ~tok:7 W.Ambiguous g ] );
    ( "duplicated commit",
      one_class W.Duplicated_commit ~ledger:[ (7, committed 2) ] g
        [ write ~tok:7 W.Acked g ] );
    ( "unknown after quiesce",
      one_class W.Unknown_after_quiesce ~ledger:[ (7, L.Tx_unknown) ] []
        [ write ~tok:7 W.Failed g ] );
    ( "refused write present",
      one_class W.Unacked_present [ ("k", "v") ] [ write W.Failed [ ("k", "v") ] ] );
    ( "unreadable key",
      one_class W.Unreadable ~unreadable:[ "k" ] [] [ write W.Acked [ ("k", "v") ] ] );
  ]

let test_clean () =
  let c1 = group "c1" and c2 = group "c2" and c3 = group "c3" in
  let reader, _ =
    fake
      ~ledger:[ (1, committed 1); (2, committed 1); (4, committed 1) ]
      (c1 @ c2 @ c3 @ [ ("p", "vp"); ("q", "vq") ])
  in
  let rep =
    W.check reader
      [
        write ~tok:1 W.Acked c1;
        write ~tok:2 W.Ambiguous c2 (* lost ack, committed *);
        write ~tok:3 W.Failed (group "absent") (* aborted, nothing left *);
        write ~tok:4 W.Failed c3 (* refused after an earlier attempt landed *);
        write W.Acked [ ("p", "vp") ];
        write W.Ambiguous [ ("q", "vq") ] (* timed out, landed *);
        write W.Ambiguous [ ("r", "vr") ] (* timed out, did not *);
        write W.Failed [ ("s", "vs") ];
      ]
  in
  expect [] rep;
  Alcotest.(check (list int)) "acked, ambiguous, failed" [ 2; 3; 3 ]
    [ rep.acked; rep.ambiguous; rep.failed ];
  Alcotest.(check int) "unacked writes found applied" 3 rep.applied_unacked

let test_untokened () =
  let reader, txstats = fake [ ("p", "vp"); ("m.a", "x"); ("m.b", "x") ] in
  let rep =
    W.check reader
      [
        write W.Acked [ ("p", "vp") ];
        write W.Ambiguous [ ("m.a", "x"); ("m.b", "x") ];
        write W.Failed [ ("gone", "v") ];
      ]
  in
  expect [] rep;
  Alcotest.(check int) "no TXSTAT sent" 0 !txstats

let test_unreadable_tokened () =
  let reader, txstats =
    fake ~unreadable:[ fst (List.hd g) ] ~ledger:[ (7, committed 2) ] g
  in
  expect
    [ (W.Unreadable, 1); (W.Duplicated_commit, 1) ]
    (W.check reader [ write ~tok:7 W.Acked g ]);
  Alcotest.(check int) "TXSTAT still sent" 1 !txstats

let suites =
  [
    ( "serve-audit",
      List.map (fun (name, f) -> Alcotest.test_case name `Quick f) cases
      @ [
          Alcotest.test_case "clean history" `Quick test_clean;
          Alcotest.test_case "untokened writes send no TXSTAT" `Quick test_untokened;
          Alcotest.test_case "unreadable token still resolved" `Quick
            test_unreadable_tokened;
        ] );
  ]
