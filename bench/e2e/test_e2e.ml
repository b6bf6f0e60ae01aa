(* Unit tests of the benchmark's own logic: no sockets, no server. *)

open E2e

let check_bool = Alcotest.(check bool)

let zipf_is_seeded () =
  let w = Option.get (Gen.find "pipelined_zipf") in
  let ops seed = Array.to_list (Gen.prefix w ~seed 2000) in
  check_bool "same seed, same stream" true (ops 7 = ops 7);
  check_bool "other seed, other stream" false (ops 7 = ops 8)

let zipf_head_mass () =
  let n = 20_000 and theta = 0.99 and head = 10 in
  let zeta k =
    let s = ref 0. in
    for i = 1 to k do
      s := !s +. (1. /. Float.pow (float_of_int i) theta)
    done;
    !s
  in
  let expected = zeta head /. zeta n in
  let z = Gen.Zipf.create ~n ~theta in
  let rng = Random.State.make [| 42 |] in
  let draws = 100_000 in
  let hits = ref 0 in
  for _ = 1 to draws do
    if Gen.Zipf.sample z rng < head then incr hits
  done;
  let got = float_of_int !hits /. float_of_int draws in
  if Float.abs (got -. expected) > 0.01 then
    Alcotest.failf "top %d ranks drew %.4f of the mass, expected %.4f" head got expected

let p99_needs_1000 () =
  check_bool "999 samples: null" true (Stat.p99 (Array.make 999 1.) = None);
  check_bool "1000 samples: a value" true (Stat.p99 (Array.make 1000 1.) = Some 1.)

let quartiles_match_python () =
  (* statistics.quantiles(range(1, 11), n=4) = [2.75, 5.5, 8.25] *)
  let q1, q3 = Stat.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (float 1e-9)) "q1" 2.75 q1;
  Alcotest.(check (float 1e-9)) "q3" 8.25 q3

let point_value writer seq = Gen.value_of_tag { kind = Point; writer; seq }

(* Key 0: two acked writes, the second sent after the first was acked.
   Key 1: one write that failed. *)
let history () =
  let a = Audit.create ~points:2 ~groups:1 ~writers:1 in
  let l = a.plogs.(0) in
  Audit.ack l (Audit.record l ~target:0 ~t_send:1.) ~t:2.;
  Audit.ack l (Audit.record l ~target:0 ~t_send:3.) ~t:4.;
  Audit.fail l (Audit.record l ~target:1 ~t_send:5.);
  a

let violations f =
  let a = history () in
  f a;
  a.violations

let audit_flags_stale () =
  Alcotest.(check int) "newest acked value passes" 0 (violations (fun a -> Audit.check_point a 0 (Some (point_value 1 1))));
  Alcotest.(check int) "overwritten value is stale" 1 (violations (fun a -> Audit.check_point a 0 (Some (point_value 1 0))));
  Alcotest.(check int) "preload value is stale" 1 (violations (fun a -> Audit.check_point a 0 (Some (point_value 0 0))))

let audit_flags_failed_write () =
  Alcotest.(check int) "untouched key keeps its preload" 0
    (violations (fun a -> Audit.check_point a 1 (Some (point_value 0 1))));
  Alcotest.(check int) "failed write surfaced" 1 (violations (fun a -> Audit.check_point a 1 (Some (point_value 1 2))));
  let read_back key seq a =
    let r = Audit.reads () in
    Audit.add_read r ~key (Tag { kind = Point; writer = 1; seq }) ~t_reply:6.;
    Audit.check_reads a r
  in
  Alcotest.(check int) "GET of an acked write" 0 (violations (read_back 0 1));
  Alcotest.(check int) "failed write seen by a GET" 1 (violations (read_back 1 2))

let audit_flags_split_group () =
  let g0 = Gen.value_of_tag { kind = Group; writer = 0; seq = 0 } in
  let other = Gen.value_of_tag { kind = Group; writer = 0; seq = 1 } in
  Alcotest.(check int) "whole group passes" 0 (violations (fun a -> Audit.check_group a 0 [ Some g0; Some g0; Some g0; Some g0 ]));
  Alcotest.(check int) "split group" 1 (violations (fun a -> Audit.check_group a 0 [ Some g0; Some g0; Some other; Some g0 ]));
  let scan vs = List.mapi (fun j v -> (Gen.group_key 0 j, v)) vs in
  Alcotest.(check int) "split group in a scan" 1
    (violations (fun a -> Audit.check_scan a 0 (scan [ g0; other; g0; g0 ]) ~t_reply:1.))

let verdict better bound base fresh = Verdict.verdict_name (Verdict.judge ~better ~bound base fresh).verdict

let compare_verdicts () =
  let v = Alcotest.(check string) in
  v "spread beyond the bound" "unresolved"
    (verdict Lower 0.05 [ 100.; 130.; 80.; 120.; 90. ] [ 110.; 85.; 125.; 95.; 105. ]);
  v "same numbers" "unchanged" (verdict Lower 0.05 [ 100.; 101.; 99.; 100.; 100.5 ] [ 100.2; 99.8; 100.; 101.; 99.5 ]);
  v "clear gain" "better" (verdict Higher 0.05 [ 100.; 101.; 99.; 100.; 100.5 ] [ 120.; 121.; 119.; 120.; 122. ]);
  v "clear loss" "worse" (verdict Lower 0.05 [ 100.; 101.; 99.; 100.; 100.5 ] [ 120.; 121.; 119.; 120.; 122. ])

let () =
  Alcotest.run "redobench"
    [
      ( "gen",
        [
          Alcotest.test_case "zipf stream is a function of the seed" `Quick zipf_is_seeded;
          Alcotest.test_case "zipf head mass" `Quick zipf_head_mass;
        ] );
      ( "stat",
        [
          Alcotest.test_case "p99 null below 1000 samples" `Quick p99_needs_1000;
          Alcotest.test_case "quartiles match python" `Quick quartiles_match_python;
        ] );
      ( "audit",
        [
          Alcotest.test_case "stale value" `Quick audit_flags_stale;
          Alcotest.test_case "failed write surfaced" `Quick audit_flags_failed_write;
          Alcotest.test_case "split mput group" `Quick audit_flags_split_group;
        ] );
      ("compare", [ Alcotest.test_case "verdicts" `Quick compare_verdicts ]);
    ]
