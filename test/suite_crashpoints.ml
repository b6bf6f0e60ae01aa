(* Mid-transaction crash-point exploration: arm Pmem's step-counting crash
   injection at chosen points of a deterministic workload and check that
   every construction — the eight PTMs and ONLL, each as a
   Crash_explorer.TARGET — recovers to a prefix-closed durably-linearizable
   state (the model before or after the in-flight operation) and stays
   usable.

   Quick tests sample the crash surface; the full per-step sweeps (strict
   and with random cache evictions) run under `Slow (alcotest -e).

   Media-fault sweeps ride the same machinery: torn write-backs
   (--torn-prob) must never cost recoverability — metadata is fenced
   before it names anything — while bit-flip rounds (--bitflips, strict
   crashes) may end in Ptm_intf.Unrecoverable (counted as detections) but
   never in silent divergence.

   [mutant_suites] instantiates deliberately broken configurations and
   asserts the sweeps *catch* them — the sweep must detect real durability
   bugs, not just rubber-stamp correct PTMs: a Redo that skips the pfence
   before the [curComb] transition (caught by the eviction sweep), a PMDK
   whose undo log drops its checksums (caught by the bit-flip sweep), and
   an ONLL target that denies its own log truncation (caught by the
   bit-flip sweep, which shows the rollback allowance is what admits
   ONLL's bit-flip rounds). *)

module CE = Ptm.Crash_explorer

let check_clean name (r : CE.report) =
  List.iter
    (fun (v : CE.violation) ->
      Printf.printf "VIOLATION [%s] step=%d: %s\n  repro: %s\n" r.ptm v.step
        v.detail v.repro)
    r.violations;
  Alcotest.(check int) (name ^ ": violations") 0 (List.length r.violations)

module Make (T : CE.TARGET) = struct
  module E = CE.Make (T)

  let ops = CE.default_ops ~n:12 ~seed:42 ()

  let test_sampled_strict () =
    let total = E.total_steps ~ops () in
    if total <= 0 then Alcotest.fail "workload produced no steps";
    let steps = CE.sample_steps ~total ~count:25 in
    let r = E.sweep ~seed:42 ~ops ~steps () in
    check_clean "strict sample" r;
    (* every sampled step is within range, so each run must actually crash *)
    Alcotest.(check int) "every sampled point injected" r.steps_tested
      r.crashes_injected

  let test_sampled_evictions () =
    let total = E.total_steps ~ops () in
    let steps = CE.sample_steps ~total ~count:15 in
    check_clean "eviction sample" (E.sweep ~evict_prob:0.5 ~seed:42 ~ops ~steps ())

  let test_probabilistic () =
    check_clean "probabilistic"
      (E.random_sweep ~seed:42 ~prob:0.02 ~ops ~trials:10 ())

  let test_full_strict () = check_clean "full strict" (E.sweep_all ~seed:42 ~ops ())

  let test_full_evictions () =
    check_clean "full evictions" (E.sweep_all ~evict_prob:0.5 ~seed:42 ~ops ())

  let test_sampled_torn () =
    let total = E.total_steps ~ops () in
    let steps = CE.sample_steps ~total ~count:15 in
    check_clean "torn sample"
      (E.sweep ~evict_prob:0.7 ~torn_prob:1.0 ~seed:42 ~ops ~steps ())

  (* Acceptance sweep: with every at-crash eviction tearing, every crash
     point must still recover durably-linearizably — correct PTMs fence
     metadata before it names anything, so no fenced line can tear. *)
  let test_full_torn () =
    check_clean "full torn (torn-prob 1.0)"
      (E.sweep_all ~evict_prob:0.7 ~torn_prob:1.0 ~seed:42 ~ops ())

  (* Bit-flip rounds use strict crashes: an eviction can legitimately drop
     a just-written replica record, and a flip in the header on top of
     that is a two-fault scenario outside the single-fault contract. *)
  let test_sampled_bitflips () =
    let total = E.total_steps ~ops () in
    let steps = CE.sample_steps ~total ~count:25 in
    let r = E.sweep ~bitflips:2 ~seed:42 ~ops ~steps () in
    check_clean "strict bit flips" r

  let suites =
    [
      ( "crashpoints[" ^ T.name ^ "]",
        [
          Alcotest.test_case "sampled strict sweep" `Quick test_sampled_strict;
          Alcotest.test_case "sampled eviction sweep" `Quick
            test_sampled_evictions;
          Alcotest.test_case "probabilistic injection" `Quick test_probabilistic;
          Alcotest.test_case "sampled torn sweep" `Quick test_sampled_torn;
          Alcotest.test_case "sampled bit-flip sweep" `Quick
            test_sampled_bitflips;
          Alcotest.test_case "full strict sweep" `Slow test_full_strict;
          Alcotest.test_case "full eviction sweep" `Slow test_full_evictions;
          Alcotest.test_case "full torn sweep" `Slow test_full_torn;
        ] );
    ]
end

(* Deliberately broken Redo: the replica is published via the [curComb] CAS
   without being fenced first, so an eviction-order crash can expose a
   durable header pointing at a stale replica. *)
module Broken_redo = Ptm.Redo_ptm.Make (struct
  let name = "RedoNoFence"
  let timed = false
  let store_agg = false
  let flush_agg = false
  let deferred_pwb = false
  let ntstore_copy = false
  let omit_prepub_fence = true
end)

module E_broken = CE.Make (CE.Of_ptm (Broken_redo))

let test_mutant_caught () =
  let ops = CE.default_ops ~n:10 ~seed:7 () in
  let r = E_broken.sweep_all ~evict_prob:0.6 ~seed:7 ~ops () in
  Alcotest.(check bool)
    "sweep flags the missing pre-publication fence" true (r.violations <> [])

(* Deliberately de-checksummed PMDK: the undo-log count is a raw word and
   entries carry no digests, so a bit flip in the log silently corrupts the
   rollback instead of being refused with Unrecoverable. *)
module Broken_pmdk = Ptm.Pmdk_sim.Make (struct
  let name = "PmdkNoSum"
  let checksum_log = false
end)

module E_broken_pmdk = CE.Make (CE.Of_ptm (Broken_pmdk))

let test_desum_mutant_caught () =
  let ops = CE.default_ops ~n:12 ~seed:42 () in
  let r = E_broken_pmdk.sweep_all ~bitflips:2 ~seed:42 ~ops () in
  Alcotest.(check bool)
    "bit-flip sweep flags the de-checksummed undo log" true
    (r.violations <> [])

(* ONLL with its rollback allowance withdrawn: bit flips truncate its log
   to an earlier completed prefix, which the before/after oracle must
   reject.  A PTM target declares [rollback_on_flips = false], so this is
   the oracle every PTM is held to. *)
module Onll_no_rollback = struct
  include CE.Onll_target

  let rollback_on_flips = false
end

module E_onll_no_rollback = CE.Make (Onll_no_rollback)

let test_no_rollback_caught () =
  let ops = CE.default_ops ~n:12 ~seed:42 () in
  let total = E_onll_no_rollback.total_steps ~ops () in
  let steps = CE.sample_steps ~total ~count:25 in
  let r = E_onll_no_rollback.sweep ~bitflips:2 ~seed:42 ~ops ~steps () in
  Alcotest.(check bool)
    "bit-flip sweep flags the log truncation" true (r.violations <> [])

let mutant_suites =
  [
    ( "crashpoints[mutant]",
      [
        Alcotest.test_case "RedoNoFence caught by eviction sweep" `Quick
          test_mutant_caught;
        Alcotest.test_case "PmdkNoSum caught by bit-flip sweep" `Quick
          test_desum_mutant_caught;
        Alcotest.test_case "ONLL without rollback caught by bit-flip sweep"
          `Quick test_no_rollback_caught;
      ] );
  ]
