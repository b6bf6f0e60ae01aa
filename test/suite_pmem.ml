(* Tests for the simulated NVMM substrate: cache-line semantics of
   pwb/pfence/psync, crash behaviour, eviction randomness, statistics. *)

let i64 = Alcotest.testable (fun ppf v -> Format.fprintf ppf "%Ld" v) Int64.equal

let mk ?(words = 1024) () = Pmem.create ~max_threads:4 ~words ()

let test_store_is_volatile () =
  let pm = mk () in
  Pmem.set_word pm ~tid:0 100 42L;
  Alcotest.check i64 "cache sees store" 42L (Pmem.get_word pm 100);
  Alcotest.check i64 "durable does not" 0L (Pmem.durable_word pm 100);
  Pmem.crash pm;
  Alcotest.check i64 "lost after crash" 0L (Pmem.get_word pm 100)

let test_pwb_without_fence_not_durable () =
  let pm = mk () in
  Pmem.set_word pm ~tid:0 100 42L;
  Pmem.pwb pm ~tid:0 100;
  Pmem.crash pm;
  Alcotest.check i64 "pwb alone is not durability" 0L (Pmem.get_word pm 100)

let test_pwb_fence_durable () =
  let pm = mk () in
  Pmem.set_word pm ~tid:0 100 42L;
  Pmem.pwb pm ~tid:0 100;
  Pmem.pfence pm ~tid:0;
  Pmem.crash pm;
  Alcotest.check i64 "pwb+pfence survives" 42L (Pmem.get_word pm 100)

let test_psync_durable () =
  let pm = mk () in
  Pmem.set_word pm ~tid:0 9 7L;
  Pmem.pwb pm ~tid:0 9;
  Pmem.psync pm ~tid:0;
  Pmem.crash pm;
  Alcotest.check i64 "pwb+psync survives" 7L (Pmem.get_word pm 9)

let test_line_granularity () =
  (* Flushing one word persists its whole 64-byte line, nothing else. *)
  let pm = mk () in
  Pmem.set_word pm ~tid:0 16 1L;
  Pmem.set_word pm ~tid:0 23 2L;
  (* same line as 16 *)
  Pmem.set_word pm ~tid:0 24 3L;
  (* next line *)
  Pmem.pwb pm ~tid:0 16;
  Pmem.pfence pm ~tid:0;
  Pmem.crash pm;
  Alcotest.check i64 "flushed word" 1L (Pmem.get_word pm 16);
  Alcotest.check i64 "same line persists too" 2L (Pmem.get_word pm 23);
  Alcotest.check i64 "other line lost" 0L (Pmem.get_word pm 24)

let test_fence_is_per_thread () =
  let pm = mk () in
  Pmem.set_word pm ~tid:0 8 1L;
  Pmem.set_word pm ~tid:1 16 2L;
  Pmem.pwb pm ~tid:0 8;
  Pmem.pwb pm ~tid:1 16;
  Pmem.pfence pm ~tid:0;
  (* only thread 0's staged line drains *)
  Pmem.crash pm;
  Alcotest.check i64 "t0 line durable" 1L (Pmem.get_word pm 8);
  Alcotest.check i64 "t1 line still pending" 0L (Pmem.get_word pm 16)

let test_fence_time_contents () =
  (* CLWB/SFENCE may write back the line contents as of fence time. *)
  let pm = mk () in
  Pmem.set_word pm ~tid:0 8 1L;
  Pmem.pwb pm ~tid:0 8;
  Pmem.set_word pm ~tid:0 8 2L;
  Pmem.pfence pm ~tid:0;
  Pmem.crash pm;
  Alcotest.check i64 "latest value persisted" 2L (Pmem.get_word pm 8)

let test_pwb_range () =
  let pm = mk () in
  for a = 64 to 127 do
    Pmem.set_word pm ~tid:0 a (Int64.of_int a)
  done;
  Pmem.pwb_range pm ~tid:0 64 127;
  Pmem.psync pm ~tid:0;
  Pmem.crash pm;
  for a = 64 to 127 do
    Alcotest.check i64 "range word" (Int64.of_int a) (Pmem.get_word pm a)
  done;
  let s = Pmem.stats pm in
  Alcotest.(check int) "one pwb per line" 8 s.Pmem.Stats.pwb

let test_ntstore () =
  let pm = mk () in
  Pmem.ntstore_word pm ~tid:0 8 5L;
  Pmem.crash pm;
  Alcotest.check i64 "ntstore needs fence" 0L (Pmem.get_word pm 8);
  Pmem.ntstore_word pm ~tid:0 8 5L;
  Pmem.pfence pm ~tid:0;
  Pmem.crash pm;
  Alcotest.check i64 "ntstore+fence durable" 5L (Pmem.get_word pm 8);
  let s = Pmem.stats pm in
  Alcotest.(check int) "no pwb counted" 0 s.Pmem.Stats.pwb;
  Alcotest.(check int) "ntstores counted" 2 s.Pmem.Stats.ntstore

let test_ntcopy () =
  let pm = mk () in
  for a = 0 to 15 do
    Pmem.set_word pm ~tid:0 a (Int64.of_int (a + 1))
  done;
  Pmem.ntcopy_words pm ~tid:0 ~src:0 ~dst:64 16;
  Pmem.pfence pm ~tid:0;
  Pmem.crash pm;
  for a = 0 to 15 do
    Alcotest.check i64 "copied word durable" (Int64.of_int (a + 1))
      (Pmem.get_word pm (64 + a))
  done

let test_blit_words () =
  let pm = mk () in
  for a = 0 to 9 do
    Pmem.set_word pm ~tid:0 a (Int64.of_int (100 + a))
  done;
  Pmem.blit_words pm ~tid:0 ~src:0 ~dst:100 10;
  for a = 0 to 9 do
    Alcotest.check i64 "blit" (Int64.of_int (100 + a)) (Pmem.get_word pm (100 + a))
  done

let test_stats_counters () =
  let pm = mk () in
  Pmem.set_word pm ~tid:0 8 1L;
  Pmem.set_word pm ~tid:1 16 1L;
  Pmem.pwb pm ~tid:0 8;
  Pmem.pwb pm ~tid:1 16;
  Pmem.pfence pm ~tid:0;
  Pmem.psync pm ~tid:1;
  let s = Pmem.stats pm in
  Alcotest.(check int) "pwb" 2 s.Pmem.Stats.pwb;
  Alcotest.(check int) "pfence" 1 s.Pmem.Stats.pfence;
  Alcotest.(check int) "psync" 1 s.Pmem.Stats.psync;
  Alcotest.(check int) "fences" 2 (Pmem.Stats.fences s);
  Pmem.reset_stats pm;
  let s = Pmem.stats pm in
  Alcotest.(check int) "reset" 0 s.Pmem.Stats.pwb

let test_eviction_probability_one () =
  (* prob=1.0: every dirty line survives, flushed or not. *)
  let pm = mk () in
  Pmem.set_word pm ~tid:0 100 3L;
  Pmem.crash_with_evictions pm ~seed:42 ~prob:1.0;
  Alcotest.check i64 "evicted line survived" 3L (Pmem.get_word pm 100)

let test_eviction_probability_zero () =
  let pm = mk () in
  Pmem.set_word pm ~tid:0 100 3L;
  Pmem.crash_with_evictions pm ~seed:42 ~prob:0.0;
  Alcotest.check i64 "nothing evicted" 0L (Pmem.get_word pm 100)

let test_eviction_deterministic_seed () =
  let run seed =
    let pm = mk () in
    for a = 0 to 1023 do
      Pmem.set_word pm ~tid:0 a 1L
    done;
    Pmem.crash_with_evictions pm ~seed ~prob:0.5;
    let survived = ref 0 in
    for a = 0 to 1023 do
      if Pmem.get_word pm a = 1L then incr survived
    done;
    !survived
  in
  Alcotest.(check int) "same seed, same outcome" (run 7) (run 7);
  Alcotest.(check bool) "partial survival" true
    (let s = run 7 in
     s > 0 && s < 1024)

let test_pwb_range_empty_is_noop () =
  let pm = mk () in
  Pmem.set_word pm ~tid:0 8 1L;
  Pmem.pwb_range pm ~tid:0 72 64;
  (* lo > hi: no lines staged *)
  Pmem.pfence pm ~tid:0;
  Pmem.crash pm;
  Alcotest.check i64 "empty range staged nothing" 0L (Pmem.get_word pm 8);
  let s = Pmem.stats pm in
  Alcotest.(check int) "no pwb counted" 0 s.Pmem.Stats.pwb

let test_eviction_skips_flush_cost () =
  (* crash_with_evictions models power-loss cache write-back: it must not
     run the flush_cost busy-wait that models program-issued pwbs. *)
  let pm = mk () in
  Pmem.set_flush_cost pm 5_000_000;
  for a = 0 to 1023 do
    Pmem.set_word pm ~tid:0 a 1L
  done;
  let t0 = Unix.gettimeofday () in
  Pmem.crash_with_evictions pm ~seed:3 ~prob:1.0;
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.check i64 "lines written back" 1L (Pmem.get_word pm 100);
  (* 128 dirty lines x 5M iterations would take seconds; write-back must
     not pay it *)
  Alcotest.(check bool) "no flush_cost busy-wait" true (dt < 1.0)

let test_step_counting () =
  let pm = mk () in
  Pmem.set_word pm ~tid:0 8 1L;
  (* untracked: no steps *)
  Alcotest.(check int) "tracking off by default" 0 (Pmem.steps pm);
  Pmem.set_step_tracking pm true;
  Pmem.set_word pm ~tid:0 8 2L;
  Pmem.pwb pm ~tid:0 8;
  Pmem.pfence pm ~tid:0;
  Pmem.pwb_range pm ~tid:0 0 23;
  (* 3 lines *)
  Pmem.psync pm ~tid:0;
  Pmem.ntstore_word pm ~tid:0 64 4L;
  Pmem.ntcopy_words pm ~tid:0 ~src:0 ~dst:128 16;
  (* 2 lines *)
  ignore (Pmem.cas_word pm ~tid:0 72 ~expected:0L ~desired:1L);
  ignore (Pmem.cas_word pm ~tid:0 72 ~expected:9L ~desired:2L);
  (* failed CAS: no step *)
  Alcotest.(check int) "events counted" (1 + 1 + 1 + 3 + 1 + 1 + 2 + 1)
    (Pmem.steps pm);
  let s = Pmem.stats pm in
  Alcotest.(check int) "steps in stats" (Pmem.steps pm) s.Pmem.Stats.steps;
  Pmem.set_step_tracking pm true;
  Alcotest.(check int) "re-enabling resets the counter" 0 (Pmem.steps pm)

let test_inject_at_step () =
  let pm = mk () in
  Pmem.set_step_tracking pm true;
  Pmem.set_word pm ~tid:0 8 1L;
  Pmem.pwb pm ~tid:0 8;
  Pmem.pfence pm ~tid:0;
  Pmem.inject_crash_after_step pm 2;
  Alcotest.(check bool) "armed" true (Pmem.crash_pending pm);
  Pmem.set_word pm ~tid:0 16 2L;
  (* step 4: survives *)
  Alcotest.check_raises "fires at relative step 2" Pmem.Crash_injected
    (fun () -> Pmem.set_word pm ~tid:0 24 3L);
  Alcotest.(check bool) "fired" true (Pmem.crash_fired pm);
  (* frozen: mutations are silent no-ops, reads still work *)
  Pmem.set_word pm ~tid:0 32 9L;
  Alcotest.check i64 "store ignored while frozen" 0L (Pmem.get_word pm 32);
  Alcotest.check i64 "reads work while frozen" 2L (Pmem.get_word pm 16);
  Alcotest.check_raises "cas re-raises while frozen" Pmem.Crash_injected
    (fun () -> ignore (Pmem.cas_word pm ~tid:0 40 ~expected:0L ~desired:1L));
  let s = Pmem.stats pm in
  Alcotest.(check int) "injection counted" 1 s.Pmem.Stats.crashes_injected;
  (* crash clears the frozen state and the plan *)
  Pmem.crash pm;
  Alcotest.(check bool) "unfrozen after crash" false (Pmem.crash_fired pm);
  Alcotest.(check bool) "plan cleared" false (Pmem.crash_pending pm);
  Alcotest.check i64 "fenced line survived" 1L (Pmem.get_word pm 8);
  Alcotest.check i64 "unfenced store before crash lost" 0L (Pmem.get_word pm 16);
  Pmem.set_word pm ~tid:0 48 5L;
  Alcotest.check i64 "mutations work again" 5L (Pmem.get_word pm 48)

let test_inject_probabilistic () =
  (* prob=1.0 must fire on the very next event; same seed, same behaviour *)
  let pm = mk () in
  Pmem.set_step_tracking pm true;
  Pmem.inject_crash_probabilistic pm ~seed:11 ~prob:1.0;
  Alcotest.check_raises "fires immediately at prob=1" Pmem.Crash_injected
    (fun () -> Pmem.set_word pm ~tid:0 8 1L);
  let run seed =
    let pm = mk () in
    Pmem.set_step_tracking pm true;
    Pmem.inject_crash_probabilistic pm ~seed ~prob:0.05;
    (try
       for a = 0 to 500 do
         Pmem.set_word pm ~tid:0 a 1L
       done
     with Pmem.Crash_injected -> ());
    Pmem.steps pm
  in
  Alcotest.(check int) "deterministic for a fixed seed" (run 13) (run 13);
  Alcotest.(check bool) "clear_injection disarms" true
    (let pm = mk () in
     Pmem.set_step_tracking pm true;
     Pmem.inject_crash_probabilistic pm ~seed:1 ~prob:1.0;
     Pmem.clear_injection pm;
     Pmem.set_word pm ~tid:0 8 1L;
     not (Pmem.crash_fired pm))

let test_bounds_checked () =
  let pm = mk ~words:64 () in
  Alcotest.check_raises "oob get"
    (Invalid_argument "Pmem: address 64 out of bounds") (fun () ->
      ignore (Pmem.get_word pm 64));
  Alcotest.check_raises "oob set"
    (Invalid_argument "Pmem: address -1 out of bounds") (fun () ->
      Pmem.set_word pm ~tid:0 (-1) 0L)

let test_rounds_to_line () =
  let pm = Pmem.create ~max_threads:1 ~words:9 () in
  Alcotest.(check int) "rounded up" 16 (Pmem.size_words pm)

let test_checksum_seal_roundtrip () =
  List.iter
    (fun p ->
      match Pmem.Checksum.unseal (Pmem.Checksum.seal p) with
      | Some p' -> Alcotest.(check int) "payload round-trips" p p'
      | None -> Alcotest.failf "seal %d did not unseal" p)
    [ 0; 1; 42; (1 lsl 48) - 1 ];
  let cover = Pmem.Checksum.digest [| 1L; 2L; 3L |] in
  (match Pmem.Checksum.unseal ~cover (Pmem.Checksum.seal ~cover 7) with
  | Some 7 -> ()
  | _ -> Alcotest.fail "covered seal did not round-trip");
  Alcotest.(check bool) "wrong cover rejected" true
    (Pmem.Checksum.unseal ~cover:(Pmem.Checksum.digest [| 1L; 2L; 4L |])
       (Pmem.Checksum.seal ~cover 7)
    = None);
  Alcotest.(check bool) "all-zero word never unseals" true
    (Pmem.Checksum.unseal 0L = None);
  Alcotest.check_raises "payload range checked"
    (Invalid_argument "Checksum.seal: payload out of 48-bit range") (fun () ->
      ignore (Pmem.Checksum.seal (-1)))

let test_checksum_detects_bit_flips () =
  (* every single-bit flip of this sealed word must invalidate it (each
     flip misses detection with probability 2^-16; the assertion is
     deterministic for the fixed payload) *)
  let w = Pmem.Checksum.seal 0x1234_5678_9abc in
  for bit = 0 to 63 do
    let flipped = Int64.logxor w (Int64.shift_left 1L bit) in
    match Pmem.Checksum.unseal flipped with
    | None -> ()
    | Some p -> Alcotest.failf "flip of bit %d unseals to %d" bit p
  done

let test_faulty_crash_deterministic () =
  let run seed =
    let pm = mk () in
    for a = 0 to 1023 do
      Pmem.set_word pm ~tid:0 a (Int64.of_int (a + 1))
    done;
    Pmem.crash_with_faults pm ~seed ~evict_prob:0.6 ~torn_prob:0.8;
    let image = Array.init 1024 (fun a -> Pmem.get_word pm a) in
    (image, (Pmem.stats pm).Pmem.Stats.torn_lines)
  in
  let img1, torn1 = run 5 and img2, torn2 = run 5 in
  Alcotest.(check bool) "same seed, same durable image" true (img1 = img2);
  Alcotest.(check int) "same seed, same torn count" torn1 torn2;
  Alcotest.(check bool) "some lines torn" true (torn1 > 0)

let test_fenced_lines_never_tear () =
  (* tearing only applies to at-crash evictions of dirty lines; a line
     made durable through pwb+pfence is clean and must survive intact *)
  let pm = mk () in
  for a = 64 to 71 do
    Pmem.set_word pm ~tid:0 a 7L
  done;
  Pmem.pwb pm ~tid:0 64;
  Pmem.pfence pm ~tid:0;
  for a = 128 to 135 do
    Pmem.set_word pm ~tid:0 a 9L
  done;
  Pmem.crash_with_faults pm ~seed:3 ~evict_prob:1.0 ~torn_prob:1.0;
  for a = 64 to 71 do
    Alcotest.check i64 "fenced line intact" 7L (Pmem.get_word pm a)
  done

let test_torn_line_is_partial () =
  (* evict_prob=1 torn_prob=1: the dirty line persists a nonempty proper
     subset of its words — never all 8, never none *)
  let pm = mk () in
  for a = 64 to 71 do
    Pmem.set_word pm ~tid:0 a 5L
  done;
  Pmem.crash_with_faults pm ~seed:11 ~evict_prob:1.0 ~torn_prob:1.0;
  let survived = ref 0 in
  for a = 64 to 71 do
    if Pmem.get_word pm a = 5L then incr survived
  done;
  Alcotest.(check bool) "partial persistence" true
    (!survived > 0 && !survived < 8);
  Alcotest.(check int) "torn line counted" 1
    (Pmem.stats pm).Pmem.Stats.torn_lines

let test_corrupt_words_in () =
  let pm = mk () in
  for a = 0 to 127 do
    Pmem.set_word pm ~tid:0 a 0L
  done;
  Pmem.pwb_range pm ~tid:0 0 127;
  Pmem.psync pm ~tid:0;
  let flip seed =
    let pm2 = mk () in
    Pmem.corrupt_words_in pm2 ~seed ~count:4 ~ranges:[ (16, 31) ];
    Array.init 128 (fun a -> Pmem.durable_word pm2 a)
  in
  let img1 = flip 9 and img2 = flip 9 in
  Alcotest.(check bool) "deterministic from seed" true (img1 = img2);
  Pmem.corrupt_words_in pm ~seed:9 ~count:4 ~ranges:[ (16, 31) ];
  for a = 0 to 127 do
    if a < 16 || a > 31 then
      Alcotest.check i64 "flips stay inside the ranges" 0L
        (Pmem.durable_word pm a)
  done;
  let corrupted = ref 0 in
  for a = 16 to 31 do
    if Pmem.durable_word pm a <> 0L then incr corrupted
  done;
  Alcotest.(check bool) "some words corrupted" true (!corrupted > 0);
  Alcotest.(check int) "bit flips counted" 4
    (Pmem.stats pm).Pmem.Stats.bit_flips;
  Alcotest.check i64 "flip mirrored into volatile image"
    (Pmem.durable_word pm 16) (Pmem.get_word pm 16)

(* A crash reloads the volatile image by compare-and-write over every
   word, not only over the dirty lines: durable-only rot on a line nobody
   wrote since its last flush (or ever) must still surface. *)
let test_crash_surfaces_rot_on_clean_lines () =
  let pm = mk () in
  for a = 0 to 15 do
    Pmem.set_word pm ~tid:0 a (Int64.of_int (a + 1))
  done;
  Pmem.pwb_range pm ~tid:0 0 15;
  Pmem.pfence pm ~tid:0;
  (* line 0 was written and flushed (clean); line 100 was never touched *)
  List.iter
    (fun (lo, hi) ->
      Pmem.corrupt_durable_words_in pm ~seed:3 ~count:1 ~ranges:[ (lo, hi) ])
    [ (0, 7); (800, 807) ];
  let rotten lo =
    List.filter
      (fun a -> not (Int64.equal (Pmem.durable_word pm a) (Pmem.get_word pm a)))
      (List.init 8 (fun i -> lo + i))
  in
  let before = rotten 0 @ rotten 800 in
  Alcotest.(check int) "rot is durable-only before the crash" 2
    (List.length before);
  Pmem.crash pm;
  List.iter
    (fun a ->
      Alcotest.check i64 "crash reloads the rotten word"
        (Pmem.durable_word pm a) (Pmem.get_word pm a))
    before

(* VmRSS of this process in KiB, from /proc/self/status (Linux). *)
let vm_rss_kib () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        let l = input_line ic in
        match String.split_on_char ':' l with
        | [ "VmRSS"; v ] -> Scanf.sscanf v " %d kB" Fun.id
        | _ -> go ()
      in
      go ())

(* Both images are committed on first touch, and a crash stores only the
   words that differ: a large region that is never written costs next to
   no resident memory, even across a crash. *)
let test_untouched_region_costs_no_rss () =
  if not (Sys.file_exists "/proc/self/status") then Alcotest.skip ();
  let before = vm_rss_kib () in
  let pm = Pmem.create ~max_threads:1 ~words:(256 * 1024 * 1024 / 8) () in
  Pmem.set_word pm ~tid:0 0 1L;
  Pmem.pwb pm ~tid:0 0;
  Pmem.pfence pm ~tid:0;
  Pmem.crash pm;
  let grown = vm_rss_kib () - before in
  Alcotest.check i64 "the flushed word survives" 1L (Pmem.get_word pm 0);
  if grown >= 8 * 1024 then
    Alcotest.failf "256 MiB region + crash raised VmRSS by %d KiB (>= 8 MiB)"
      grown

let qcheck_durable_model =
  (* Property: after an arbitrary sequence of stores / pwb / pfence and a
     strict crash, the surviving image matches a reference model where only
     fenced lines persist, with their fence-time contents. *)
  QCheck.Test.make ~name:"crash keeps exactly fenced lines" ~count:200
    QCheck.(list (pair (int_bound 127) (int_bound 1000)))
    (fun ops ->
      let pm = Pmem.create ~max_threads:1 ~words:128 () in
      let model = Array.make 128 0L in
      let shadow = Array.make 128 0L in
      let flushed = Hashtbl.create 8 in
      List.iteri
        (fun i (addr, v) ->
          match i mod 5 with
          | 4 ->
              Pmem.pfence pm ~tid:0;
              Hashtbl.iter
                (fun line () ->
                  for w = line * 8 to (line * 8) + 7 do
                    model.(w) <- shadow.(w)
                  done)
                flushed;
              Hashtbl.reset flushed
          | 3 ->
              Pmem.pwb pm ~tid:0 addr;
              Hashtbl.replace flushed (addr / 8) ()
          | _ ->
              let v = Int64.of_int v in
              Pmem.set_word pm ~tid:0 addr v;
              shadow.(addr) <- v)
        ops;
      Pmem.crash pm;
      let ok = ref true in
      for a = 0 to 127 do
        if Pmem.get_word pm a <> model.(a) then ok := false
      done;
      !ok)

let suites =
  [
    ( "pmem",
      [
        Alcotest.test_case "store is volatile" `Quick test_store_is_volatile;
        Alcotest.test_case "pwb without fence" `Quick
          test_pwb_without_fence_not_durable;
        Alcotest.test_case "pwb+pfence durable" `Quick test_pwb_fence_durable;
        Alcotest.test_case "pwb+psync durable" `Quick test_psync_durable;
        Alcotest.test_case "line granularity" `Quick test_line_granularity;
        Alcotest.test_case "fence is per thread" `Quick test_fence_is_per_thread;
        Alcotest.test_case "fence-time contents" `Quick test_fence_time_contents;
        Alcotest.test_case "pwb_range" `Quick test_pwb_range;
        Alcotest.test_case "ntstore" `Quick test_ntstore;
        Alcotest.test_case "ntcopy" `Quick test_ntcopy;
        Alcotest.test_case "blit_words" `Quick test_blit_words;
        Alcotest.test_case "stats counters" `Quick test_stats_counters;
        Alcotest.test_case "eviction prob=1" `Quick test_eviction_probability_one;
        Alcotest.test_case "eviction prob=0" `Quick test_eviction_probability_zero;
        Alcotest.test_case "eviction deterministic" `Quick
          test_eviction_deterministic_seed;
        Alcotest.test_case "empty pwb_range is a no-op" `Quick
          test_pwb_range_empty_is_noop;
        Alcotest.test_case "eviction skips flush cost" `Quick
          test_eviction_skips_flush_cost;
        Alcotest.test_case "step counting" `Quick test_step_counting;
        Alcotest.test_case "inject crash at step" `Quick test_inject_at_step;
        Alcotest.test_case "inject crash probabilistic" `Quick
          test_inject_probabilistic;
        Alcotest.test_case "bounds checked" `Quick test_bounds_checked;
        Alcotest.test_case "rounds to line size" `Quick test_rounds_to_line;
        Alcotest.test_case "checksum seal round-trip" `Quick
          test_checksum_seal_roundtrip;
        Alcotest.test_case "checksum detects bit flips" `Quick
          test_checksum_detects_bit_flips;
        Alcotest.test_case "faulty crash deterministic" `Quick
          test_faulty_crash_deterministic;
        Alcotest.test_case "fenced lines never tear" `Quick
          test_fenced_lines_never_tear;
        Alcotest.test_case "torn line is partial" `Quick
          test_torn_line_is_partial;
        Alcotest.test_case "corrupt_words_in" `Quick test_corrupt_words_in;
        Alcotest.test_case "crash surfaces rot on clean lines" `Quick
          test_crash_surfaces_rot_on_clean_lines;
        Alcotest.test_case "untouched region costs no RSS" `Quick
          test_untouched_region_costs_no_rss;
        QCheck_alcotest.to_alcotest qcheck_durable_model;
      ] );
  ]
