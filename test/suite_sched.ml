(* Tests for the deterministic cooperative scheduler and the progress
   oracle: schedule determinism, stall/kill adversaries via Progress on
   every PTM, blocked-detection of the lock-based baselines, helped
   completion on the volatile CX construction, and the bounded-drain /
   owner-check behavior of the sync primitives. *)

let status_strings r =
  Array.to_list
    (Array.map
       (fun s -> Format.asprintf "%a" Sched.pp_status s)
       r.Sched.statuses)

(* A small mixed atomic workload whose schedule fingerprint (resume
   order, step count, final value, statuses) must be a pure function of
   the seed and the injections. *)
let fingerprint ~seed ~injections () =
  let shared = Stdlib.Atomic.make 0 in
  let order = ref [] in
  let body _tid =
    for _ = 1 to 5 do
      (match Sched.current () with
      | Some id -> order := id :: !order
      | None -> ());
      let v = Sched.Atomic.fetch_and_add shared 1 in
      if v land 1 = 0 then Sched.Atomic.incr shared
      else ignore (Sched.Atomic.compare_and_set shared (v + 1) (v + 2));
      ignore (Sched.Atomic.get shared)
    done
  in
  let r = Sched.run ~seed ~injections ~num_fibers:3 body in
  ( r.Sched.steps,
    r.Sched.applied,
    status_strings r,
    Stdlib.Atomic.get shared,
    List.rev !order )

let test_determinism () =
  let a = fingerprint ~seed:7 ~injections:[] () in
  let b = fingerprint ~seed:7 ~injections:[] () in
  Alcotest.(check bool) "same seed, same schedule" true (a = b);
  let c = fingerprint ~seed:8 ~injections:[] () in
  let (_, _, _, _, oa), (_, _, _, _, oc) = (a, c) in
  Alcotest.(check bool) "different seed, different resume order" true
    (oa <> oc)

let test_injection_determinism () =
  let inj = [ Sched.Stall { tid = 1; at_step = 10; duration = None } ] in
  let a = fingerprint ~seed:7 ~injections:inj () in
  let b = fingerprint ~seed:7 ~injections:inj () in
  Alcotest.(check bool) "same injected schedule" true (a = b);
  let _, applied, statuses, _, _ = a in
  Alcotest.(check bool) "stall landed at its step" true
    (applied = [ (1, 10) ]);
  Alcotest.(check string) "victim ended stalled" "stalled"
    (List.nth statuses 1)

let test_kill_drops_fiber () =
  let r =
    Sched.run ~seed:3
      ~injections:[ Sched.Kill { tid = 0; at_step = 5 } ]
      ~num_fibers:2
      (fun _tid ->
        let a = Stdlib.Atomic.make 0 in
        for _ = 1 to 20 do
          Sched.Atomic.incr a
        done)
  in
  Alcotest.(check string) "killed" "killed" (List.nth (status_strings r) 0);
  Alcotest.(check string) "survivor finished" "finished"
    (List.nth (status_strings r) 1)

(* [active] is the run count's test: false outside, true in a fiber,
   false again after a run that ended with a raising fiber or a raising
   [hazard] (which unwinds [run] itself through its [finally]). *)
let test_active_scope () =
  Alcotest.(check bool) "inactive before a run" false (Sched.active ());
  let inside = ref [] in
  let r =
    Sched.run ~seed:1 ~num_fibers:2 (fun tid ->
        inside := Sched.active () :: !inside;
        if tid = 0 then failwith "boom")
  in
  Alcotest.(check (list bool)) "active in every fiber" [ true; true ] !inside;
  Alcotest.(check (list string)) "fiber 0 raised"
    [ "raised Failure(\"boom\")"; "finished" ]
    (status_strings r);
  Alcotest.(check bool) "inactive after a raising fiber" false
    (Sched.active ());
  (match
     Sched.run ~seed:1
       ~injections:[ Sched.Stall { tid = 0; at_step = 1; duration = None } ]
       ~hazard:(fun _ -> failwith "hazard")
       ~num_fibers:1
       (fun _ -> Sched.yield ())
   with
  | _ -> Alcotest.fail "a raising hazard must unwind run"
  | exception Failure _ -> ());
  Alcotest.(check bool) "inactive after run raised" false (Sched.active ());
  let r = Sched.run ~num_fibers:1 (fun _ -> Sched.yield ()) in
  Alcotest.(check int) "a later run still schedules" 2 r.Sched.steps

(* Inside a run the interposed accessors are still yield points: each
   fiber takes one step to start and one more per access, and the two
   fibers' accesses interleave. *)
let test_accessors_yield_in_run () =
  let pm = Pmem.create ~max_threads:1 ~words:64 () in
  let a = Sched.Atomic.make 0 in
  let accesses = 20 in
  let trace = ref [] in
  let r =
    Sched.run ~seed:5 ~num_fibers:2 (fun tid ->
        for i = 1 to accesses do
          if i land 1 = 0 then ignore (Pmem.get_word pm tid)
          else ignore (Sched.Atomic.get a);
          trace := tid :: !trace
        done)
  in
  Alcotest.(check int) "one step per access (+1 start per fiber)"
    ((2 * accesses) + 2) r.Sched.steps;
  let rec switches = function
    | a :: (b :: _ as rest) -> (if a <> b then 1 else 0) + switches rest
    | _ -> 0
  in
  Alcotest.(check bool) "fibers interleave between accesses" true
    (switches !trace >= accesses / 2)

(* Start a run in a second domain whose fibers spin at yield points until
   [f] returns, then stop it; [f] gets the highest step its fibers saw. *)
let with_live_run f =
  let started = Stdlib.Atomic.make false in
  let stop = Stdlib.Atomic.make false in
  let seen = Stdlib.Atomic.make 0 in
  let d =
    Domain.spawn (fun () ->
        Sched.run ~seed:2 ~budget:max_int ~num_fibers:2 (fun _ ->
            Stdlib.Atomic.set started true;
            while not (Sched.Atomic.get stop) do
              Stdlib.Atomic.set seen (Sched.now ())
            done))
  in
  while not (Stdlib.Atomic.get started) do
    Domain.cpu_relax ()
  done;
  let result =
    Fun.protect ~finally:(fun () -> Stdlib.Atomic.set stop true) (fun () ->
        f seen)
  in
  let r = Domain.join d in
  Alcotest.(check (list string)) "live run finished" [ "finished"; "finished" ]
    (status_strings r);
  result

(* A domain outside the run pays no scheduling: its RedoOpt updates run
   to completion with correct results (a stray yield would perform an
   effect nobody handles here and raise). *)
let test_updates_beside_live_run () =
  with_live_run (fun _ ->
      let module P = Ptm.Redo_ptm.Opt in
      let p = P.create ~num_threads:2 ~words:4096 () in
      let cell =
        Int64.to_int (P.update p ~tid:0 (fun tx -> Int64.of_int (P.alloc tx 1)))
      in
      for i = 1 to 200 do
        let r =
          P.update p ~tid:(i land 1) (fun tx ->
              let v = Int64.add (P.get tx cell) 1L in
              P.set tx cell v;
              v)
        in
        if r <> Int64.of_int i then Alcotest.failf "update %d returned %Ld" i r
      done;
      Alcotest.(check int64) "all increments applied" 200L
        (P.read_only p ~tid:1 (fun tx -> P.get tx cell));
      Alcotest.(check bool) "not active beside the run" false (Sched.active ()))

(* One run per process: a second run from another domain is rejected
   with a message that says so, and the rejection leaves the live run
   scheduling and its count in place (a second attempt is rejected too;
   a run after the live one ends is accepted). *)
let test_second_run_rejected () =
  let attempt () =
    match Sched.run ~num_fibers:1 (fun _ -> ()) with
    | _ -> Alcotest.fail "concurrent run accepted"
    | exception Invalid_argument msg -> msg
  in
  with_live_run (fun seen ->
      Alcotest.(check string) "message names the live run"
        "Sched.run: another run is live in this process" (attempt ());
      let at = Stdlib.Atomic.get seen in
      while Stdlib.Atomic.get seen < at + 100 do
        Domain.cpu_relax ()
      done;
      Alcotest.(check string) "count intact: still rejected"
        "Sched.run: another run is live in this process" (attempt ()));
  let r = Sched.run ~num_fibers:1 (fun _ -> Sched.yield ()) in
  Alcotest.(check int) "accepted once the live run ended" 2 r.Sched.steps

let test_nested_run_rejected () =
  let msg = ref "" in
  ignore
    (Sched.run ~num_fibers:1 (fun _ ->
         match Sched.run ~num_fibers:1 (fun _ -> ()) with
         | _ -> ()
         | exception Invalid_argument m -> msg := m));
  Alcotest.(check string) "nested" "Sched.run: nested run" !msg

(* The progress oracle itself must be deterministic: a verdict — repro
   line included — is a pure function of its parameters. *)
module Prog_cx = Ptm.Progress.Make (Ptm.Cx_ptm.Ptm)
module Prog_cx_puc = Ptm.Progress.Make (Ptm.Cx_ptm.Puc)
module Prog_redo = Ptm.Progress.Make (Ptm.Redo_ptm.Base)
module Prog_redo_timed = Ptm.Progress.Make (Ptm.Redo_ptm.Timed)
module Prog_redo_opt = Ptm.Progress.Make (Ptm.Redo_ptm.Opt)
module Prog_onefile = Ptm.Progress.Make (Ptm.Onefile)
module Prog_pmdk = Ptm.Progress.Make (Ptm.Pmdk_sim)
module Prog_romulus = Ptm.Progress.Make (Ptm.Romulus)

let test_verdict_determinism () =
  let run () =
    Prog_cx.run_one ~seed:9 ~stalls:[ (1, 120, None) ] ()
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical verdicts" true (a = b);
  Alcotest.(check bool) "repro names the CLI flags" true
    (String.length a.Ptm.Progress.repro > 0
    && String.sub a.Ptm.Progress.repro 0 20 = "crash_torture --sche")

(* Calibrated adversary rounds on the wait-free PTMs: every stall and
   kill round must complete the frozen announcer's operation through the
   helping path (stalled_completed >= 1), and every round must satisfy
   its oracle. *)
let check_wait_free name sweep () =
  let vs = sweep ~rounds:4 () in
  Alcotest.(check int) "four rounds" 4 (List.length vs);
  List.iter
    (fun (v : Ptm.Progress.verdict) ->
      Alcotest.(check string)
        (Printf.sprintf "%s %s seed=%d: %s" name v.scenario v.seed v.detail)
        "" v.detail;
      Alcotest.(check bool) (name ^ " " ^ v.scenario ^ " ok") true v.ok;
      if v.scenario = "stall" || v.scenario = "kill" then
        Alcotest.(check bool)
          (name ^ " " ^ v.scenario ^ " helper finished the stalled op") true
          (v.stalled_completed >= 1))
    vs

(* The blocking baselines must be detected as blocked — budget exhausted
   with the victim parked on the global lock — rather than hang, and
   their stall+crash round must still recover a consistent counter. *)
let check_blocking name sweep () =
  let vs = sweep ~rounds:2 () in
  List.iter
    (fun (v : Ptm.Progress.verdict) ->
      Alcotest.(check string)
        (Printf.sprintf "%s %s seed=%d: %s" name v.scenario v.seed v.detail)
        "" v.detail;
      Alcotest.(check bool) (name ^ " " ^ v.scenario ^ " ok") true v.ok;
      if v.scenario = "blocked-detection" then
        Alcotest.(check bool) (name ^ " flagged as blocked") true v.blocked)
    vs

(* Helped completion on the volatile CX construction, observed directly
   through [Cx.announced_pending]: stall the announcer mid-operation and
   let the others run to completion.  The scan over stall steps is
   deterministic; at least one step must land inside the announce window
   so that the helpers — not the announcer — execute the operation. *)
let test_cx_volatile_helped_completion () =
  let helped = ref false in
  List.iter
    (fun at ->
      let cx = Ptm.Cx.create ~num_threads:3 ~copy:(fun r -> ref !r) (ref 0L) in
      let returned = ref 0 in
      let body tid =
        let n = if tid = 0 then 1 else 4 in
        for _ = 1 to n do
          ignore
            (Ptm.Cx.apply_update cx ~tid (fun r ->
                 r := Int64.add !r 1L;
                 !r));
          incr returned
        done
      in
      let r =
        Sched.run ~seed:11
          ~injections:[ Sched.Stall { tid = 0; at_step = at; duration = None } ]
          ~num_fibers:3 body
      in
      Alcotest.(check bool) "no announced op left behind" false
        (Ptm.Cx.announced_pending cx ~tid:0);
      let final =
        Int64.to_int (Ptm.Cx.apply_read cx ~tid:1 (fun r -> !r))
      in
      (* Every linearized increment is applied exactly once: the final
         value is the returned count, plus one iff the helpers executed
         the stalled announcer's in-flight operation. *)
      let extra = final - !returned in
      Alcotest.(check bool) "no lost or duplicated increment" true
        (extra = 0 || extra = 1);
      if r.Sched.statuses.(0) = Sched.Stalled && extra = 1 then helped := true)
    [ 8; 16; 24; 32; 48; 64; 96 ];
  Alcotest.(check bool) "a stall landed mid-announce and was helped" true
    !helped

(* A reader parked inside its critical section must make the writer's
   bounded drain give up — writer word rolled back, readers unaffected —
   instead of spinning forever. *)
let test_rwlock_drain_abort () =
  let old = Sync_prims.Rwlock.drain_budget () in
  Fun.protect ~finally:(fun () -> Sync_prims.Rwlock.set_drain_budget old)
  @@ fun () ->
  Sync_prims.Rwlock.set_drain_budget 4;
  let l = Sync_prims.Rwlock.create () in
  assert (Sync_prims.Rwlock.shared_try_lock l ~tid:1);
  Alcotest.(check bool) "drain aborted" false
    (Sync_prims.Rwlock.exclusive_try_lock l ~tid:0);
  Alcotest.(check (option int)) "writer word rolled back" None
    (Sync_prims.Rwlock.owner l);
  Alcotest.(check bool) "new readers unaffected" true
    (Sync_prims.Rwlock.shared_try_lock l ~tid:2);
  Sync_prims.Rwlock.shared_unlock l ~tid:2;
  Sync_prims.Rwlock.shared_unlock l ~tid:1;
  Alcotest.(check bool) "writer succeeds once drained" true
    (Sync_prims.Rwlock.exclusive_try_lock l ~tid:0);
  Sync_prims.Rwlock.exclusive_unlock l ~tid:0

let expect_invalid name f =
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")
  | exception Invalid_argument _ -> ()

let test_rwlock_owner_checks () =
  let l = Sync_prims.Rwlock.create () in
  expect_invalid "unlock free lock" (fun () ->
      Sync_prims.Rwlock.exclusive_unlock l ~tid:0);
  assert (Sync_prims.Rwlock.exclusive_try_lock l ~tid:1);
  expect_invalid "unlock by non-owner" (fun () ->
      Sync_prims.Rwlock.exclusive_unlock l ~tid:2);
  expect_invalid "downgrade by non-owner" (fun () ->
      Sync_prims.Rwlock.downgrade l ~tid:2);
  expect_invalid "upgrade without downgrade" (fun () ->
      Sync_prims.Rwlock.upgrade l ~tid:1);
  expect_invalid "try_upgrade without downgrade" (fun () ->
      ignore (Sync_prims.Rwlock.try_upgrade l ~tid:1));
  expect_invalid "downgrade_unlock without downgrade" (fun () ->
      Sync_prims.Rwlock.downgrade_unlock l ~tid:1);
  Sync_prims.Rwlock.exclusive_unlock l ~tid:1

let test_sched_mutex_owner_checks () =
  let m = Sched.Mutex.create () in
  expect_invalid "unlock unheld mutex" (fun () -> Sched.Mutex.unlock m ~tid:0);
  Sched.Mutex.lock m ~tid:1;
  Alcotest.(check (option int)) "holder tracked" (Some 1)
    (Sched.Mutex.holder m);
  expect_invalid "unlock by non-holder" (fun () ->
      Sched.Mutex.unlock m ~tid:0);
  Sched.Mutex.unlock m ~tid:1;
  Alcotest.(check (option int)) "released" None (Sched.Mutex.holder m)

(* ---- Park: one park interface behind one domain-local hook ---- *)

(* A poll that fails [fails] times, then answers [v]. *)
let failing_poll fails v =
  let left = ref fails in
  fun () ->
    if !left = 0 then Some v
    else begin
      decr left;
      None
    end

(* Inside a run every park op is exactly one schedule step, whatever the
   spin count, and the clock is the step counter; an await spends one
   step per failed poll and returns the poll's value. *)
let test_park_in_sched () =
  let steps = ref [] and clock_ok = ref true and got = ref 0 in
  let park op =
    let before = Sched.now () in
    op ();
    steps := (Sched.now () - before) :: !steps;
    if Park.now_us () <> float_of_int (Sched.now ()) then clock_ok := false
  in
  ignore
    (Sched.run ~num_fibers:1 (fun _ ->
         List.iter (fun n -> park (fun () -> Park.pause n)) [ 0; 63; 64; 10_000 ];
         park (fun () -> Park.sleep 0.5);
         park (fun () -> got := Park.await (failing_poll 0 7));
         park (fun () -> got := !got + Park.await (failing_poll 70 35))));
  Alcotest.(check (list int)) "one step per pause, sleep and failed poll"
    [ 70; 0; 1; 1; 1; 1; 1 ] !steps;
  Alcotest.(check int) "await returns the poll's value" 42 !got;
  Alcotest.(check bool) "now_us is the step counter" true !clock_ok

(* On an event loop a pausing or sleeping fiber lets its siblings run
   before it returns, and the sleep lasts at least its duration. *)
let test_park_in_aio () =
  let order = ref [] and slept = ref 0. and wall = ref false in
  let push x = order := x :: !order in
  Aio.run (Aio.create ()) (fun () ->
      Aio.spawn (fun () -> push "sibling");
      Park.pause 0;
      push "paused";
      Aio.spawn (fun () -> push "sibling2");
      let t0 = Unix.gettimeofday () in
      Park.sleep 0.01;
      slept := Unix.gettimeofday () -. t0;
      push "slept";
      wall := Float.abs (Park.now_us () -. (Unix.gettimeofday () *. 1e6)) < 1e6;
      let set = ref false in
      Aio.spawn (fun () ->
          push "setter";
          set := true);
      push (Park.await (fun () -> if !set then Some "awaited" else None)));
  Alcotest.(check (list string)) "siblings run inside the parks"
    [ "sibling"; "paused"; "sibling2"; "slept"; "setter"; "awaited" ]
    (List.rev !order);
  Alcotest.(check bool) "sleep lasts its duration" true (!slept >= 0.01);
  Alcotest.(check bool) "wall clock on the loop" true !wall

(* The plain-Domain record: a wall clock, a pause that sleeps past a
   burst of spins, and park ops that allocate nothing. *)
let check_plain_park what =
  Alcotest.(check bool) (what ^ ": wall clock") true
    (Float.abs (Park.now_us () -. (Unix.gettimeofday () *. 1e6)) < 1e6);
  let t0 = Unix.gettimeofday () in
  for _ = 1 to 20 do
    Park.pause 64
  done;
  Alcotest.(check bool) (what ^ ": pause sleeps past the burst") true
    (Unix.gettimeofday () -. t0 >= 20. *. 5e-5);
  Park.sleep 0.;
  let w0 = Gc.minor_words () in
  for n = 0 to 999 do
    Park.pause (n land 31)
  done;
  Alcotest.(check bool) (what ^ ": pause allocates nothing") true
    (Gc.minor_words () -. w0 < 100.);
  let flag = Stdlib.Atomic.make false in
  let setter =
    Domain.spawn (fun () ->
        Unix.sleepf 0.002;
        Stdlib.Atomic.set flag true)
  in
  Park.await (fun () -> if Stdlib.Atomic.get flag then Some () else None);
  Domain.join setter;
  Alcotest.(check bool) (what ^ ": await returns once another domain sets the flag")
    true (Stdlib.Atomic.get flag)

(* Each run restores the record it found, on return and on raise: the
   plain one at top level, the loop's inside a fiber. *)
let test_park_restored () =
  check_plain_park "before any run";
  ignore (Sched.run ~num_fibers:1 (fun _ -> Park.pause 0));
  check_plain_park "after Sched.run";
  (match
     Sched.run
       ~injections:[ Sched.Stall { tid = 0; at_step = 1; duration = None } ]
       ~hazard:(fun _ -> failwith "hazard")
       ~num_fibers:1
       (fun _ -> Park.pause 0)
   with
  | _ -> Alcotest.fail "a raising hazard must unwind run"
  | exception Failure _ -> ());
  check_plain_park "after Sched.run raised";
  Aio.run (Aio.create ()) (fun () -> Park.pause 0);
  check_plain_park "after Aio.run";
  (* Resuming a fiber twice raises out of the loop itself. *)
  (match
     Aio.run (Aio.create ()) (fun () ->
         Aio.suspend (fun resume ->
             resume ();
             resume ()))
   with
  | () -> Alcotest.fail "a second resume must raise out of Aio.run"
  | exception Effect.Continuation_already_resumed -> ());
  check_plain_park "after Aio.run raised";
  let order = ref [] in
  Aio.run (Aio.create ()) (fun () ->
      ignore (Sched.run ~num_fibers:1 (fun _ -> Park.pause 0));
      Aio.spawn (fun () -> order := "sibling" :: !order);
      Park.pause 0;
      order := "paused" :: !order);
  Alcotest.(check (list string)) "the loop's record is back after Sched.run"
    [ "sibling"; "paused" ] (List.rev !order)

let suites =
  [
    ( "sched",
      [
        Alcotest.test_case "deterministic schedules" `Quick test_determinism;
        Alcotest.test_case "deterministic injections" `Quick
          test_injection_determinism;
        Alcotest.test_case "kill drops the fiber" `Quick test_kill_drops_fiber;
        Alcotest.test_case "mutex owner checks" `Quick
          test_sched_mutex_owner_checks;
        Alcotest.test_case "active only inside a run" `Quick test_active_scope;
        Alcotest.test_case "accessors yield inside a run" `Quick
          test_accessors_yield_in_run;
        Alcotest.test_case "updates beside a live run" `Quick
          test_updates_beside_live_run;
        Alcotest.test_case "second run rejected" `Quick
          test_second_run_rejected;
        Alcotest.test_case "nested run rejected" `Quick
          test_nested_run_rejected;
      ] );
    ( "park",
      [
        Alcotest.test_case "one step per park in a run" `Quick
          test_park_in_sched;
        Alcotest.test_case "parks let sibling fibers run" `Quick
          test_park_in_aio;
        Alcotest.test_case "runs restore the record they found" `Quick
          test_park_restored;
      ] );
    ( "progress",
      [
        Alcotest.test_case "deterministic verdicts" `Quick
          test_verdict_determinism;
        Alcotest.test_case "CX volatile helped completion" `Quick
          test_cx_volatile_helped_completion;
        Alcotest.test_case "CX-PUC adversary rounds" `Quick
          (check_wait_free "CX-PUC" (fun ~rounds () ->
               Prog_cx_puc.sweep ~rounds ()));
        Alcotest.test_case "CX-PTM adversary rounds" `Quick
          (check_wait_free "CX-PTM" (fun ~rounds () ->
               Prog_cx.sweep ~rounds ()));
        Alcotest.test_case "Redo adversary rounds" `Quick
          (check_wait_free "Redo" (fun ~rounds () ->
               Prog_redo.sweep ~rounds ()));
        Alcotest.test_case "RedoTimed adversary rounds" `Quick
          (check_wait_free "RedoTimed" (fun ~rounds () ->
               Prog_redo_timed.sweep ~rounds ()));
        Alcotest.test_case "RedoOpt adversary rounds" `Quick
          (check_wait_free "RedoOpt" (fun ~rounds () ->
               Prog_redo_opt.sweep ~rounds ()));
        Alcotest.test_case "OneFile adversary rounds" `Quick
          (check_wait_free "OneFile" (fun ~rounds () ->
               Prog_onefile.sweep ~rounds ()));
        Alcotest.test_case "PMDK blocked-detection" `Quick
          (check_blocking "PMDK" (fun ~rounds () -> Prog_pmdk.sweep ~rounds ()));
        Alcotest.test_case "RomulusLR blocked-detection" `Quick
          (check_blocking "RomulusLR" (fun ~rounds () ->
               Prog_romulus.sweep ~rounds ()));
      ] );
    ( "rwlock-progress",
      [
        Alcotest.test_case "bounded drain aborts on parked reader" `Quick
          test_rwlock_drain_abort;
        Alcotest.test_case "owner checks raise Invalid_argument" `Quick
          test_rwlock_owner_checks;
      ] );
  ]
