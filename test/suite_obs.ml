(* Tests for lib/obs: JSON printer/parser, metrics registry (counter
   semantics, histogram percentiles against a sorted-reference oracle),
   trace ring wraparound, and the Chrome trace-event export. *)

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool

(* ---- Json ---- *)

let test_json_roundtrip () =
  let open Obs.Json in
  let v =
    Obj
      [
        ("s", String "he \"quoted\"\n\tstring");
        ("i", Int (-42));
        ("f", Float 2.5);
        ("l", List [ Bool true; Bool false; Null; Int 0 ]);
        ("empty_obj", Obj []);
        ("empty_list", List []);
      ]
  in
  match parse (to_string v) with
  | Error e -> Alcotest.failf "roundtrip parse failed: %s" e
  | Ok v' -> checkb "roundtrip equal" true (v = v')

let test_json_reject () =
  let bad = [ ""; "{"; "[1,"; "tru"; "1 2"; "{\"a\":}"; "\"unterminated"; "nan" ] in
  List.iter
    (fun s ->
      match Obs.Json.parse s with
      | Ok _ -> Alcotest.failf "parser accepted malformed input %S" s
      | Error _ -> ())
    bad;
  (* non-finite floats print as null rather than breaking the document *)
  let s = Obs.Json.to_string (Obs.Json.Float Float.nan) in
  checkb "nan prints as null" true (String.equal s "null")

let test_json_member () =
  let open Obs.Json in
  let v = Obj [ ("a", Int 1); ("b", String "x") ] in
  checkb "member present" true (member "b" v = Some (String "x"));
  checkb "member absent" true (member "c" v = None);
  checkb "member on non-obj" true (member "a" (Int 3) = None)

(* ---- Metrics: counters ---- *)

let test_counter_semantics () =
  Obs.Metrics.enable true;
  let c = Obs.Metrics.counter "test.ctr" in
  Obs.Metrics.reset_counter c;
  let c' = Obs.Metrics.counter "test.ctr" in
  Obs.Metrics.incr c ~tid:0;
  Obs.Metrics.incr c ~tid:1;
  Obs.Metrics.add c' ~tid:5 3;
  check Alcotest.int "idempotent registry sums all increments" 5
    (Obs.Metrics.counter_value c);
  let per = Obs.Metrics.counter_per_thread c in
  check Alcotest.int "per-thread cell tid 5" 3 per.(5);
  Obs.Metrics.reset_counter c;
  check Alcotest.int "reset" 0 (Obs.Metrics.counter_value c);
  Obs.Metrics.enable false;
  Obs.Metrics.incr c ~tid:0;
  check Alcotest.int "disabled incr is a no-op" 0 (Obs.Metrics.counter_value c)

(* ---- Metrics: histogram percentiles vs a sorted-reference oracle ---- *)

let test_histogram_percentiles () =
  let h = Obs.Metrics.make_histogram ~name:"test.hist" () in
  let st = Random.State.make [| 0x0b5 |] in
  let n = 10_000 in
  let values =
    Array.init n (fun _ -> 1 + Random.State.int st (1 lsl (4 + Random.State.int st 16)))
  in
  Array.iter (fun v -> Obs.Metrics.record_ns h ~tid:0 v) values;
  let sorted = Array.copy values in
  Array.sort compare sorted;
  let oracle p = sorted.(int_of_float (p *. float_of_int (n - 1))) in
  let s = Obs.Metrics.hsnapshot h in
  check Alcotest.int "count" n s.Obs.Metrics.count;
  let mx = Array.fold_left max 0 values in
  check Alcotest.int "max exact" mx s.Obs.Metrics.max_ns;
  let near name got want =
    let rel =
      abs_float (float_of_int got -. float_of_int want) /. float_of_int want
    in
    if rel > 0.10 then
      Alcotest.failf "%s: histogram %d vs oracle %d (%.1f%% off)" name got want
        (100. *. rel)
  in
  near "p50" s.Obs.Metrics.p50 (oracle 0.50);
  near "p90" s.Obs.Metrics.p90 (oracle 0.90);
  near "p99" s.Obs.Metrics.p99 (oracle 0.99);
  near "p999" s.Obs.Metrics.p999 (oracle 0.999);
  let mean = Array.fold_left ( + ) 0 values |> float_of_int in
  near "mean" (int_of_float s.Obs.Metrics.mean_ns)
    (int_of_float (mean /. float_of_int n));
  Obs.Metrics.reset_histogram h;
  check Alcotest.int "reset count" 0 (Obs.Metrics.hsnapshot h).Obs.Metrics.count

(* ---- Window: sliding-window percentiles vs a sorted-array oracle ---- *)

let test_window_oracle () =
  let w = Obs.Window.create ~epochs:5 ~epoch_s:1.0 "test.win.oracle" in
  Obs.Window.reset w;
  check (Alcotest.float 0.) "window span" 5.0 (Obs.Window.window_s w);
  checkb "registry is idempotent by name" true
    (Obs.Window.create "test.win.oracle" == w);
  checkb "find" true (Obs.Window.find "test.win.oracle" = Some w);
  let st = Random.State.make [| 0x11a |] in
  let n = 8_000 in
  let values =
    Array.init n (fun _ -> 1 + Random.State.int st (1 lsl (4 + Random.State.int st 16)))
  in
  (* spread the records across all live epochs (timestamps nondecreasing
     over [100, 104]); merge-on-read must see every one of them *)
  Array.iteri
    (fun i v ->
      let now = 100.0 +. (4.0 *. float_of_int i /. float_of_int n) in
      Obs.Window.record_ns w ~now v)
    values;
  let s = Obs.Window.snapshot ~now:104.5 w in
  check Alcotest.int "count" n s.Obs.Metrics.count;
  check Alcotest.int "max exact" (Array.fold_left max 0 values) s.Obs.Metrics.max_ns;
  let sorted = Array.copy values in
  Array.sort compare sorted;
  let oracle p = sorted.(int_of_float (p *. float_of_int (n - 1))) in
  let near name got want =
    let rel =
      abs_float (float_of_int got -. float_of_int want) /. float_of_int want
    in
    if rel > 0.10 then
      Alcotest.failf "%s: window %d vs oracle %d (%.1f%% off)" name got want
        (100. *. rel)
  in
  near "p50" s.Obs.Metrics.p50 (oracle 0.50);
  near "p90" s.Obs.Metrics.p90 (oracle 0.90);
  near "p99" s.Obs.Metrics.p99 (oracle 0.99);
  near "p999" s.Obs.Metrics.p999 (oracle 0.999)

(* Rotation recycles epochs in place: values older than the window fall
   out as [now] advances, newer ones survive, and a long gap drains the
   window completely. *)
let test_window_rotation_expiry () =
  let w = Obs.Window.create ~epochs:4 ~epoch_s:1.0 "test.win.rot" in
  Obs.Window.reset w;
  for _ = 1 to 100 do Obs.Window.record_ns w ~now:200.0 1_000 done;
  for _ = 1 to 50 do Obs.Window.record_ns w ~now:203.0 1_000_000 done;
  let s = Obs.Window.snapshot ~now:203.0 w in
  check Alcotest.int "both batches inside the window" 150 s.Obs.Metrics.count;
  (* window now covers epochs 202..205: the t=200 batch has expired *)
  let s = Obs.Window.snapshot ~now:205.5 w in
  check Alcotest.int "old epoch expired on rotation" 50 s.Obs.Metrics.count;
  checkb "survivors are the fresh batch" true (s.Obs.Metrics.p50 >= 500_000);
  let s = Obs.Window.snapshot ~now:300.0 w in
  check Alcotest.int "fully drained after a long gap" 0 s.Obs.Metrics.count;
  (* record_span_s converts seconds to nanoseconds *)
  Obs.Window.record_span_s w ~now:300.0 0.001;
  let s = Obs.Window.snapshot ~now:300.0 w in
  check Alcotest.int "span recorded" 1 s.Obs.Metrics.count;
  checkb "span stored in ns" true
    (s.Obs.Metrics.max_ns >= 900_000 && s.Obs.Metrics.max_ns <= 1_100_000);
  (* windows are the always-on telemetry plane: recording is not gated
     on Metrics.enable *)
  let was_on = Obs.Metrics.is_on () in
  Obs.Metrics.enable false;
  Obs.Window.record_ns w ~now:300.1 2_000;
  Obs.Metrics.enable was_on;
  check Alcotest.int "records while metrics are disabled" 2
    (Obs.Window.snapshot ~now:300.2 w).Obs.Metrics.count;
  (* the registry JSON carries this window with percentile members *)
  match Obs.Json.member "test.win.rot" (Obs.Window.to_json ~now:300.2 ()) with
  | Some row ->
      checkb "to_json has count" true (Obs.Json.member "count" row <> None);
      checkb "to_json has p99_ns" true (Obs.Json.member "p99_ns" row <> None)
  | None -> Alcotest.fail "to_json lacks the registered window"

(* ---- Trace: ring wraparound ---- *)

let test_trace_wraparound () =
  Obs.Trace.enable ~capacity:16 ();
  for i = 0 to 39 do
    Obs.Trace.instant ~arg:i Obs.Trace.Fence ~tid:0
  done;
  check Alcotest.int "recorded counts every event" 40 (Obs.Trace.recorded ());
  check Alcotest.int "dropped = overwritten oldest" 24 (Obs.Trace.dropped ());
  let doc = Obs.Trace.export () in
  Obs.Trace.disable ();
  let events =
    match Obs.Json.member "traceEvents" doc with
    | Some (Obs.Json.List es) -> es
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let args =
    List.filter_map
      (fun e ->
        match (Obs.Json.member "ph" e, Obs.Json.member "args" e) with
        | Some (Obs.Json.String "i"), Some a -> (
            match Obs.Json.member "v" a with
            | Some (Obs.Json.Int v) -> Some v
            | _ -> None)
        | _ -> None)
      events
  in
  check Alcotest.int "ring keeps exactly capacity events" 16 (List.length args);
  checkb "survivors are the newest events" true
    (List.sort compare args = List.init 16 (fun i -> 24 + i))

(* ---- Trace: Chrome trace-event export round-trips ---- *)

let test_trace_chrome_roundtrip () =
  Obs.Trace.enable ();
  Obs.Trace.instant ~arg:7 Obs.Trace.Crash ~tid:1;
  Obs.Trace.span Obs.Trace.Tx ~tid:2 (fun () -> ignore (Sys.opaque_identity 1));
  (let t0 = Unix.gettimeofday () in
   Obs.Trace.complete Obs.Trace.Flush ~tid:3 ~t0);
  let s = Obs.Json.to_string (Obs.Trace.export ()) in
  Obs.Trace.disable ();
  match Obs.Json.parse s with
  | Error e -> Alcotest.failf "exported trace does not parse: %s" e
  | Ok doc ->
      let events =
        match Obs.Json.member "traceEvents" doc with
        | Some (Obs.Json.List es) -> es
        | _ -> Alcotest.fail "no traceEvents array"
      in
      (* meta + 3 recorded events *)
      check Alcotest.int "event count" 4 (List.length events);
      List.iter
        (fun e ->
          match Obs.Json.member "ph" e with
          | Some (Obs.Json.String ("M" | "i" | "X")) -> ()
          | _ -> Alcotest.fail "unexpected ph")
        events;
      let spans =
        List.filter
          (fun e -> Obs.Json.member "ph" e = Some (Obs.Json.String "X"))
          events
      in
      check Alcotest.int "two complete spans" 2 (List.length spans);
      List.iter
        (fun e ->
          match Obs.Json.member "dur" e with
          | Some (Obs.Json.Float d) -> checkb "non-negative dur" true (d >= 0.)
          | _ -> Alcotest.fail "span without dur")
        spans

let test_metrics_to_json_parses () =
  Obs.Metrics.enable true;
  let c = Obs.Metrics.counter "test.json.ctr" in
  Obs.Metrics.incr c ~tid:0;
  let h = Obs.Metrics.histogram "test.json.hist" in
  Obs.Metrics.record_ns h ~tid:0 1234;
  let s = Obs.Json.to_string (Obs.Metrics.to_json ()) in
  Obs.Metrics.enable false;
  Obs.Metrics.reset_counter c;
  Obs.Metrics.reset_histogram h;
  match Obs.Json.parse s with
  | Error e -> Alcotest.failf "metrics json does not parse: %s" e
  | Ok doc ->
      checkb "has counters" true (Obs.Json.member "counters" doc <> None);
      checkb "has histograms" true (Obs.Json.member "histograms" doc <> None)

(* ---- Breakdown zero-guards (satellite of the obs port) ---- *)

let test_breakdown_zero_guards () =
  let bd = Ptm.Breakdown.create ~num_threads:2 in
  let s = Ptm.Breakdown.snapshot bd in
  let finite name v =
    checkb name true (Float.is_finite v)
  in
  finite "avg_us finite on empty" (Ptm.Breakdown.avg_us s);
  finite "fraction finite on empty" (Ptm.Breakdown.fraction s "flush");
  check (Alcotest.float 0.) "avg_us zero" 0. (Ptm.Breakdown.avg_us s);
  check (Alcotest.float 0.) "fraction zero" 0. (Ptm.Breakdown.fraction s "flush")

(* ---- Pmem per-thread stats (satellite 3) ---- *)

let test_pmem_stats_per_thread () =
  let pm = Pmem.create ~max_threads:3 ~words:256 () in
  Pmem.set_word pm ~tid:0 0 1L;
  Pmem.pwb pm ~tid:0 0;
  Pmem.pfence pm ~tid:0;
  Pmem.set_word pm ~tid:1 64 2L;
  Pmem.set_word pm ~tid:1 128 3L;
  Pmem.pwb pm ~tid:1 64;
  Pmem.pwb pm ~tid:1 128;
  Pmem.psync pm ~tid:1;
  let agg = Pmem.stats pm in
  let per = Pmem.stats_per_thread pm in
  check Alcotest.int "one snapshot per thread slot" 3 (Array.length per);
  let sum f = Array.fold_left (fun a s -> a + f s) 0 per in
  check Alcotest.int "pwb sums" agg.Pmem.Stats.pwb
    (sum (fun s -> s.Pmem.Stats.pwb));
  check Alcotest.int "pfence sums" agg.Pmem.Stats.pfence
    (sum (fun s -> s.Pmem.Stats.pfence));
  check Alcotest.int "psync sums" agg.Pmem.Stats.psync
    (sum (fun s -> s.Pmem.Stats.psync))

let suites =
  [
    ( "obs",
      [
        Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
        Alcotest.test_case "json rejects malformed" `Quick test_json_reject;
        Alcotest.test_case "json member" `Quick test_json_member;
        Alcotest.test_case "counter semantics" `Quick test_counter_semantics;
        Alcotest.test_case "histogram percentiles vs oracle" `Quick
          test_histogram_percentiles;
        Alcotest.test_case "window percentiles vs oracle" `Quick
          test_window_oracle;
        Alcotest.test_case "window rotation and expiry" `Quick
          test_window_rotation_expiry;
        Alcotest.test_case "trace ring wraparound" `Quick test_trace_wraparound;
        Alcotest.test_case "chrome trace roundtrip" `Quick
          test_trace_chrome_roundtrip;
        Alcotest.test_case "metrics to_json parses" `Quick
          test_metrics_to_json_parses;
        Alcotest.test_case "breakdown zero guards" `Quick
          test_breakdown_zero_guards;
        Alcotest.test_case "pmem stats_per_thread" `Quick
          test_pmem_stats_per_thread;
      ] );
  ]
