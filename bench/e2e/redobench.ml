(* redobench: the end-to-end benchmark of the RedoDB stack.

     redobench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
               [--trace-dir DIR] [--json FILE]
     redobench compare BASE.json... -- NEW.json...

   Untraced (--trace 0), each workload sets up [setups] times (the
   median is setup_s), warms up, measures for --seconds, drains, audits,
   power-fails and audits again, then prints its end-to-end metrics.
   Traced (--trace 1), it runs half the window untraced and half with
   the server's metrics and span trace on, replays the op stream against
   single layers in process, and prints the per-layer metrics.  The last
   line of standard output is one JSON object (see README.md). *)

open E2e

let pf = Printf.printf
let warmup = 3.
let setups = 5

let self_check (w : Gen.workload) (o : Outcome.t) =
  List.iter
    (fun c ->
      if Gen.in_mix w c && Array.length o.lat.(Gen.cls_index c) = 0 then
        failwith (Printf.sprintf "no %s completed in the measured window" (Gen.cls_name c)))
    Gen.classes;
  (* In process the generator is the system under test, so its CPU
     share says nothing about who set the pace. *)
  if (not w.in_process) && o.driver_cpu_frac > 0.8 then
    failwith
      (Printf.sprintf "load generator CPU share %.2f exceeds 0.8: it, not the server, would set the numbers"
         o.driver_cpu_frac)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let run_workload (w : Gen.workload) ~seed ~seconds ~setups ~trace_file =
  let o =
    if w.in_process then Direct.run w ~seed ~seconds ~warmup ~setups ~traced:(trace_file <> None)
    else Wire.run w ~seed ~seconds ~warmup ~setups ~trace_file
  in
  self_check w o;
  o

(* (correct, attempted, failed, metrics, report entry) *)
let untraced w ~seed ~seconds =
  let o = run_workload w ~seed ~seconds ~setups ~trace_file:None in
  Report.print_run w o ~label:(Printf.sprintf "seed %d" seed);
  (o.violations = 0, o.attempted, o.failed, Report.e2e o, Report.workload_json o ~per_layer:[])

let traced (w : Gen.workload) ~seed ~seconds ~trace_dir =
  let half = seconds /. 2. in
  let dir = Filename.concat trace_dir w.name in
  mkdir_p dir;
  let server_trace = Filename.concat dir "server-trace.json" in
  let u = run_workload w ~seed ~seconds:half ~setups:1 ~trace_file:None in
  let tr = run_workload w ~seed ~seconds:half ~setups:1 ~trace_file:(Some server_trace) in
  if w.in_process then Obs.Trace.write_file server_trace;
  (* each replay builds a store of a few hundred MB: free one before the next *)
  Gc.compact ();
  let eng = if w.in_process then None else Some (Replay.engine w ~seed) in
  Gc.compact ();
  let db = if w.in_process then None else Some (Replay.db w ~seed) in
  Gc.compact ();
  let rows =
    Layers.rows
      {
        w;
        u;
        tr;
        eng;
        db;
        codec_ns = (if w.in_process then None else Some (Replay.codec_ns_per_op w ~seed));
        flush_us = Replay.flush_us_per_line ();
      }
  in
  Report.write_spans (Filename.concat dir "bench-trace.json")
    (tr.spans
    @ (match eng with Some e -> e.e.spans | None -> [])
    @ match db with Some (d, _) -> d.spans | None -> []);
  Report.print_run w u ~label:"untraced half";
  Report.print_run w tr ~label:"traced half";
  Report.print_layers rows;
  pf "  traces: %s, %s\n" server_trace (Filename.concat dir "bench-trace.json");
  ( u.violations = 0 && tr.violations = 0,
    u.attempted + tr.attempted,
    u.failed + tr.failed,
    List.map (fun (r : Layers.row) -> (r.name, r.unit, Some r.value)) rows,
    Report.workload_json u ~per_layer:rows )

let host_json () =
  Obs.Json.Obj
    [
      ("nproc", Obs.Json.Int (Child.nproc ()));
      ("cpu_model", Obs.Json.String (Child.cpu_model ()));
      ("flush_us_per_line", Obs.Json.Float (Replay.flush_us_per_line ()));
    ]

let run_main () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let trace_dir = ref "_redobench/trace" and json = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " Gen.names ^ " (default: all)");
      ("--seed", Arg.Set_int seed, "N op-stream seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measured window (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run (default 0)");
      ("--trace-dir", Arg.Set_string trace_dir, "DIR where traced runs write traces (default _redobench/trace)");
      ("--json", Arg.Set_string json, "FILE write the full report here");
    ]
  in
  let usage = "redobench [options]\n       redobench compare BASE.json... -- NEW.json...\noptions:" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let ws =
    if !workload = "" then Gen.workloads
    else
      match Gen.find !workload with
      | Some w -> [ w ]
      | None -> raise (Arg.Bad ("unknown workload " ^ !workload))
  in
  if !trace <> 0 && !trace <> 1 then raise (Arg.Bad "--trace takes 0 or 1");
  if !seconds <= 0. then raise (Arg.Bad "--seconds must be positive");
  let results =
    List.map
      (fun (w : Gen.workload) ->
        let r =
          if !trace = 1 then traced w ~seed:!seed ~seconds:!seconds ~trace_dir:!trace_dir
          else untraced w ~seed:!seed ~seconds:!seconds
        in
        (w, r))
      ws
  in
  if !json <> "" then
    Out_channel.with_open_text !json (fun oc ->
        Obs.Json.to_channel oc
          (Obs.Json.Obj
             [
               ("schema", Obs.Json.String "redobench.v1");
               ("seed", Obs.Json.Int !seed);
               ("seconds", Obs.Json.Float !seconds);
               ("warmup", Obs.Json.Float warmup);
               ("trace", Obs.Json.Bool (!trace = 1));
               ("host", host_json ());
               ("workloads", Obs.Json.Obj (List.map (fun ((w : Gen.workload), (_, _, _, _, j)) -> (w.name, j)) results));
             ]));
  let correct = ref true in
  List.iter
    (fun (_, (ok, attempted, failed, metrics, _)) ->
      if not ok then correct := false;
      pf "%s\n%!" (Report.result_line ~correct:ok ~attempted ~failed metrics))
    results;
  if !correct then 0 else 1

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* leave through [exit] so at_exit reaps the server child *)
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2))) [ Sys.sigint; Sys.sigterm ];
  let code =
    try
      match Array.to_list Sys.argv with
      | _ :: "compare" :: rest -> Verdict.main ~bench_file:"BENCHMARK.json" rest
      | _ -> run_main ()
    with
    | Arg.Bad msg ->
        prerr_endline msg;
        2
    | Arg.Help msg ->
        print_string msg;
        0
    | Failure msg | Sys_error msg ->
        Printf.eprintf "redobench: %s\n%!" msg;
        1
    | Unix.Unix_error (e, fn, _) ->
        Printf.eprintf "redobench: %s: %s\n%!" fn (Unix.error_message e);
        1
  in
  exit code
