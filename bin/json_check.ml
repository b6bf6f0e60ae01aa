(* json_check: validate machine-readable bench outputs, for CI.

   Usage:
     dune exec bin/json_check.exe -- FILE...
     dune exec bin/json_check.exe -- --trace [--require-phases a,b,c] FILE...
     dune exec bin/json_check.exe -- --serve-stats [--min-batch-mean M] FILE...
     dune exec bin/json_check.exe -- --prom FILE...
     dune exec bin/json_check.exe -- --chaos FILE...
     dune exec bin/json_check.exe -- --supervise FILE...
     dune exec bin/json_check.exe -- --health FILE...
     dune exec bin/json_check.exe -- --pipelined FILE...

   Plain mode checks each FILE parses as JSON.  --trace mode additionally
   checks the Chrome trace-event structure: a top-level object with a
   "traceEvents" array whose elements each carry "name", "ph", "pid",
   "tid" and a numeric "ts".  --require-phases takes a comma-separated
   list of event names that must all be present (e.g.
   lambda,flush,combine — the acceptance gate that a trace spans several
   distinct PTM phases).  --serve-stats validates the serving STATS
   document (per-shard rows with heat sketches, the "windows" member
   with percentile snapshots); with --min-batch-mean M it also requires
   the mean of the serve.batch_size histogram (the server must run with
   --metrics) to be at least M — the gate that group commit actually
   groups.  --prom validates Prometheus text
   exposition 0.0.4 (not JSON): every non-comment line is
   <name>[{labels}] <value>, every sample is preceded by a # TYPE for
   its family, and at least one sample exists.  --chaos validates the
   chaos-sweep report (schema redodb.chaos.v1: every plan string must
   round-trip through Serve.Chaos.parse_plan and every repro line must
   replay a --serve-chaos round).  --supervise validates the
   kill-restart audit report (schema redodb.supervise.v1: the verdict
   must agree with the violation count and the run must actually have
   killed and acked something).  --health validates the quarantine-sweep
   report (schema redodb.quarantine.v1: verdict consistent with the
   violation count, one row per round, every repro line replayable with
   --serve-quarantine).  --pipelined validates the open-loop pipelined
   bench report (schema redodb.pipelined.v1: connection count and
   inflight depth, per-class windowed percentiles from the server, a
   count for every Serve.Write_audit violation class with a verdict
   true exactly when all are zero, and — when a mid-load
   crash was requested — proof it actually fired and recovered).
   Exits non-zero on the first malformed file. *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let check_event file i = function
  | Obs.Json.Obj kvs as e ->
      let mem k = List.mem_assoc k kvs in
      let metadata =
        match List.assoc_opt "ph" kvs with
        | Some (Obs.Json.String "M") -> true
        | _ -> false
      in
      if
        not
          (mem "name" && mem "ph" && mem "pid"
          && (metadata || (mem "tid" && mem "ts")))
      then
        fail "%s: traceEvents[%d] missing a required field in %s" file i
          (Obs.Json.to_string e);
      if not metadata then (
        match List.assoc "ts" kvs with
        | Obs.Json.Int _ | Obs.Json.Float _ -> ()
        | _ -> fail "%s: traceEvents[%d] has a non-numeric ts" file i);
      (match List.assoc "name" kvs with
      | Obs.Json.String n -> if metadata then None else Some n
      | _ -> fail "%s: traceEvents[%d] has a non-string name" file i)
  | _ -> fail "%s: traceEvents[%d] is not an object" file i

let check_trace ~required file doc =
  let events =
    match Obs.Json.member "traceEvents" doc with
    | Some (Obs.Json.List es) -> es
    | Some _ -> fail "%s: \"traceEvents\" is not an array" file
    | None -> fail "%s: no \"traceEvents\" member" file
  in
  let names = List.mapi (check_event file) events |> List.filter_map Fun.id in
  List.iter
    (fun phase ->
      if not (List.mem phase names) then
        fail "%s: required phase %S absent from trace (%d events)" file phase
          (List.length events))
    required;
  Printf.printf "%s: valid Chrome trace, %d events%s\n" file
    (List.length events)
    (if required = [] then ""
     else Printf.sprintf ", phases %s present" (String.concat "," required))

(* ---- serving STATS document ---- *)

let check_window file name = function
  | Obs.Json.Obj kvs ->
      List.iter
        (fun k ->
          match List.assoc_opt k kvs with
          | Some (Obs.Json.Int _ | Obs.Json.Float _) -> ()
          | _ -> fail "%s: window %S lacks numeric %S" file name k)
        [ "window_s"; "count"; "p50_ns"; "p90_ns"; "p99_ns"; "p999_ns" ]
  | _ -> fail "%s: window %S is not an object" file name

let check_serve_stats file doc =
  let mem k =
    match Obs.Json.member k doc with
    | Some v -> v
    | None -> fail "%s: STATS lacks %S" file k
  in
  (match mem "shards" with
  | Obs.Json.Int n when n >= 1 -> ()
  | _ -> fail "%s: bad \"shards\"" file);
  let shard_rows =
    match mem "shard_stats" with
    | Obs.Json.List rows -> rows
    | _ -> fail "%s: \"shard_stats\" is not an array" file
  in
  List.iteri
    (fun i row ->
      (match Obs.Json.member "heat" row with
      | Some (Obs.Json.List hs) when List.length hs = 16 -> ()
      | _ -> fail "%s: shard_stats[%d] lacks a 16-bucket \"heat\" sketch" file i);
      (* the health plane is part of the STATS contract: every shard row
         must say whether the shard is serving and how far the scrubber
         has walked it *)
      (match Obs.Json.member "health" row with
      | Some
          (Obs.Json.String
             ("healthy" | "suspect" | "quarantined" | "rebuilding")) ->
          ()
      | _ -> fail "%s: shard_stats[%d] lacks a valid \"health\" state" file i);
      (match Obs.Json.member "health_reason" row with
      | Some (Obs.Json.String _) -> ()
      | _ -> fail "%s: shard_stats[%d] lacks \"health_reason\"" file i);
      match Obs.Json.member "scrub_passes" row with
      | Some (Obs.Json.Int n) when n >= 0 -> ()
      | _ -> fail "%s: shard_stats[%d] lacks integer \"scrub_passes\"" file i)
    shard_rows;
  (match mem "health" with
  | Obs.Json.Obj kvs ->
      (match List.assoc_opt "isolate" kvs with
      | Some (Obs.Json.Bool _) -> ()
      | _ -> fail "%s: \"health\" lacks bool \"isolate\"" file);
      List.iter
        (fun k ->
          match List.assoc_opt k kvs with
          | Some (Obs.Json.Int _) -> ()
          | _ -> fail "%s: \"health\" lacks counter %S" file k)
        [
          "serve.health.suspects"; "serve.health.quarantines";
          "serve.health.rebuilds"; "serve.health.readmissions";
          "serve.health.scrub_anomalies";
        ]
  | _ -> fail "%s: \"health\" is not an object" file);
  let windows =
    match mem "windows" with
    | Obs.Json.Obj kvs -> kvs
    | _ -> fail "%s: \"windows\" is not an object" file
  in
  List.iter
    (fun cls ->
      let name = "serve.win." ^ cls in
      match List.assoc_opt name windows with
      | Some w -> check_window file name w
      | None -> fail "%s: windows lacks %S" file name)
    [ "get"; "put"; "del"; "mget"; "mput"; "scan" ];
  ignore (mem "epoch");
  ignore (mem "pending_commits");
  Printf.printf "%s: valid serving STATS (%d shards, %d windows)\n" file
    (List.length shard_rows) (List.length windows)

(* ---- chaos-sweep report (crash_torture --serve-chaos --chaos-json) ---- *)

let check_chaos file doc =
  let mem k =
    match Obs.Json.member k doc with
    | Some v -> v
    | None -> fail "%s: chaos report lacks %S" file k
  in
  (match mem "schema" with
  | Obs.Json.String "redodb.chaos.v1" -> ()
  | v ->
      fail "%s: bad schema %s (want \"redodb.chaos.v1\")" file
        (Obs.Json.to_string v));
  let int_field k =
    match mem k with
    | Obs.Json.Int n -> n
    | _ -> fail "%s: %S is not an integer" file k
  in
  let rounds = int_field "rounds" in
  let violations = int_field "violations" in
  ignore (int_field "shards");
  ignore (int_field "seed");
  (match mem "verdict" with
  | Obs.Json.Bool b ->
      if b <> (violations = 0) then
        fail "%s: verdict %b contradicts violations=%d" file b violations
  | _ -> fail "%s: \"verdict\" is not a bool" file);
  let rows =
    match mem "rows" with
    | Obs.Json.List rows -> rows
    | _ -> fail "%s: \"rows\" is not an array" file
  in
  if List.length rows <> rounds then
    fail "%s: %d rows for %d rounds" file (List.length rows) rounds;
  List.iteri
    (fun i row ->
      let rmem k =
        match Obs.Json.member k row with
        | Some v -> v
        | None -> fail "%s: rows[%d] lacks %S" file i k
      in
      (* the plan must round-trip through the real parser, and the repro
         line must name the sweep that replays it *)
      (match rmem "plan" with
      | Obs.Json.String p -> (
          match Serve.Chaos.parse_plan p with
          | Ok plan ->
              if Serve.Chaos.pp_plan plan <> p then
                fail "%s: rows[%d] plan does not round-trip: %S" file i p
          | Error e -> fail "%s: rows[%d] unparsable plan %S (%s)" file i p e)
      | _ -> fail "%s: rows[%d] \"plan\" is not a string" file i);
      (match rmem "repro" with
      | Obs.Json.String r ->
          let has_sub sub =
            let n = String.length sub and m = String.length r in
            let rec go j = j + n <= m && (String.sub r j n = sub || go (j + 1)) in
            go 0
          in
          if not (has_sub "--serve-chaos") then
            fail "%s: rows[%d] repro lacks --serve-chaos: %S" file i r
      | _ -> fail "%s: rows[%d] \"repro\" is not a string" file i);
      List.iter
        (fun k ->
          match rmem k with
          | Obs.Json.Int _ -> ()
          | _ -> fail "%s: rows[%d] %S is not an integer" file i k)
        [ "round"; "seed"; "acked"; "ambiguous"; "unacked"; "total_faults" ])
    rows;
  Printf.printf "%s: valid chaos report (%d rounds, %d violations)\n" file
    rounds violations

(* ---- quarantine-sweep report (crash_torture --serve-quarantine) ---- *)

let check_health file doc =
  let mem k =
    match Obs.Json.member k doc with
    | Some v -> v
    | None -> fail "%s: quarantine report lacks %S" file k
  in
  (match mem "schema" with
  | Obs.Json.String "redodb.quarantine.v1" -> ()
  | v ->
      fail "%s: bad schema %s (want \"redodb.quarantine.v1\")" file
        (Obs.Json.to_string v));
  let int_field k =
    match mem k with
    | Obs.Json.Int n -> n
    | _ -> fail "%s: %S is not an integer" file k
  in
  let rounds = int_field "rounds" in
  let violations = int_field "violations" in
  List.iter
    (fun k -> ignore (int_field k))
    [ "shards"; "seed"; "clients"; "ops_per_client" ];
  (match mem "verdict" with
  | Obs.Json.Bool b ->
      if b <> (violations = 0) then
        fail "%s: verdict %b contradicts violations=%d" file b violations
  | _ -> fail "%s: \"verdict\" is not a bool" file);
  let rows =
    match mem "rows" with
    | Obs.Json.List rows -> rows
    | _ -> fail "%s: \"rows\" is not an array" file
  in
  if List.length rows <> rounds then
    fail "%s: %d rows for %d rounds" file (List.length rows) rounds;
  List.iteri
    (fun i row ->
      let rmem k =
        match Obs.Json.member k row with
        | Some v -> v
        | None -> fail "%s: rows[%d] lacks %S" file i k
      in
      (match rmem "repro" with
      | Obs.Json.String r ->
          let has_sub sub =
            let n = String.length sub and m = String.length r in
            let rec go j = j + n <= m && (String.sub r j n = sub || go (j + 1)) in
            go 0
          in
          if not (has_sub "--serve-quarantine") then
            fail "%s: rows[%d] repro lacks --serve-quarantine: %S" file i r
      | _ -> fail "%s: rows[%d] \"repro\" is not a string" file i);
      List.iter
        (fun k ->
          match rmem k with
          | Obs.Json.Int _ -> ()
          | _ -> fail "%s: rows[%d] %S is not an integer" file i k)
        [
          "round"; "seed"; "victim"; "acked"; "victim_refusals"; "window_ops";
          "rebuild_window_acks"; "scrub_full_passes"; "scrub_anomalies";
        ];
      match rmem "health" with
      | Obs.Json.Obj kvs ->
          List.iter
            (fun k ->
              match List.assoc_opt k kvs with
              | Some (Obs.Json.Int _) -> ()
              | _ -> fail "%s: rows[%d] health lacks counter %S" file i k)
            [ "serve.health.quarantines"; "serve.health.readmissions" ]
      | _ -> fail "%s: rows[%d] \"health\" is not an object" file i)
    rows;
  Printf.printf "%s: valid quarantine report (%d rounds, %d violations)\n" file
    rounds violations

(* Group-commit gate: the mean committed batch size, from the
   serve.batch_size histogram in STATS "metrics".  A front-end that
   commits every write alone reads exactly 1. *)
let check_batch_mean ~min file doc =
  let ( >>= ) = Option.bind in
  match
    Obs.Json.member "metrics" doc >>= Obs.Json.member "histograms"
    >>= Obs.Json.member "serve.batch_size" >>= Obs.Json.member "mean_ns"
  with
  | Some (Obs.Json.Float m) when m >= min ->
      Printf.printf "%s: mean group-commit batch size %.2f >= %.2f\n" file m min
  | Some (Obs.Json.Float m) ->
      fail "%s: mean group-commit batch size %.2f is below %.2f" file m min
  | _ ->
      fail "%s: no serve.batch_size histogram (server not run with --metrics?)"
        file

(* ---- pipelined open-loop report (bench_serve --connections) ---- *)

let check_pipelined file doc =
  let mem k =
    match Obs.Json.member k doc with
    | Some v -> v
    | None -> fail "%s: pipelined report lacks %S" file k
  in
  (match mem "schema" with
  | Obs.Json.String "redodb.pipelined.v1" -> ()
  | v ->
      fail "%s: bad schema %s (want \"redodb.pipelined.v1\")" file
        (Obs.Json.to_string v));
  let int_field k =
    match mem k with
    | Obs.Json.Int n -> n
    | _ -> fail "%s: %S is not an integer" file k
  in
  let connections = int_field "connections" in
  let pipeline = int_field "pipeline" in
  let acked = int_field "acked" in
  if connections < 1 then fail "%s: connections < 1" file;
  if pipeline < 1 then fail "%s: pipeline (inflight depth) < 1" file;
  if acked < 1 then fail "%s: no acked writes — the audit proved nothing" file;
  List.iter
    (fun k -> ignore (int_field k))
    [ "drivers"; "ops_per_conn"; "seed"; "reconnects"; "gave_up" ];
  (match mem "throughput_ops_s" with
  | Obs.Json.Float _ | Obs.Json.Int _ -> ()
  | _ -> fail "%s: non-numeric \"throughput_ops_s\"" file);
  (* a crash that was requested must actually have fired and recovered *)
  (match (mem "crash_at", mem "crash_ms") with
  | Obs.Json.Null, _ -> ()
  | _, (Obs.Json.Float _ | Obs.Json.Int _) -> ()
  | _, v ->
      fail "%s: crash_at set but crash_ms is %s (crash never recovered)" file
        (Obs.Json.to_string v));
  (* the zero-loss audit: counters present, verdict consistent *)
  let verify = mem "verify" in
  let vint k =
    match Obs.Json.member k verify with
    | Some (Obs.Json.Int n) -> n
    | _ -> fail "%s: verify lacks integer %S" file k
  in
  ignore (vint "checked");
  let bad =
    List.filter_map
      (fun cls ->
        let k = Serve.Write_audit.class_name cls in
        match vint k with 0 -> None | n -> Some (Printf.sprintf "%s=%d" k n))
      Serve.Write_audit.classes
  in
  (match mem "verdict" with
  | Obs.Json.Bool b ->
      if b <> (bad = []) then
        fail "%s: verdict %b contradicts the audit (%s)" file b
          (if bad = [] then "no violations" else String.concat " " bad)
  | _ -> fail "%s: \"verdict\" is not a bool" file);
  (* per-class windowed percentiles from the server *)
  (match mem "server_windows" with
  | Obs.Json.Obj kvs ->
      (match List.assoc_opt "serve.win.put" kvs with
      | Some w -> check_window file "serve.win.put" w
      | None -> fail "%s: server_windows lacks \"serve.win.put\"" file)
  | _ -> fail "%s: \"server_windows\" is not an object" file);
  (match mem "slo" with
  | Obs.Json.List rows ->
      List.iteri
        (fun i row ->
          match Obs.Json.member "pass" row with
          | Some (Obs.Json.Bool _) -> ()
          | _ -> fail "%s: slo[%d] lacks bool \"pass\"" file i)
        rows
  | _ -> fail "%s: \"slo\" is not an array" file);
  Printf.printf
    "%s: valid pipelined report (%d conns x depth %d, %d acked, verdict %s)\n"
    file connections pipeline acked
    (match mem "verdict" with Obs.Json.Bool true -> "pass" | _ -> "fail")

(* ---- supervised-restart report (redodb_server --supervise) ---- *)

let check_supervise file doc =
  let mem k =
    match Obs.Json.member k doc with
    | Some v -> v
    | None -> fail "%s: supervise report lacks %S" file k
  in
  (match mem "schema" with
  | Obs.Json.String "redodb.supervise.v1" -> ()
  | v ->
      fail "%s: bad schema %s (want \"redodb.supervise.v1\")" file
        (Obs.Json.to_string v));
  let int_field k =
    match mem k with
    | Obs.Json.Int n -> n
    | _ -> fail "%s: %S is not an integer" file k
  in
  let kills = int_field "kills" in
  let rounds = int_field "rounds" in
  let acked = int_field "acked" in
  let violations =
    match mem "violations" with
    | Obs.Json.List vs ->
        List.iteri
          (fun i -> function
            | Obs.Json.String _ -> ()
            | _ -> fail "%s: violations[%d] is not a string" file i)
          vs;
        List.length vs
    | _ -> fail "%s: \"violations\" is not an array" file
  in
  List.iter
    (fun k -> ignore (int_field k))
    [
      "clients"; "unresolved"; "definite_fail"; "resolved_commits";
      "client_retries"; "client_timeouts"; "client_reconnects";
      "txstat_resolved_acks";
    ];
  if kills <> rounds then fail "%s: %d kills for %d rounds" file kills rounds;
  if kills < 1 then fail "%s: a supervise run needs at least one kill" file;
  if acked < 1 then
    fail "%s: no acked writes — the audit proved nothing" file;
  (match mem "verdict" with
  | Obs.Json.String ("pass" | "fail") ->
      let pass = mem "verdict" = Obs.Json.String "pass" in
      if pass <> (violations = 0) then
        fail "%s: verdict %S contradicts %d violations" file
          (if pass then "pass" else "fail")
          violations
  | v -> fail "%s: bad \"verdict\" %s" file (Obs.Json.to_string v));
  Printf.printf
    "%s: valid supervise report (%d kills, %d acked, %d violations)\n" file
    kills acked violations

(* ---- Prometheus text exposition 0.0.4 ---- *)

let prom_name_ok s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false)
       s

(* name of a sample line: up to '{' or the first space *)
let sample_family line =
  let cut =
    match String.index_opt line '{' with
    | Some i -> i
    | None -> ( match String.index_opt line ' ' with Some i -> i | None -> 0)
  in
  String.sub line 0 cut

let check_prom file =
  let ic = open_in file in
  let typed = Hashtbl.create 16 in
  let samples = ref 0 in
  let lineno = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       if line = "" then ()
       else if String.length line > 6 && String.sub line 0 7 = "# TYPE " then begin
         match String.split_on_char ' ' line with
         | [ "#"; "TYPE"; name; kind ] ->
             if not (prom_name_ok name) then
               fail "%s:%d: bad metric name %S" file !lineno name;
             if not (List.mem kind [ "counter"; "gauge"; "summary"; "histogram" ])
             then fail "%s:%d: bad TYPE kind %S" file !lineno kind;
             Hashtbl.replace typed name ()
         | _ -> fail "%s:%d: malformed TYPE line %S" file !lineno line
       end
       else if line.[0] = '#' then ()  (* HELP or comment *)
       else begin
         (* <name>[{labels}] <value> *)
         let fam = sample_family line in
         (* summary quantile samples use the family name; _sum/_count
            suffixes belong to their family too *)
         let base =
           if Filename.check_suffix fam "_sum" then
             String.sub fam 0 (String.length fam - 4)
           else if Filename.check_suffix fam "_count" then
             String.sub fam 0 (String.length fam - 6)
           else fam
         in
         if not (prom_name_ok fam) then
           fail "%s:%d: bad sample name %S" file !lineno fam;
         if not (Hashtbl.mem typed fam || Hashtbl.mem typed base) then
           fail "%s:%d: sample %S has no preceding # TYPE" file !lineno fam;
         (match String.rindex_opt line ' ' with
         | None -> fail "%s:%d: sample line has no value: %S" file !lineno line
         | Some i -> (
             let v = String.sub line (i + 1) (String.length line - i - 1) in
             match float_of_string_opt v with
             | Some _ -> ()
             | None -> fail "%s:%d: non-numeric sample value %S" file !lineno v));
         incr samples
       end
     done
   with End_of_file -> ());
  close_in ic;
  if !samples = 0 then fail "%s: no samples in exposition" file;
  (* the per-shard health plane must be scrapeable *)
  List.iter
    (fun fam ->
      if not (Hashtbl.mem typed fam) then
        fail "%s: exposition lacks the %s gauge family" file fam)
    [ "redodb_shard_health"; "redodb_shard_scrub_passes" ];
  Printf.printf "%s: valid Prometheus exposition, %d samples, %d families\n" file
    !samples (Hashtbl.length typed)

let () =
  let trace_mode = ref false in
  let serve_stats_mode = ref false in
  let prom_mode = ref false in
  let chaos_mode = ref false in
  let supervise_mode = ref false in
  let health_mode = ref false in
  let pipelined_mode = ref false in
  let min_batch_mean = ref None in
  let required = ref [] in
  let files = ref [] in
  let rec parse = function
    | [] -> ()
    | "--trace" :: rest -> trace_mode := true; parse rest
    | "--serve-stats" :: rest -> serve_stats_mode := true; parse rest
    | "--prom" :: rest -> prom_mode := true; parse rest
    | "--chaos" :: rest -> chaos_mode := true; parse rest
    | "--supervise" :: rest -> supervise_mode := true; parse rest
    | "--health" :: rest -> health_mode := true; parse rest
    | "--pipelined" :: rest -> pipelined_mode := true; parse rest
    | "--require-phases" :: csv :: rest ->
        required := String.split_on_char ',' csv;
        parse rest
    | [ "--require-phases" ] -> fail "--require-phases needs a,b,c"
    | "--min-batch-mean" :: m :: rest -> (
        match float_of_string_opt m with
        | Some m -> min_batch_mean := Some m; parse rest
        | None -> fail "--min-batch-mean needs a number, got %S" m)
    | [ "--min-batch-mean" ] -> fail "--min-batch-mean needs a number"
    | f :: rest -> files := !files @ [ f ]; parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !files = [] then
    fail
      "usage: json_check [--trace [--require-phases a,b] | --serve-stats \
       [--min-batch-mean M] | --prom | --chaos | --supervise | --health | \
       --pipelined] FILE...";
  List.iter
    (fun file ->
      if !prom_mode then check_prom file
      else
        match Obs.Json.parse_file file with
        | Error e -> fail "%s: malformed JSON: %s" file e
        | Ok doc ->
            if !trace_mode then check_trace ~required:!required file doc
            else if !serve_stats_mode then begin
              check_serve_stats file doc;
              Option.iter (fun min -> check_batch_mean ~min file doc)
                !min_batch_mean
            end
            else if !chaos_mode then check_chaos file doc
            else if !supervise_mode then check_supervise file doc
            else if !health_mode then check_health file doc
            else if !pipelined_mode then check_pipelined file doc
            else Printf.printf "%s: valid JSON\n" file)
    !files
