(* Load generator for redodb_server.

   N connections drive a PUT/MPUT/SCAN mix over disjoint key ranges.
   Each connection is one Aio fiber on one of K driver domains and keeps
   D requests in flight through a [Serve.Client.Pipeline]; D = 1 is a
   closed loop.  The client owns every retry: it runs
   [Serve.Client.resilient] with a 5 s read deadline instead of 1 s
   (a request can queue behind thousands of others at high --connections
   x --pipeline; --call-timeout and --retries override the two policy
   fields), so a shed answer is resent after the client's backoff.
   Every MPUT carries a fresh token, so an ambiguous MPUT is resolved
   through TXSTAT, never re-sent blind.  PUTs go untokened: a token
   leaves a durable outcome record that nothing reclaims yet, and at
   the server's default capacity a tokened PUT load runs the shards out
   of heap; an ambiguous PUT (a timeout or a lost connection) fails its
   connection instead.  An op whose final answer is not an ack counts
   as given up.

   MPUTs span the shards (a group of derived keys sharing one value),
   exercising the two-phase cross-shard commit; SCANs exercise the
   epoch-validated snapshot path.  Client-side latencies are recorded
   per op class (p50/p99, submit to await, so at D > 1 they include
   waiting behind earlier requests of the same connection).

   An optional crasher fires the protocol-level CRASH (simulated power
   failure + per-shard recovery + cross-shard commit recovery) once a
   fraction of the total load is done; an optional corrupter
   (--corrupt-shard N@k) injects silent bit rot into one shard's
   durable metadata mid-load and then requires the server's online
   scrubber to quarantine, rebuild and readmit that shard before the
   verify phase; an optional scraper fetches METRICS mid-load.

   A final verify phase runs [Serve.Write_audit] over the wire on every
   PUT and MPUT with what its client was told: every key read back is
   exact, every MPUT group is all-or-nothing, every ack is durable, and
   every MPUT token (acked or not) resolves through TXSTAT to a commit
   with exactly one outcome record or to an abort that left nothing
   behind.  The report's verdict is true only when every violation
   class is zero.

   Exit status is non-zero if verification, an SLO, the mid-load scrape
   or the self-healing round-trip fails, or if a --crash-at or
   --corrupt-shard run gives up any op (the outage must be ridden out),
   so CI can gate on it. *)

module C = Serve.Client
module P = Serve.Protocol

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(min (n - 1) (int_of_float (p *. float_of_int (n - 1) +. 0.5)))

(* ---- SLO gates ----

   "--slo p99:get:5ms,p99:mput:50ms": each entry is <quantile>:<class>:
   <bound>, asserted against the SERVER-side sliding windows
   (serve.win.<class> in the STATS document) — the latency the server
   actually delivered over the trailing window, not the closed-loop
   client view. *)

type slo = { s_spec : string; s_q : string; s_class : string; s_bound_ns : int }

let parse_bound_ns s =
  let num suffix =
    float_of_string_opt (String.sub s 0 (String.length s - String.length suffix))
  in
  let conv suffix mult =
    if String.length s > String.length suffix
       && Filename.check_suffix s suffix
    then Option.map (fun f -> int_of_float (f *. mult)) (num suffix)
    else None
  in
  (* longest suffix first: "ms" also ends in "s" *)
  match conv "ms" 1e6 with
  | Some _ as r -> r
  | None -> (
      match conv "us" 1e3 with
      | Some _ as r -> r
      | None -> (
          match conv "ns" 1. with
          | Some _ as r -> r
          | None -> conv "s" 1e9))

let parse_slo spec =
  match String.split_on_char ':' spec with
  | [ q; cls; bound ] ->
      let q_ok = List.mem q [ "p50"; "p90"; "p99"; "p999" ] in
      let c_ok = List.mem cls [ "get"; "put"; "del"; "mget"; "mput"; "scan" ] in
      (match (q_ok, c_ok, parse_bound_ns bound) with
      | true, true, Some b when b > 0 ->
          { s_spec = spec; s_q = q; s_class = cls; s_bound_ns = b }
      | _ ->
          raise
            (Arg.Bad
               (Printf.sprintf
                  "bad --slo entry %S (want <p50|p90|p99|p999>:<get|put|del|mget|mput|scan>:<bound><ns|us|ms|s>)"
                  spec)))
  | _ -> raise (Arg.Bad (Printf.sprintf "bad --slo entry %S" spec))

let parse_slos s =
  List.map parse_slo
    (List.filter (fun e -> e <> "") (String.split_on_char ',' s))

(* Evaluate SLO gates against the server's "windows" document.  A gate
   that cannot find its window FAILS: an unevaluable SLO must not pass. *)
let eval_slos slos windows =
  List.map
    (fun s ->
      let observed =
        match Obs.Json.member ("serve.win." ^ s.s_class) windows with
        | Some w -> (
            match Obs.Json.member (s.s_q ^ "_ns") w with
            | Some (Obs.Json.Int n) -> Some n
            | _ -> None)
        | None -> None
      in
      let pass = match observed with Some n -> n <= s.s_bound_ns | None -> false in
      Printf.printf "slo %s: observed %s bound %dns -> %s\n%!" s.s_spec
        (match observed with Some n -> Printf.sprintf "%dns" n | None -> "n/a")
        s.s_bound_ns
        (if pass then "PASS" else "FAIL");
      (s, observed, pass))
    slos

let slo_json rows =
  let open Obs.Json in
  List
    (List.map
       (fun (s, observed, pass) ->
         Obj
           [
             ("spec", String s.s_spec);
             ("quantile", String s.s_q);
             ("class", String s.s_class);
             ("bound_ns", Int s.s_bound_ns);
             ("observed_ns", match observed with Some n -> Int n | None -> Null);
             ("pass", Bool pass);
           ])
       rows)

let () =
  let host = ref "127.0.0.1" in
  let port = ref 7599 in
  let connections = ref 4 in
  let pipeline = ref 1 in
  let drivers = ref 0 in
  let ops = ref 2000 in
  let value_bytes = ref 64 in
  let seed = ref 42 in
  let crash_at = ref nan in
  let json_file = ref "" in
  let fetch_stats = ref false in
  let mput_every = ref 0 in
  let mput_size = ref 4 in
  let scan_every = ref 0 in
  let scan_max = ref 100 in
  let slos = ref [] in
  let stats_file = ref "" in
  let prom_file = ref "" in
  let prom_at = ref 0.5 in
  let call_timeout = ref 5. in
  let cl_retries = ref 0 in
  let ttl_us = ref 0 in
  let corrupt_spec = ref None in
  let spec =
    [
      ("--host", Arg.Set_string host, "ADDR server address (default 127.0.0.1)");
      ("--port", Arg.Set_int port, "P server port (default 7599)");
      ( "--connections",
        Arg.Set_int connections,
        "N client connections, one Aio fiber each (default 4)" );
      ("--ops", Arg.Set_int ops, "N ops per connection (default 2000)");
      ( "--pipeline",
        Arg.Set_int pipeline,
        "D requests kept in flight per connection (default 1: a closed loop)" );
      ( "--drivers",
        Arg.Set_int drivers,
        "K driver domains, each one Aio loop over its share of the \
         connections (default min N 4)" );
      ("--value-bytes", Arg.Set_int value_bytes, "B value payload size (default 64)");
      ("--seed", Arg.Set_int seed, "S seed for values and the CRASH fault draw (default 42)");
      ( "--crash-at",
        Arg.Set_float crash_at,
        "FRAC send CRASH after this fraction of total ops (e.g. 0.5)" );
      ( "--mput-every",
        Arg.Set_int mput_every,
        "N every Nth op is a cross-shard MPUT (0 = never; default 0)" );
      ( "--mput-size",
        Arg.Set_int mput_size,
        "K keys per MPUT group (default 4)" );
      ( "--scan-every",
        Arg.Set_int scan_every,
        "N every Nth op is a snapshot SCAN (0 = never; default 0)" );
      ("--scan-max", Arg.Set_int scan_max, "M SCAN result cap (default 100)");
      ("--json", Arg.Set_string json_file, "FILE write a machine-readable report");
      ("--metrics", Arg.Set fetch_stats, " embed the server's STATS document in the report");
      ( "--slo",
        Arg.String (fun s -> slos := !slos @ parse_slos s),
        "SPEC comma-separated server-side window assertions, e.g. \
         p99:get:5ms,p99:mput:50ms (exit 1 on violation)" );
      ( "--stats-file",
        Arg.Set_string stats_file,
        "FILE write the final server STATS document (JSON) to FILE" );
      ( "--prom-file",
        Arg.Set_string prom_file,
        "FILE scrape METRICS mid-load and write the Prometheus text to FILE" );
      ( "--prom-at",
        Arg.Set_float prom_at,
        "FRAC fraction of total ops after which --prom-file scrapes (default 0.5)" );
      ( "--call-timeout",
        Arg.Set_float call_timeout,
        "S per-attempt client read deadline in seconds (default 5)" );
      ( "--retries",
        Arg.Set_int cl_retries,
        "N client retries per request (default: the resilient policy's)" );
      ( "--ttl-us",
        Arg.Set_int ttl_us,
        "T attach a T-microsecond server-side deadline to every request \
         (expired requests are shed with TIMEOUT)" );
      ( "--corrupt-shard",
        Arg.String
          (fun s ->
            match String.index_opt s '@' with
            | Some at -> (
                let shard = String.sub s 0 at
                and after =
                  String.sub s (at + 1) (String.length s - at - 1)
                in
                match (int_of_string_opt shard, int_of_string_opt after) with
                | Some sh, Some k when sh >= 0 && k >= 0 ->
                    corrupt_spec := Some (sh, k)
                | _ ->
                    raise
                      (Arg.Bad
                         (Printf.sprintf "--corrupt-shard: bad N@k %S" s)))
            | None ->
                raise
                  (Arg.Bad
                     (Printf.sprintf
                        "--corrupt-shard: expected N@k (shard N after k \
                         total ops), got %S"
                        s))),
        "N@k inject silent bit rot into shard N after k total ops; the \
         server's scrubber must then quarantine, rebuild and readmit it \
         before verification (requires a server running --scrub-us; exit \
         1 if the shard is not healthy again)" );
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench_serve [options]";
  (if Sys.unix then
     try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let nconns = !connections and per_conn = !ops and depth = !pipeline in
  let drivers = if !drivers > 0 then !drivers else min nconns 4 in
  if nconns < 1 || depth < 1 || per_conn < 1 then
    failwith "bench_serve wants --connections, --pipeline and --ops >= 1";
  let total = nconns * per_conn in
  let key c i = Printf.sprintf "c%d:%06d" c i in
  (* MPUT groups spread over shards: the per-member suffix changes the
     FNV-1a route, so a group of >= 2 keys almost always crosses shards. *)
  let mkey c i j = Printf.sprintf "c%d:m%06d:%d" c i j in
  let value c i =
    let stem = Printf.sprintf "v%d-%d-%d." !seed c i in
    let b = Buffer.create !value_bytes in
    while Buffer.length b < !value_bytes do
      Buffer.add_string b stem
    done;
    Buffer.sub b 0 !value_bytes
  in
  let op_kind i =
    if !mput_every > 0 && i mod !mput_every = 0 then `Mput
    else if !scan_every > 0 && i mod !scan_every = !scan_every / 2 then `Scan
    else `Put
  in
  let policy =
    {
      C.call_timeout = !call_timeout;
      max_retries = (if !cl_retries > 0 then !cl_retries else C.resilient.max_retries);
    }
  in
  let req_ttl = if !ttl_us > 0 then Some !ttl_us else None in
  let connect () =
    C.connect ~retries:100 ~retry_delay:0.05 ~policy ~host:!host ~port:!port ()
  in
  let admin = connect () in
  C.ping admin;

  (* what each op's client was told; an op never settled (its
     connection died) stays ambiguous *)
  let outcomes = Array.init nconns (fun _ -> Array.make per_conn Serve.Write_audit.Ambiguous) in
  let toks = Array.init nconns (fun _ -> Array.make per_conn 0) in
  let done_ops = Atomic.make 0 in
  let gave_up = Atomic.make 0 in
  let client_errors = Atomic.make 0 in
  let tallies =
    Array.make nconns { C.retries = 0; timeouts = 0; reconnects = 0; resolved = 0 }
  in
  let lat_put = Array.init nconns (fun _ -> ref []) in
  let lat_mput = Array.init nconns (fun _ -> ref []) in
  let lat_scan = Array.init nconns (fun _ -> ref []) in
  let last_epoch = Atomic.make 0 in
  let rec bump_epoch epoch =
    let seen = Atomic.get last_epoch in
    if epoch > seen && not (Atomic.compare_and_set last_epoch seen epoch) then
      bump_epoch epoch
  in

  (* A side task in its own domain, run once [n] ops are done; skipped
     if the load ends short of [n]. *)
  let finished = Atomic.make false in
  let after n f =
    Domain.spawn (fun () ->
        while Atomic.get done_ops < n && not (Atomic.get finished) do
          Unix.sleepf 0.001
        done;
        if Atomic.get done_ops >= n then f ())
  in

  (* Optional crasher: one power failure at the load threshold. *)
  let crash_ms = ref nan in
  let crasher =
    if Float.is_nan !crash_at then None
    else
      Some
        (after
           (int_of_float (!crash_at *. float_of_int total))
           (fun () ->
             match
               C.crash admin ~seed:!seed ~evict_prob:0.2 ~torn_prob:0.2 ~bitflips:0
             with
             | Ok ms -> crash_ms := ms
             | Error d -> failwith ("CRASH did not recover: " ^ d)))
  in

  (* Optional corrupter: seeded silent rot into one shard once the load
     reaches k ops, invisible to live reads — only the scrubber can
     notice.  The rot lands in the shard's durable commit header and
     replica records, which its next commit rewrites, so it goes in
     exactly once, at a quiescent point: every connection drains its
     window and parks at its next op boundary (or has finished), the
     corrupter injects on its own connection, and the connections
     resume as soon as HEALTH shows the quarantine, so their retries run
     through the quarantine, rebuild and readmission.  A missed
     injection leaves nothing to heal and fails the self-healing gate
     below. *)
  let corrupted = ref false in
  let parked = Atomic.make 0 in
  let resumed = Atomic.make (Option.is_none !corrupt_spec) in
  let corrupter =
    Option.map
      (fun (shard, k) ->
        after k (fun () ->
            Fun.protect ~finally:(fun () -> Atomic.set resumed true) @@ fun () ->
            let until = Unix.gettimeofday () +. 10. in
            while Atomic.get parked < nconns && Unix.gettimeofday () < until do
              Unix.sleepf 0.001
            done;
            let cl = connect () in
            let quarantined () =
              match C.health cl with
              | Ok j -> (
                  match Obs.Json.member "serve.health.quarantines" j with
                  | Some (Obs.Json.Int n) -> n >= 1
                  | _ -> false)
              | Error _ -> false
            in
            (match C.corrupt cl ~shard ~seed:!seed ~count:3 with
            | Ok () ->
                corrupted := true;
                let until = Unix.gettimeofday () +. 10. in
                while (not (quarantined ())) && Unix.gettimeofday () < until do
                  Unix.sleepf 0.001
                done
            | Error e -> Printf.eprintf "CORRUPT failed: %s\n%!" e);
            C.close cl))
      !corrupt_spec
  in

  (* Optional mid-load METRICS scrape: proves the telemetry plane answers
     while the server is under fire, on its own connection so it never
     interleaves with the admin socket. *)
  let prom_ok = ref true in
  let prom_scraper =
    if !prom_file = "" then None
    else
      Some
        (after
           (max 1 (int_of_float (!prom_at *. float_of_int total)))
           (fun () ->
             let cl = connect () in
             (match C.metrics cl with
             | Ok text ->
                 let oc = open_out !prom_file in
                 output_string oc text;
                 close_out oc
             | Error e ->
                 prom_ok := false;
                 Printf.eprintf "mid-load METRICS failed: %s\n%!" e);
             C.close cl))
  in

  (* One connection's fiber: submit the ops in order, keeping [depth] in
     flight, and settle each one's final answer in submission order. *)
  let run_conn c =
    (* counted once as quiescent for the corrupter: parked at its op
       threshold, or finished *)
    let parked_me = ref false in
    let park () =
      if not !parked_me then begin
        parked_me := true;
        Atomic.incr parked
      end
    in
    (try
       let cl = connect () in
       Fun.protect ~finally:(fun () ->
           tallies.(c) <- C.tallies cl;
           C.close cl)
       @@ fun () ->
       let p = C.Pipeline.create ~window:depth cl in
       let window = Queue.create () in
       let settle (i, kind, tk, t0) =
         let resp = C.Pipeline.await p tk in
         let lat = Unix.gettimeofday () -. t0 in
         let ok lats =
           outcomes.(c).(i) <- Acked;
           lats.(c) := lat :: !(lats.(c))
         in
         let give_up outcome =
           outcomes.(c).(i) <- outcome;
           Atomic.incr gave_up
         in
         (match (kind, resp) with
         | `Put, (P.Ok | P.Txstat_committed _) -> ok lat_put
         | `Mput, (P.Committed { epoch; _ } | P.Txstat_committed { epoch; _ }) ->
             bump_epoch epoch;
             ok lat_mput
         | `Scan, P.Kvs _ -> ok lat_scan
         (* a timeout (the client's or the server's), an in-doubt commit
            or an unresolved token may have landed *)
         | _, (P.Timeout | P.In_doubt _ | P.Txstat_unknown) -> give_up Ambiguous
         (* any other final answer is a refusal: nothing durable *)
         | _ -> give_up Failed);
         Atomic.incr done_ops
       in
       let drain () =
         while not (Queue.is_empty window) do
           settle (Queue.pop window)
         done
       in
       for i = 0 to per_conn - 1 do
         (match !corrupt_spec with
         | Some (_, k)
           when (not !parked_me) && (not (Atomic.get resumed)) && Atomic.get done_ops >= k ->
             drain ();
             park ();
             while not (Atomic.get resumed) do
               Park.sleep 0.001
             done
         | _ -> ());
         if Queue.length window >= depth then settle (Queue.pop window);
         let kind = op_kind i in
         let req =
           match kind with
           | `Put -> P.Put (key c i, value c i)
           | `Mput -> P.Mput (List.init !mput_size (fun j -> (mkey c i j, value c i)))
           | `Scan -> P.Scan { prefix = Printf.sprintf "c%d:m" c; max = !scan_max }
         in
         let tok = if kind = `Mput then Some (C.fresh_tok cl) else None in
         Option.iter (fun t -> toks.(c).(i) <- t) tok;
         let t0 = Unix.gettimeofday () in
         Queue.push (i, kind, C.Pipeline.submit ?ttl_us:req_ttl ?tok p req, t0) window
       done;
       drain ()
     with e ->
       Atomic.incr client_errors;
       Printf.eprintf "connection %d died: %s\n%!" c (Printexc.to_string e));
    park ()
  in
  let t0 = Unix.gettimeofday () in
  let doms =
    List.init drivers (fun d ->
        Domain.spawn (fun () ->
            let mine = List.filter (fun c -> c mod drivers = d) (List.init nconns Fun.id) in
            if mine <> [] then
              Aio.run (Aio.create ~tid:d ()) (fun () ->
                  List.iter (fun c -> Aio.spawn (fun () -> run_conn c)) mine)))
  in
  List.iter Domain.join doms;
  let elapsed = Unix.gettimeofday () -. t0 in
  Atomic.set finished true;
  Option.iter Domain.join crasher;
  Option.iter Domain.join corrupter;
  Option.iter Domain.join prom_scraper;

  (* Self-healing gate: after a --corrupt-shard run, the scrubber must
     have quarantined the rotten shard, rebuilt it and readmitted it.
     Poll HEALTH until every shard is healthy again (the load may have
     finished before the scrubber) and keep the final document for the
     report. *)
  let health_doc = ref Obs.Json.Null in
  let healed = ref true in
  (match !corrupt_spec with
  | None -> ()
  | Some (shard, _) ->
      let all_healthy j =
        match Obs.Json.member "shards" j with
        | Some (Obs.Json.List rows) ->
            rows <> []
            && List.for_all
                 (fun r ->
                   match Obs.Json.member "state" r with
                   | Some (Obs.Json.String "healthy") -> true
                   | _ -> false)
                 rows
        | _ -> false
      in
      let readmitted j =
        match Obs.Json.member "serve.health.readmissions" j with
        | Some (Obs.Json.Int n) -> n >= 1
        | _ -> false
      in
      let deadline = Unix.gettimeofday () +. 10. in
      let rec poll () =
        match C.health admin with
        | Ok j when all_healthy j && readmitted j -> health_doc := j
        | Ok j ->
            health_doc := j;
            if Unix.gettimeofday () < deadline then begin
              Unix.sleepf 0.02;
              poll ()
            end
            else healed := false
        | Error e ->
            Printf.eprintf "HEALTH failed: %s\n%!" e;
            healed := false
      in
      poll ();
      if not !corrupted then healed := false;
      Printf.printf "corrupt-shard %d: %s\n%!" shard
        (if !healed then "quarantined, rebuilt and readmitted"
         else "NOT healed before the deadline"));

  (* ---- verify ---- *)
  let n_acked =
    Array.fold_left
      (Array.fold_left (fun n o -> if o = Serve.Write_audit.Acked then n + 1 else n))
      0 outcomes
  in
  let writes =
    List.concat_map
      (fun (c, i) ->
        let write kvs = [ { Serve.Write_audit.tok = toks.(c).(i); kvs; outcome = outcomes.(c).(i) } ] in
        match op_kind i with
        | `Put -> write [ (key c i, value c i) ]
        | `Mput -> write (List.init !mput_size (fun j -> (mkey c i j, value c i)))
        | `Scan -> [])
      (List.concat (List.init nconns (fun c -> List.init per_conn (fun i -> (c, i)))))
  in
  let audit = Serve.Write_audit.check (Serve.Write_audit.wire_reader admin) writes in
  List.iter prerr_endline audit.messages;
  let vcount = Serve.Write_audit.count audit in

  let want_stats = !fetch_stats || !slos <> [] || !stats_file <> "" in
  let stats =
    if want_stats then
      match C.stats admin with
      | Ok j -> j
      | Error e -> failwith ("STATS failed: " ^ e)
    else Obs.Json.Null
  in
  C.close admin;
  if !stats_file <> "" then begin
    let oc = open_out !stats_file in
    Obs.Json.to_channel oc stats;
    output_char oc '\n';
    close_out oc
  end;

  (* Server-side windowed percentiles and the SLO verdicts. *)
  let windows = Option.value (Obs.Json.member "windows" stats) ~default:Obs.Json.Null in
  let slo_rows = eval_slos !slos windows in
  let slo_failed = List.exists (fun (_, _, pass) -> not pass) slo_rows in

  (* Satellite view of the batching behavior, from the server's own
     metrics registry (requires the server to run --metrics). *)
  let server_hist name =
    match Obs.Json.member "metrics" stats with
    | Some m -> (
        match Obs.Json.member "histograms" m with
        | Some hs -> Option.value (Obs.Json.member name hs) ~default:Obs.Json.Null
        | None -> Obs.Json.Null)
    | None -> Obs.Json.Null
  in
  let lat_json lats =
    let all = Array.of_list (List.concat_map (fun r -> !r) (Array.to_list lats)) in
    Array.sort compare all;
    let n = Array.length all in
    let open Obs.Json in
    if n = 0 then Null
    else
      Obj
        [
          ("count", Int n);
          ("p50_us", Float (percentile all 0.50 *. 1e6));
          ("p99_us", Float (percentile all 0.99 *. 1e6));
        ]
  in
  let throughput = if elapsed > 0. then float_of_int n_acked /. elapsed else 0. in
  let tally f = Array.fold_left (fun n t -> n + f t) 0 tallies in
  let retries = tally (fun t -> t.C.retries) and timeouts = tally (fun t -> t.C.timeouts) in
  let reconnects = tally (fun t -> t.C.reconnects) and resolved = tally (fun t -> t.C.resolved) in
  Printf.printf
    "bench_serve: %d conns x depth %d x %d ops on %d drivers -> %d acked in %.3fs \
     (%.0f ops/s), %d gave up; client: %d retries, %d timeouts, %d reconnects, \
     %d acks recovered via TXSTAT%s\n"
    nconns depth per_conn drivers n_acked elapsed throughput (Atomic.get gave_up) retries
    timeouts reconnects resolved
    (if Float.is_nan !crash_ms then "" else Printf.sprintf ", crash outage %.1fms" !crash_ms);
  Printf.printf "verify: %s applied_unacked=%d\n%!"
    (String.concat " "
       (List.map
          (fun (cls, n) -> Printf.sprintf "%s=%d" (Serve.Write_audit.class_name cls) n)
          audit.counts))
    audit.applied_unacked;

  let verdict = Serve.Write_audit.total audit = 0 in
  let outage = (not (Float.is_nan !crash_at)) || Option.is_some !corrupt_spec in
  if !json_file <> "" then begin
    let open Obs.Json in
    let doc =
      Obj
        [
          ("schema", String "redodb.pipelined.v1");
          ("host", String !host);
          ("port", Int !port);
          ("connections", Int nconns);
          ("pipeline", Int depth);
          ("drivers", Int drivers);
          ("ops_per_conn", Int per_conn);
          ("value_bytes", Int !value_bytes);
          ("seed", Int !seed);
          ("mput_every", Int !mput_every);
          ("mput_size", Int !mput_size);
          ("scan_every", Int !scan_every);
          ("scan_max", Int !scan_max);
          ("ttl_us", Int !ttl_us);
          ("call_timeout_s", Float policy.call_timeout);
          ("client_retries", Int policy.max_retries);
          ("crash_at", if Float.is_nan !crash_at then Null else Float !crash_at);
          ("crash_ms", if Float.is_nan !crash_ms then Null else Float !crash_ms);
          ("acked", Int n_acked);
          ("gave_up", Int (Atomic.get gave_up));
          ("reconnects", Int reconnects);
          ( "client_tallies",
            Obj
              [
                ("retries", Int retries);
                ("timeouts", Int timeouts);
                ("reconnects", Int reconnects);
                ("resolved", Int resolved);
              ] );
          ( "corrupt_shard",
            match !corrupt_spec with
            | None -> Null
            | Some (shard, k) ->
                Obj [ ("shard", Int shard); ("after_ops", Int k); ("healed", Bool !healed) ] );
          ("health", !health_doc);
          ("elapsed_s", Float elapsed);
          ("throughput_ops_s", Float throughput);
          ("max_commit_epoch", Int (Atomic.get last_epoch));
          ( "latency",
            Obj
              [
                ("put", lat_json lat_put);
                ("mput", lat_json lat_mput);
                ("scan", lat_json lat_scan);
              ] );
          ( "verify",
            Obj
              (List.map
                 (fun (cls, n) -> (Serve.Write_audit.class_name cls, Int n))
                 audit.counts
              @ [
                  (* sums under the names existing report readers know *)
                  ("mput_partial", Int (vcount Half_applied));
                  ("ledger_bad", Int (vcount Duplicated_commit + vcount Unknown_after_quiesce));
                  ("applied_unacked", Int audit.applied_unacked);
                  ("checked", Int total);
                ]) );
          ("verdict", Bool verdict);
          ("server_windows", windows);
          ( "server_batching",
            Obj
              [
                ("queue_wait", server_hist "serve.stage.queue");
                ("batch_size", server_hist "serve.batch_size");
              ] );
          ("slo", slo_json slo_rows);
          ("server_stats", stats);
        ]
    in
    let oc = open_out !json_file in
    to_channel oc doc;
    output_char oc '\n';
    close_out oc
  end;

  if (not verdict) || Atomic.get client_errors > 0 then begin
    prerr_endline "bench_serve: VERIFICATION FAILED";
    exit 1
  end;
  if outage && Atomic.get gave_up > 0 then begin
    Printf.eprintf "bench_serve: %d ops given up across the outage\n%!" (Atomic.get gave_up);
    exit 1
  end;
  if slo_failed then begin
    prerr_endline "bench_serve: SLO VIOLATED";
    exit 1
  end;
  if not !prom_ok then begin
    prerr_endline "bench_serve: mid-load METRICS scrape failed";
    exit 1
  end;
  if not !healed then begin
    prerr_endline "bench_serve: corrupted shard was not healed";
    exit 1
  end
