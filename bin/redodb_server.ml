(* redodb_server: the sharded RedoDB serving engine behind the
   event-driven reactor front-end.  Speaks the length-prefixed text
   protocol (see README "Serving").

   Plain mode: serve until SIGINT/SIGTERM, then drain gracefully (stop
   accepting, finish + ack in-flight requests, flush traces) and exit
   0.  With --pmem-dir the shards' durable images are MAP_SHARED
   region files there: acked writes survive a kill -9, and a restart
   over the same directory recovers instead of formatting.

   Supervisor mode (--supervise N): run the real server as a CHILD
   process over --pmem-dir, drive tokened cross-shard MPUT load at it
   from client domains, kill -9 the child N times under that load and
   restart it each time, then audit over TCP that (a) every acked
   write survived with exactly one outcome record — zero acked-write
   loss, no duplicated commits, no partial MPUTs — and (b) a final
   SIGTERM drains the child to exit 0.  Exits non-zero on any
   violation, so the ack-before-commit and no-dedup-on-retry mutants
   (forwarded to the child with --mutant) must make it fail. *)

let pf = Printf.printf
let epf = Printf.eprintf

(* ---- supervised kill-restart harness ---- *)

type sup_stats = {
  mutable acked : int;
  mutable unresolved : int;  (* writes still UNKNOWN after client retries *)
  mutable definite_fail : int;  (* overloaded / unavailable / timeout *)
}

let supervise ~rounds ~host ~port ~dir ~child_args ~clients ~kill_interval
    ~stats_file ~prom_file ~mutants =
  let spawn () =
    let args = Array.of_list (Sys.executable_name :: child_args) in
    Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout
      Unix.stderr
  in
  let wait_ready () =
    (* Tolerate transient OVERLOADED while the load clients re-grab
       their connection slots after a restart. *)
    let rec go n =
      match
        let c =
          Serve.Client.connect ~retries:200 ~retry_delay:0.025 ~host ~port ()
        in
        Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () ->
            Serve.Client.ping c)
      with
      | () -> ()
      | exception _ when n > 0 ->
          Unix.sleepf 0.05;
          go (n - 1)
    in
    go 100
  in
  let pid = ref (spawn ()) in
  wait_ready ();
  pf "supervise: child %d serving on %s:%d (dir %s)\n%!" !pid host port dir;
  let stop = Atomic.make false in
  let stats = Array.init clients (fun _ -> { acked = 0; unresolved = 0; definite_fail = 0 }) in
  (* (tok, group) log per client: the audit's ground truth.  Keys are
     unique per write, so presence checks are unambiguous. *)
  let acked_log = Array.make clients [] in
  let unresolved_log = Array.make clients [] in
  let tallies = Array.make clients None in
  let doms =
    List.init clients (fun d ->
        Domain.spawn (fun () ->
            let cl =
              Serve.Client.connect ~retries:100 ~retry_delay:0.05
                ~policy:Serve.Client.resilient ~host ~port ()
            in
            let seq = ref 0 in
            while not (Atomic.get stop) do
              incr seq;
              let tok = ((d + 1) * 10_000_000) + !seq in
              let group =
                List.init 3 (fun j ->
                    ( Printf.sprintf "sup/%d/%d/%d" d !seq j,
                      Printf.sprintf "v%d.%d" tok j ))
              in
              match Serve.Client.mput ~tok cl group with
              | Result.Ok _ ->
                  stats.(d).acked <- stats.(d).acked + 1;
                  acked_log.(d) <- (tok, group) :: acked_log.(d)
              | Error (`InDoubt _) ->
                  stats.(d).unresolved <- stats.(d).unresolved + 1;
                  unresolved_log.(d) <- (tok, group) :: unresolved_log.(d)
              | Error _ -> stats.(d).definite_fail <- stats.(d).definite_fail + 1
              | exception Serve.Client.Protocol_error _ ->
                  (* connection beyond repair mid-restart: this write is
                     unresolved; reconnect happens on the next loop *)
                  stats.(d).unresolved <- stats.(d).unresolved + 1;
                  unresolved_log.(d) <- (tok, group) :: unresolved_log.(d)
            done;
            tallies.(d) <- Some (Serve.Client.tallies cl);
            Serve.Client.close cl))
  in
  let kills = ref 0 in
  for round = 1 to rounds do
    Unix.sleepf kill_interval;
    (* the honest fault: no warning, no flush, no goodbye *)
    Unix.kill !pid Sys.sigkill;
    incr kills;
    ignore (Unix.waitpid [] !pid);
    pid := spawn ();
    wait_ready ();
    pf "supervise: round %d/%d — killed and restarted (child %d)\n%!" round
      rounds !pid
  done;
  Unix.sleepf kill_interval;
  Atomic.set stop true;
  List.iter Domain.join doms;
  (* ---- audit, over TCP against the last restarted child ---- *)
  let violations = ref [] in
  let violate fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let auditor =
    Serve.Client.connect ~retries:100 ~retry_delay:0.05
      ~policy:Serve.Client.resilient ~host ~port ()
  in
  let check_present tok group =
    match Serve.Client.mget auditor (List.map fst group) with
    | Result.Ok vs ->
        List.iter2
          (fun (k, want) got ->
            if got <> Some want then
              violate "tok %d: key %s = %s, want %s" tok k
                (match got with Some v -> v | None -> "<absent>")
                want)
          group vs
    | Error _ -> violate "tok %d: audit MGET failed" tok
  in
  let check_absent tok group =
    match Serve.Client.mget auditor (List.map fst group) with
    | Result.Ok vs ->
        List.iter2
          (fun (k, _) got ->
            if got <> None then
              violate "tok %d: aborted write left key %s behind" tok k)
          group vs
    | Error _ -> violate "tok %d: audit MGET failed" tok
  in
  let resolved_commits = ref 0 in
  let audit_one ~acked (tok, group) =
    match Serve.Client.txstat auditor tok with
    | Result.Ok (`Committed (_, _, records)) ->
        incr resolved_commits;
        if records <> 1 then
          violate "tok %d: %d outcome records (duplicated commit)" tok records;
        check_present tok group
    | Result.Ok `Aborted ->
        if acked then violate "tok %d: ACKED write lost (TXSTAT aborted)" tok
        else check_absent tok group
    | Result.Ok `Unknown -> violate "tok %d: still UNKNOWN at audit" tok
    | Error _ -> violate "tok %d: audit TXSTAT failed" tok
  in
  Array.iter (List.iter (audit_one ~acked:true)) acked_log;
  Array.iter (List.iter (audit_one ~acked:false)) unresolved_log;
  let prom =
    match Serve.Client.metrics auditor with Result.Ok s -> s | Error _ -> ""
  in
  Serve.Client.close auditor;
  (* graceful drain of the last child: SIGTERM must exit 0 *)
  Unix.kill !pid Sys.sigterm;
  (match Unix.waitpid [] !pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED n -> violate "child exited %d after SIGTERM (want 0)" n
  | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) ->
      violate "child did not exit cleanly after SIGTERM");
  let total f = Array.fold_left (fun acc s -> acc + f s) 0 stats in
  let tally f =
    Array.fold_left
      (fun acc o -> match o with Some (t : Serve.Client.tallies) -> acc + f t | None -> acc)
      0 tallies
  in
  let n_acked = total (fun s -> s.acked) in
  let n_unres = total (fun s -> s.unresolved) in
  let n_fail = total (fun s -> s.definite_fail) in
  let verdict = !violations = [] in
  pf
    "supervise: %d kills, %d acked, %d unresolved, %d definite-fail; \
     client retries %d, timeouts %d, reconnects %d, txstat-resolved acks %d\n\
     supervise: audit %s (%d violations)\n\
     %!"
    !kills n_acked n_unres n_fail
    (tally (fun t -> t.retries))
    (tally (fun t -> t.timeouts))
    (tally (fun t -> t.reconnects))
    (tally (fun t -> t.resolved))
    (if verdict then "PASS" else "FAIL")
    (List.length !violations);
  List.iter (fun v -> epf "  violation: %s\n%!" v) !violations;
  if stats_file <> "" then begin
    let j =
      Obs.Json.Obj
        [
          ("schema", Obs.Json.String "redodb.supervise.v1");
          ("rounds", Obs.Json.Int rounds);
          ("kills", Obs.Json.Int !kills);
          ("clients", Obs.Json.Int clients);
          ( "mutants",
            Obs.Json.List
              (List.map (fun m -> Obs.Json.String (Serve.Commit.pp_mutant m)) mutants)
          );
          ("acked", Obs.Json.Int n_acked);
          ("unresolved", Obs.Json.Int n_unres);
          ("definite_fail", Obs.Json.Int n_fail);
          ("resolved_commits", Obs.Json.Int !resolved_commits);
          ("client_retries", Obs.Json.Int (tally (fun t -> t.retries)));
          ("client_timeouts", Obs.Json.Int (tally (fun t -> t.timeouts)));
          ("client_reconnects", Obs.Json.Int (tally (fun t -> t.reconnects)));
          ("txstat_resolved_acks", Obs.Json.Int (tally (fun t -> t.resolved)));
          ( "violations",
            Obs.Json.List (List.map (fun v -> Obs.Json.String v) !violations) );
          ("verdict", Obs.Json.String (if verdict then "pass" else "fail"));
        ]
    in
    let oc = open_out stats_file in
    output_string oc (Obs.Json.to_string j);
    output_char oc '\n';
    close_out oc;
    pf "supervise: stats written to %s\n%!" stats_file
  end;
  if prom_file <> "" && prom <> "" then begin
    let oc = open_out prom_file in
    output_string oc prom;
    close_out oc;
    pf "supervise: metrics written to %s\n%!" prom_file
  end;
  exit (if verdict then 0 else 1)

(* ---- entry point ---- *)

let () =
  let host = ref "127.0.0.1" in
  let port = ref 7599 in
  let shards = ref 4 in
  let no_batch = ref false in
  let max_batch = ref 16 in
  let linger_us = ref 0.0 in
  let queue_cap = ref 64 in
  let max_conns = ref 8 in
  let reactors = ref 1 in
  let workers = ref 2 in
  let max_inflight = ref 64 in
  let block_mutant = ref false in
  let capacity = ref (1 lsl 20) in
  let flush_cost = ref 150 in
  let metrics = ref false in
  let trace_file = ref "" in
  let pmem_dir = ref "" in
  let chaos = ref "" in
  let isolate = ref false in
  let scrub_us = ref 0.0 in
  let mutants = ref [] in
  let supervise_rounds = ref 0 in
  let sup_clients = ref 6 in
  let kill_interval = ref 0.4 in
  let stats_file = ref "" in
  let prom_file = ref "" in
  let spec =
    [
      ("--host", Arg.Set_string host, "ADDR bind address (default 127.0.0.1)");
      ("--port", Arg.Set_int port, "P listen port, 0 = ephemeral (default 7599)");
      ("--shards", Arg.Set_int shards, "N hash-partitioned RedoDB shards (default 4)");
      ("--no-batch", Arg.Set no_batch, " bypass group commit (one txn per write)");
      ( "--max-batch",
        Arg.Set_int max_batch,
        "N group-commit batch size cap (default 16)" );
      ( "--linger-us",
        Arg.Set_float linger_us,
        "US flush deadline of a non-full batch (default 0)" );
      ( "--queue-cap",
        Arg.Set_int queue_cap,
        "N per-shard admission bound; beyond it requests get OVERLOADED (default 64)" );
      ( "--max-conns",
        Arg.Set_int max_conns,
        "N open-connection cap; excess accepts answer OVERLOADED (default 8)" );
      ( "--reactors",
        Arg.Int
          (fun n ->
            if n < 1 then raise (Arg.Bad "--reactors must be at least 1");
            reactors := n),
        "N reactor domains multiplexing all connections as fibers \
         (default 1)" );
      ( "--workers",
        Arg.Set_int workers,
        "W worker fibers (engine tids) per reactor (default 2)" );
      ( "--max-inflight",
        Arg.Set_int max_inflight,
        "D per-connection pipelining window before the reactor stops \
         reading (default 64)" );
      ( "--block-in-reactor",
        Arg.Set block_mutant,
        " mutant: workers issue a blocking 20 ms sleep on the event loop \
         per request (fairness-collapse mutant; the pipelined SLO gate \
         must catch it)" );
      ( "--capacity-bytes",
        Arg.Set_int capacity,
        "B total user-data budget across shards (default 1 MiB)" );
      ( "--flush-cost",
        Arg.Set_int flush_cost,
        "ITERS simulated pwb/pfence device cost (default 150)" );
      ("--metrics", Arg.Set metrics, " record obs metrics (served via STATS)");
      ( "--trace",
        Arg.Set_string trace_file,
        "FILE record request span trees; Chrome trace JSON is written to \
         FILE on shutdown" );
      ( "--pmem-dir",
        Arg.Set_string pmem_dir,
        "DIR file-backed shard regions (survive kill -9; reopen + recover \
         on restart)" );
      ( "--chaos",
        Arg.Set_string chaos,
        "PLAN inject seeded network faults, e.g. \
         \"seed=7,sever=0.01,drop=0.02\" (see Serve.Chaos)" );
      ( "--isolate",
        Arg.Set isolate,
        " per-shard fault isolation: an unrecoverable shard is \
         quarantined (SHARD_UNAVAILABLE) instead of failing the engine, \
         and FREEZE/REBUILD work" );
      ( "--scrub-us",
        Arg.Set_float scrub_us,
        "US run the online scrubber on a dedicated domain, pausing US \
         between per-shard verifications (implies --isolate; 0 = off)" );
      ( "--mutant",
        Arg.String
          (fun s ->
            match Serve.Commit.parse_mutant s with
            | Some m -> mutants := !mutants @ [ m ]
            | None -> raise (Arg.Bad ("unknown mutant " ^ s))),
        "NAME install a deliberately-unsound commit mutant (repeatable)" );
      ( "--supervise",
        Arg.Set_int supervise_rounds,
        "N supervisor mode: kill -9 + restart the real server N times \
         under load over --pmem-dir, audit zero acked-write loss" );
      ( "--sup-clients",
        Arg.Set_int sup_clients,
        "N supervised-load client domains (default 6)" );
      ( "--kill-interval",
        Arg.Set_float kill_interval,
        "S seconds of load between kills (default 0.4)" );
      ( "--stats-file",
        Arg.Set_string stats_file,
        "FILE write the supervise audit report JSON here" );
      ( "--prom-file",
        Arg.Set_string prom_file,
        "FILE write the final Prometheus exposition here (supervise mode)" );
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "redodb_server [options]";
  if !supervise_rounds > 0 then begin
    (* Supervisor: fork the real server as a child over a backing dir. *)
    let dir =
      if !pmem_dir <> "" then !pmem_dir
      else
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "redodb-sup-%d" (Unix.getpid ()))
    in
    if !port = 0 then port := 17_000 + (Unix.getpid () mod 10_000);
    (* room for every load client plus the ready probe and the auditor *)
    max_conns := max !max_conns (!sup_clients + 2);
    let child_args =
      [
        "--host"; !host;
        "--port"; string_of_int !port;
        "--shards"; string_of_int !shards;
        "--max-batch"; string_of_int !max_batch;
        "--linger-us"; Printf.sprintf "%g" !linger_us;
        "--queue-cap"; string_of_int !queue_cap;
        "--max-conns"; string_of_int !max_conns;
        "--reactors"; string_of_int !reactors;
        "--workers"; string_of_int !workers;
        "--max-inflight"; string_of_int !max_inflight;
        "--capacity-bytes"; string_of_int !capacity;
        "--flush-cost"; string_of_int !flush_cost;
        "--pmem-dir"; dir;
      ]
      @ (if !no_batch then [ "--no-batch" ] else [])
      @ (if !metrics then [ "--metrics" ] else [])
      @ List.concat_map
          (fun m -> [ "--mutant"; Serve.Commit.pp_mutant m ])
          !mutants
    in
    supervise ~rounds:!supervise_rounds ~host:!host ~port:!port ~dir
      ~child_args ~clients:!sup_clients ~kill_interval:!kill_interval
      ~stats_file:!stats_file ~prom_file:!prom_file ~mutants:!mutants
  end;
  Obs.Metrics.enable !metrics;
  if !trace_file <> "" then Obs.Trace.enable ();
  let scrubbing = !scrub_us > 0. in
  let chaos_src =
    if !chaos = "" then None
    else
      match Serve.Chaos.parse_plan !chaos with
      | Result.Ok plan -> Some (Serve.Chaos.source plan)
      | Error reason -> raise (Arg.Bad reason)
  in
  let engine_cfg =
    {
      Serve.Engine.default_config with
      shards = !shards;
      capacity_bytes = !capacity;
      batch = not !no_batch;
      max_batch = !max_batch;
      linger_us = !linger_us;
      linger_steps = 0;
      queue_cap = !queue_cap;
      backing_dir = (if !pmem_dir = "" then None else Some !pmem_dir);
      isolate = !isolate || scrubbing;
    }
  in
  let srv =
    Serve.Reactor.start
      {
        Serve.Reactor.host = !host;
        port = !port;
        reactors = !reactors;
        workers_per_reactor = !workers;
        max_conns = !max_conns;
        max_inflight = !max_inflight;
        ingress_cap = 4096;
        engine = engine_cfg;
        chaos = chaos_src;
        scrub_pause_us = (if scrubbing then Some !scrub_us else None);
        block_in_reactor = !block_mutant;
      }
  in
  let eng = Serve.Reactor.engine srv in
  if !mutants <> [] then Serve.Engine.set_mutants eng !mutants;
  (* After creation: initialisation flushes must not pay the device cost
     (a realistic model would stretch startup into seconds). *)
  Serve.Engine.set_flush_cost eng !flush_cost;
  pf "redodb_server listening on %s:%d (%d shard%s, %d reactors x %d \
      workers, %s%s%s)\n%!" !host
    (Serve.Reactor.port srv) !shards
    (if !shards = 1 then "" else "s")
    !reactors !workers
    (if !no_batch then "unbatched"
     else Printf.sprintf "batched: max %d, linger %.0fus" !max_batch !linger_us)
    (if !pmem_dir = "" then "" else ", backed by " ^ !pmem_dir)
    (if !chaos = "" then "" else ", chaos " ^ !chaos);
  let quit = Atomic.make false in
  let on_signal _ = Atomic.set quit true in
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal)
   with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal)
   with Invalid_argument _ -> ());
  while not (Atomic.get quit) do
    Unix.sleepf 0.1
  done;
  (* Graceful drain: stop accepting, let in-flight requests finish and
     ack (their writes are durable), then flush traces and exit 0. *)
  Serve.Reactor.drain srv;
  if !trace_file <> "" then begin
    Obs.Trace.write_file !trace_file;
    epf "redodb_server: trace written to %s\n%!" !trace_file
  end;
  prerr_endline "redodb_server: drained and stopped"
