(* Closed-loop load generator for redodb_server.

   N client domains each drive a PUT/MPUT/SCAN mix over a disjoint key
   range on their own connection, retrying on OVERLOADED backpressure;
   an optional crasher fires the protocol-level CRASH (simulated power
   failure + per-shard recovery + cross-shard commit recovery) once a
   fraction of the total load is in flight; an optional corrupter
   (--corrupt-shard N@k) injects silent bit rot into one shard's
   durable metadata mid-load and then requires the server's online
   scrubber to quarantine, rebuild and readmit that shard before the
   verify phase — measuring the client-visible cost of a full
   self-healing round-trip.  MPUTs span the shards (a
   group of derived keys sharing one value), exercising the two-phase
   cross-shard commit; SCANs exercise the epoch-validated snapshot
   path.  Client-side latencies are recorded per op class (p50/p99).

   A final verify phase MGETs every key back over a fresh connection
   and checks the serving contract: every acknowledged write is present
   with the exact value written (acked => durable); any surviving
   unacknowledged write carries the value that was attempted (batches
   are all-or-nothing, never mangled); and every MPUT group — acked or
   not — is present all-or-nothing across shards (no prefix commits).

   Exit status is non-zero if verification fails, so CI can gate on it. *)

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

(* ---- pipelined open-loop mode (--connections N --pipeline D) ----

   Instead of one blocking closed-loop domain per connection, a handful
   of driver domains each run an Aio event loop with one fiber per
   connection.  Every fiber keeps D requests in flight (distinct RIDs,
   responses matched out of order through the incremental frame
   decoder), so 1000 connections x depth 8 = 8000 outstanding requests
   from ~4 OS threads — the open-loop pressure that lets the reactor
   front-end and the group-commit batcher show their "queue deep,
   combine wide" behavior.  Values are a pure function of the key, so
   replaying an ambiguous op after a reconnect or an UNAVAILABLE window
   is idempotent; the verify phase then applies the same acked=>durable
   audit as the closed-loop mode. *)
module Pipelined = struct
  module P = Serve.Protocol
  module D = P.Io.Decoder

  exception Dead

  let max_tries = 5000

  type tallies = {
    overloads : int Atomic.t;
    unavailable : int Atomic.t;
    shed : int Atomic.t;
    shard_down : int Atomic.t;
    reconnects : int Atomic.t;
    gave_up : int Atomic.t;
    done_ops : int Atomic.t;
  }

  type conn = {
    cid : int;
    per_conn : int;
    depth : int;
    ckey : int -> string;
    cvalue : int -> string;
    ttl_us : int option;
    addr : Unix.sockaddr;
    tl : tallies;
    acked : bool array;
    tries : int array;
    lats : float list ref;
    mutable fd : Unix.file_descr;
    mutable dec : D.t;
    mutable rid : int;
    inflight : (int, int * float) Hashtbl.t;  (* rid -> (op idx, send time) *)
    pending : int Queue.t;
    mutable completed : int;
    mutable cool_until : float;
    mutable out : Bytes.t;
    mutable out_off : int;
    mutable out_len : int;
  }

  let rec connectc ?(attempt = 0) c =
    if attempt > 200 then failwith "pipelined: server unreachable";
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ());
    Unix.set_nonblock fd;
    match Unix.connect fd c.addr with
    | () -> fd
    | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) -> (
        ignore (Aio.wait_writable fd);
        match Unix.getsockopt_error fd with
        | None -> fd
        | Some _ ->
            Aio.close fd;
            Aio.sleep 0.05;
            connectc ~attempt:(attempt + 1) c)
    | exception Unix.Unix_error (_, _, _) ->
        Aio.close fd;
        Aio.sleep 0.05;
        connectc ~attempt:(attempt + 1) c

  let append c s =
    let n = String.length s in
    let need = c.out_len + n in
    if c.out_off > 0 && c.out_off + need > Bytes.length c.out then begin
      Bytes.blit c.out c.out_off c.out 0 c.out_len;
      c.out_off <- 0
    end;
    if need > Bytes.length c.out then begin
      let cap = ref (max 1024 (Bytes.length c.out)) in
      while !cap < need do
        cap := !cap * 2
      done;
      let b = Bytes.create !cap in
      Bytes.blit c.out c.out_off b 0 c.out_len;
      c.out <- b;
      c.out_off <- 0
    end;
    Bytes.blit_string s 0 c.out (c.out_off + c.out_len) n;
    c.out_len <- c.out_len + n

  let rec flush c =
    if c.out_len = 0 then `All
    else
      match Unix.write c.fd c.out c.out_off c.out_len with
      | n ->
          c.out_off <- c.out_off + n;
          c.out_len <- c.out_len - n;
          if c.out_len = 0 then begin
            c.out_off <- 0;
            `All
          end
          else flush c
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          `Blocked
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> flush c
      | exception Unix.Unix_error (_, _, _) -> raise Dead

  let complete c =
    c.completed <- c.completed + 1;
    Atomic.incr c.tl.done_ops

  let retry c i counter =
    Atomic.incr counter;
    c.tries.(i) <- c.tries.(i) + 1;
    if c.tries.(i) >= max_tries then begin
      Atomic.incr c.tl.gave_up;
      complete c
    end
    else begin
      Queue.push i c.pending;
      c.cool_until <- Float.max c.cool_until (Unix.gettimeofday () +. 0.002)
    end

  let handle c frame =
    match P.decode_resp_rid frame with
    | Error _ -> raise Dead
    | Ok (rid, resp) -> (
        match Hashtbl.find_opt c.inflight rid with
        | None -> ()
        | Some (i, t0) -> (
            Hashtbl.remove c.inflight rid;
            match resp with
            | P.Ok ->
                c.acked.(i) <- true;
                c.lats := (Unix.gettimeofday () -. t0) :: !(c.lats);
                complete c
            | P.Overloaded -> retry c i c.tl.overloads
            | P.Timeout -> retry c i c.tl.shed
            | P.Shard_unavailable _ -> retry c i c.tl.shard_down
            | _ -> retry c i c.tl.unavailable))

  let top_up c =
    if Unix.gettimeofday () >= c.cool_until then
      while
        Hashtbl.length c.inflight < c.depth && not (Queue.is_empty c.pending)
      do
        let i = Queue.pop c.pending in
        c.rid <- c.rid + 1;
        let payload =
          P.encode_req ~rid:c.rid ?ttl_us:c.ttl_us
            (P.Put (c.ckey i, c.cvalue i))
        in
        append c (Printf.sprintf "%d\n%s" (String.length payload) payload);
        Hashtbl.replace c.inflight c.rid (i, Unix.gettimeofday ())
      done

  let rec read_avail c =
    D.ensure c.dec 8192;
    match Unix.read c.fd (D.buffer c.dec) (D.write_off c.dec) (D.room c.dec) with
    | 0 -> raise Dead
    | n ->
        D.filled c.dec n;
        let rec drain () =
          match D.next c.dec with
          | `Frame f ->
              handle c f;
              drain ()
          | `Need_more -> ()
          | `Error _ -> raise Dead
        in
        drain ();
        `Progress
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        `Empty
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_avail c
    | exception Unix.Unix_error (_, _, _) -> raise Dead

  (* Everything in flight when a connection dies is ambiguous; values
     are a pure function of the key, so all of it is simply requeued. *)
  let reconnect c =
    Atomic.incr c.tl.reconnects;
    (try Aio.close c.fd with _ -> ());
    Hashtbl.iter (fun _ (i, _) -> Queue.push i c.pending) c.inflight;
    Hashtbl.clear c.inflight;
    c.dec <- D.create ();
    c.out_off <- 0;
    c.out_len <- 0;
    c.cool_until <- Unix.gettimeofday () +. 0.05;
    c.fd <- connectc c

  let run_conn c =
    c.fd <- connectc c;
    let rec loop () =
      if c.completed < c.per_conn then begin
        (try
           let now = Unix.gettimeofday () in
           if
             c.cool_until > now
             && Hashtbl.length c.inflight = 0
             && c.out_len = 0
           then Aio.sleep (c.cool_until -. now);
           top_up c;
           let w = flush c in
           match read_avail c with
           | `Progress -> ()
           | `Empty ->
               if w = `Blocked then ignore (Aio.wait_writable c.fd)
               else if Hashtbl.length c.inflight > 0 then begin
                 (* safety deadline: a server stuck past it is treated as
                    a dead connection and the window is replayed *)
                 match
                   Aio.wait_readable
                     ~deadline:(Unix.gettimeofday () +. 5.)
                     c.fd
                 with
                 | `Ready -> ()
                 | `Timed_out -> raise Dead
               end
               else Aio.sleep 0.002
         with Dead -> reconnect c);
        loop ()
      end
    in
    loop ();
    try Aio.close c.fd with _ -> ()

  let run ~host ~port ~connections ~pipeline ~drivers ~ops ~value_bytes ~seed
      ~crash_at ~json_file ~slos ~stats_file ~prom_file ~prom_at ~ttl_us
      ~fetch_stats () =
    if connections < 1 || pipeline < 1 || drivers < 1 || ops < 1 then
      failwith "pipelined mode wants --connections/--pipeline/--drivers/--ops >= 1";
    let addr =
      let ip =
        try Unix.inet_addr_of_string host
        with _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
      in
      Unix.ADDR_INET (ip, port)
    in
    let total = connections * ops in
    let tl =
      {
        overloads = Atomic.make 0;
        unavailable = Atomic.make 0;
        shed = Atomic.make 0;
        shard_down = Atomic.make 0;
        reconnects = Atomic.make 0;
        gave_up = Atomic.make 0;
        done_ops = Atomic.make 0;
      }
    in
    let key cid i = Printf.sprintf "p%d:%06d" cid i in
    let value cid i =
      let stem = Printf.sprintf "v%d-%d-%d." seed cid i in
      let b = Buffer.create value_bytes in
      while Buffer.length b < value_bytes do
        Buffer.add_string b stem
      done;
      Buffer.sub b 0 value_bytes
    in
    let conns =
      List.init connections (fun cid ->
          let pending = Queue.create () in
          for i = 0 to ops - 1 do
            Queue.push i pending
          done;
          {
            cid;
            per_conn = ops;
            depth = pipeline;
            ckey = key cid;
            cvalue = value cid;
            ttl_us = (if ttl_us > 0 then Some ttl_us else None);
            addr;
            tl;
            acked = Array.make ops false;
            tries = Array.make ops 0;
            lats = ref [];
            fd = Unix.stdin;
            dec = D.create ();
            rid = 0;
            inflight = Hashtbl.create 16;
            pending;
            completed = 0;
            cool_until = 0.;
            out = Bytes.create 1024;
            out_off = 0;
            out_len = 0;
          })
    in
    let connect_admin () =
      Serve.Client.connect ~retries:100 ~retry_delay:0.05 ~host ~port ()
    in
    let admin = connect_admin () in
    Serve.Client.ping admin;

    let crash_ms = ref nan in
    let crasher =
      if Float.is_nan crash_at then None
      else begin
        let threshold = int_of_float (crash_at *. float_of_int total) in
        Some
          (Domain.spawn (fun () ->
               while Atomic.get tl.done_ops < threshold do
                 Unix.sleepf 0.001
               done;
               match
                 Serve.Client.crash admin ~seed ~evict_prob:0.2 ~torn_prob:0.2
                   ~bitflips:0
               with
               | Ok ms -> crash_ms := ms
               | Error d -> failwith ("CRASH did not recover: " ^ d)))
      end
    in
    let prom_ok = ref true in
    let prom_scraper =
      if prom_file = "" then None
      else begin
        let threshold = max 1 (int_of_float (prom_at *. float_of_int total)) in
        Some
          (Domain.spawn (fun () ->
               while Atomic.get tl.done_ops < threshold do
                 Unix.sleepf 0.001
               done;
               let cl = connect_admin () in
               (match Serve.Client.metrics cl with
               | Ok text ->
                   let oc = open_out prom_file in
                   output_string oc text;
                   close_out oc
               | Error e ->
                   prom_ok := false;
                   Printf.eprintf "mid-load METRICS failed: %s\n%!" e);
               Serve.Client.close cl))
      end
    in

    let t0 = Unix.gettimeofday () in
    let doms =
      List.init drivers (fun d ->
          let mine =
            List.filteri (fun i _ -> i mod drivers = d) conns
          in
          Domain.spawn (fun () ->
              if mine <> [] then begin
                let loop = Aio.create ~tid:d () in
                Aio.run loop (fun () ->
                    List.iter (fun c -> Aio.spawn (fun () -> run_conn c)) mine)
              end))
    in
    List.iter Domain.join doms;
    let elapsed = Unix.gettimeofday () -. t0 in
    Option.iter Domain.join crasher;
    Option.iter Domain.join prom_scraper;

    (* ---- verify: acked => present with the exact value ---- *)
    let n_acked = ref 0 in
    List.iter
      (fun c -> Array.iter (fun a -> if a then incr n_acked) c.acked)
      conns;
    let acked_missing = ref 0 and mangled = ref 0 and unacked_present = ref 0 in
    let mget ks =
      match Serve.Client.mget admin ks with
      | Ok vs -> vs
      | Error _ -> failwith "verify MGET failed"
    in
    let chunk = 64 in
    List.iter
      (fun c ->
        let rec chunks lo =
          if lo < ops then begin
            let n = min chunk (ops - lo) in
            let idxs = List.init n (fun j -> lo + j) in
            List.iter2
              (fun i v ->
                match (v, c.acked.(i)) with
                | Some v, was_acked ->
                    if v <> c.cvalue i then begin
                      incr mangled;
                      Printf.eprintf "MANGLED %s\n%!" (c.ckey i)
                    end
                    else if not was_acked then incr unacked_present
                | None, true ->
                    incr acked_missing;
                    Printf.eprintf "ACKED BUT MISSING %s\n%!" (c.ckey i)
                | None, false -> ())
              idxs
              (mget (List.map c.ckey idxs));
            chunks (lo + n)
          end
        in
        chunks 0)
      conns;

    let want_stats = fetch_stats || slos <> [] || stats_file <> "" in
    let stats =
      if want_stats then
        match Serve.Client.stats admin with
        | Ok j -> j
        | Error e -> failwith ("STATS failed: " ^ e)
      else Obs.Json.Null
    in
    Serve.Client.close admin;
    if stats_file <> "" then begin
      let oc = open_out stats_file in
      Obs.Json.to_channel oc stats;
      output_char oc '\n';
      close_out oc
    end;
    let windows =
      Option.value (Obs.Json.member "windows" stats) ~default:Obs.Json.Null
    in
    let slo_rows = eval_slos slos windows in
    let slo_failed = List.exists (fun (_, _, pass) -> not pass) slo_rows in

    let lat_all =
      List.concat_map (fun c -> !(c.lats)) conns |> Array.of_list
    in
    Array.sort compare lat_all;
    let throughput =
      if elapsed > 0. then float_of_int !n_acked /. elapsed else 0.
    in
    Printf.printf
      "bench_serve (pipelined): %d conns x depth %d x %d ops on %d drivers -> \
       %d acked in %.3fs (%.0f ops/s), %d overloaded, %d unavailable, %d \
       shed, %d shard-down, %d reconnects, %d gave up%s\n"
      connections pipeline ops drivers !n_acked elapsed throughput
      (Atomic.get tl.overloads) (Atomic.get tl.unavailable) (Atomic.get tl.shed)
      (Atomic.get tl.shard_down) (Atomic.get tl.reconnects)
      (Atomic.get tl.gave_up)
      (if Float.is_nan !crash_ms then ""
       else Printf.sprintf ", crash outage %.1fms" !crash_ms);
    Printf.printf "verify: acked_missing=%d mangled=%d unacked_present=%d\n%!"
      !acked_missing !mangled !unacked_present;

    let verdict = !acked_missing = 0 && !mangled = 0 in
    if json_file <> "" then begin
      let open Obs.Json in
      let lat_put =
        let n = Array.length lat_all in
        if n = 0 then Null
        else
          Obj
            [
              ("count", Int n);
              ("p50_us", Float (percentile lat_all 0.50 *. 1e6));
              ("p99_us", Float (percentile lat_all 0.99 *. 1e6));
            ]
      in
      let doc =
        Obj
          [
            ("schema", String "redodb.pipelined.v1");
            ("host", String host);
            ("port", Int port);
            ("connections", Int connections);
            ("pipeline", Int pipeline);
            ("drivers", Int drivers);
            ("ops_per_conn", Int ops);
            ("value_bytes", Int value_bytes);
            ("seed", Int seed);
            ("ttl_us", Int ttl_us);
            ("crash_at", if Float.is_nan crash_at then Null else Float crash_at);
            ("crash_ms", if Float.is_nan !crash_ms then Null else Float !crash_ms);
            ("acked", Int !n_acked);
            ( "retries",
              Obj
                [
                  ("overloaded", Int (Atomic.get tl.overloads));
                  ("unavailable", Int (Atomic.get tl.unavailable));
                  ("shed", Int (Atomic.get tl.shed));
                  ("shard_down", Int (Atomic.get tl.shard_down));
                ] );
            ("reconnects", Int (Atomic.get tl.reconnects));
            ("gave_up", Int (Atomic.get tl.gave_up));
            ("elapsed_s", Float elapsed);
            ("throughput_ops_s", Float throughput);
            ("latency", Obj [ ("put", lat_put) ]);
            ( "verify",
              Obj
                [
                  ("acked_missing", Int !acked_missing);
                  ("mangled", Int !mangled);
                  ("unacked_present", Int !unacked_present);
                  ("checked", Int total);
                ] );
            ("verdict", Bool verdict);
            ("server_windows", windows);
            ("slo", slo_json slo_rows);
            ("server_stats", stats);
          ]
      in
      let oc = open_out json_file in
      to_channel oc doc;
      output_char oc '\n';
      close_out oc
    end;
    if not verdict then begin
      prerr_endline "bench_serve: VERIFICATION FAILED";
      exit 1
    end;
    if slo_failed then begin
      prerr_endline "bench_serve: SLO VIOLATED";
      exit 1
    end;
    if not !prom_ok then begin
      prerr_endline "bench_serve: mid-load METRICS scrape failed";
      exit 1
    end
end

let () =
  let host = ref "127.0.0.1" in
  let port = ref 7599 in
  let clients = ref 4 in
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
  let call_timeout = ref 0. in
  let cl_retries = ref 0 in
  let ttl_us = ref 0 in
  let corrupt_spec = ref None in
  let connections = ref 0 in
  let pipeline = ref 8 in
  let drivers = ref 4 in
  let spec =
    [
      ("--host", Arg.Set_string host, "ADDR server address (default 127.0.0.1)");
      ("--port", Arg.Set_int port, "P server port (default 7599)");
      ("--clients", Arg.Set_int clients, "N closed-loop client connections (default 4)");
      ("--ops", Arg.Set_int ops, "N ops per client (default 2000)");
      ( "--connections",
        Arg.Set_int connections,
        "N pipelined open-loop mode: N multiplexed connections driven by \
         a few Aio event-loop domains (0 = closed-loop legacy mode)" );
      ( "--pipeline",
        Arg.Set_int pipeline,
        "D requests kept in flight per pipelined connection (default 8)" );
      ( "--drivers",
        Arg.Set_int drivers,
        "K driver domains multiplexing the pipelined connections (default 4)" );
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
        "S per-attempt client read deadline in seconds (0 = wait forever)" );
      ( "--retries",
        Arg.Set_int cl_retries,
        "N transparent client-side retries per request (resilient policy)" );
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
  if !connections > 0 then begin
    Pipelined.run ~host:!host ~port:!port ~connections:!connections
      ~pipeline:!pipeline ~drivers:!drivers ~ops:!ops
      ~value_bytes:!value_bytes ~seed:!seed ~crash_at:!crash_at
      ~json_file:!json_file ~slos:!slos ~stats_file:!stats_file
      ~prom_file:!prom_file ~prom_at:!prom_at ~ttl_us:!ttl_us
      ~fetch_stats:!fetch_stats ();
    exit 0
  end;
  let nclients = !clients and per_client = !ops in
  let total = nclients * per_client in
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
  (* Resilience policy: opting into a timeout or retries switches the
     client to the resilient machinery (reconnects included); otherwise
     the strict legacy single-attempt contract applies. *)
  let policy =
    if !call_timeout > 0. || !cl_retries > 0 then
      {
        Serve.Client.resilient with
        Serve.Client.call_timeout =
          (if !call_timeout > 0. then !call_timeout
           else Serve.Client.resilient.Serve.Client.call_timeout);
        max_retries =
          (if !cl_retries > 0 then !cl_retries
           else Serve.Client.resilient.Serve.Client.max_retries);
      }
    else Serve.Client.default_policy
  in
  let req_ttl = if !ttl_us > 0 then Some !ttl_us else None in
  let connect () =
    Serve.Client.connect ~retries:100 ~retry_delay:0.05 ~policy ~host:!host
      ~port:!port ()
  in
  let admin = connect () in
  Serve.Client.ping admin;

  let acked = Array.init nclients (fun _ -> Array.make per_client false) in
  let done_ops = Atomic.make 0 in
  let overloads = Atomic.make 0 in
  let unavailable = Atomic.make 0 in
  let in_doubt = Atomic.make 0 in
  let shed = Atomic.make 0 in
  let shard_down = Atomic.make 0 in
  let client_errors = Atomic.make 0 in
  let tally_acc =
    Array.make nclients
      { Serve.Client.retries = 0; timeouts = 0; reconnects = 0; resolved = 0 }
  in
  let lat_put = Array.init nclients (fun _ -> ref []) in
  let lat_mput = Array.init nclients (fun _ -> ref []) in
  let lat_scan = Array.init nclients (fun _ -> ref []) in
  let last_epoch = Atomic.make 0 in

  (* Optional crasher: one power failure at the load threshold. *)
  let crash_ms = ref nan in
  let crasher =
    if Float.is_nan !crash_at then None
    else begin
      let threshold = int_of_float (!crash_at *. float_of_int total) in
      Some
        (Domain.spawn (fun () ->
             while Atomic.get done_ops < threshold do
               Unix.sleepf 0.001
             done;
             match
               Serve.Client.crash admin ~seed:!seed ~evict_prob:0.2 ~torn_prob:0.2
                 ~bitflips:0
             with
             | Ok ms -> crash_ms := ms
             | Error d -> failwith ("CRASH did not recover: " ^ d)))
    end
  in

  (* Optional corrupter: seeded silent rot into one shard once the load
     reaches k ops, invisible to live reads — only the scrubber can
     notice.  The rot lands in the shard's durable commit header and
     replica records, which its next commit rewrites, so it goes in
     exactly once, at a quiescent point: every client parks at its next
     op boundary (or has finished), the corrupter injects on its own
     connection, and the clients resume as soon as HEALTH shows the
     quarantine, so their retries run through the quarantine, rebuild
     and readmission.  A missed injection leaves nothing to heal and
     fails the self-healing gate below. *)
  let corrupted = ref false in
  let parked = Atomic.make 0 in
  let resumed = Atomic.make (Option.is_none !corrupt_spec) in
  let corrupter =
    match !corrupt_spec with
    | None -> None
    | Some (shard, k) ->
        Some
          (Domain.spawn (fun () ->
               Fun.protect ~finally:(fun () -> Atomic.set resumed true)
               @@ fun () ->
               while Atomic.get done_ops < k do
                 Unix.sleepf 0.001
               done;
               let until = Unix.gettimeofday () +. 10. in
               while
                 Atomic.get parked < nclients && Unix.gettimeofday () < until
               do
                 Unix.sleepf 0.001
               done;
               let cl = connect () in
               let quarantined () =
                 match Serve.Client.health cl with
                 | Ok j -> (
                     match Obs.Json.member "serve.health.quarantines" j with
                     | Some (Obs.Json.Int n) -> n >= 1
                     | _ -> false)
                 | Error _ -> false
               in
               (match Serve.Client.corrupt cl ~shard ~seed:!seed ~count:3 with
               | Ok () ->
                   corrupted := true;
                   let until = Unix.gettimeofday () +. 10. in
                   while
                     (not (quarantined ())) && Unix.gettimeofday () < until
                   do
                     Unix.sleepf 0.001
                   done
               | Error e -> Printf.eprintf "CORRUPT failed: %s\n%!" e);
               Serve.Client.close cl))
  in

  (* Optional mid-load METRICS scrape: proves the telemetry plane answers
     while the server is under fire, on its own connection so it never
     interleaves with the admin socket. *)
  let prom_ok = ref true in
  let prom_scraper =
    if !prom_file = "" then None
    else begin
      let threshold =
        max 1 (int_of_float (!prom_at *. float_of_int total))
      in
      Some
        (Domain.spawn (fun () ->
             while Atomic.get done_ops < threshold do
               Unix.sleepf 0.001
             done;
             let cl = connect () in
             (match Serve.Client.metrics cl with
             | Ok text ->
                 let oc = open_out !prom_file in
                 output_string oc text;
                 close_out oc
             | Error e ->
                 prom_ok := false;
                 Printf.eprintf "mid-load METRICS failed: %s\n%!" e);
             Serve.Client.close cl))
    end
  in

  let run_client c =
    let cl = connect () in
    let timed lats f =
      let t0 = Unix.gettimeofday () in
      let r = f () in
      (match r with
      | Ok _ -> lats := (Unix.gettimeofday () -. t0) :: !lats
      | Error _ -> ());
      r
    in
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
       for i = 0 to per_client - 1 do
         (match !corrupt_spec with
         | Some (_, k)
           when (not !parked_me)
                && (not (Atomic.get resumed))
                && Atomic.get done_ops >= k ->
             park ();
             while not (Atomic.get resumed) do
               Unix.sleepf 0.001
             done
         | _ -> ());
         (* Closed loop with bounded retry: OVERLOADED is backpressure
            (ease off and resend); UNAVAILABLE means the engine is mid
            power-failure with no durable effect (wait out the outage);
            INDOUBT is retried too — values are a pure function of the
            key, so a replay of a recovered-forward transaction is
            idempotent.  An op that exhausts its retries stays
            unacknowledged — the verifier then only checks it was not
            mangled or partially committed. *)
         let rec attempt n (op : unit -> (unit, Serve.Client.error) result) =
           if n < 2000 then
             match op () with
             | Ok () -> acked.(c).(i) <- true
             | Error `Overloaded ->
                 Atomic.incr overloads;
                 Unix.sleepf 0.0005;
                 attempt (n + 1) op
             | Error (`InDoubt _) ->
                 Atomic.incr in_doubt;
                 Unix.sleepf 0.002;
                 attempt (n + 1) op
             | Error `Timeout ->
                 (* shed before execution (TTL or every attempt timed out
                    with nothing durable): always safe to resend *)
                 Atomic.incr shed;
                 Unix.sleepf 0.001;
                 attempt (n + 1) op
             | Error (`Shard_down _) ->
                 (* one shard quarantined or rebuilding: nothing durable
                    happened and the rest of the fleet keeps serving, so
                    wait out the rebuild and resend *)
                 Atomic.incr shard_down;
                 Unix.sleepf 0.002;
                 attempt (n + 1) op
             | Error (`Unavailable _) | Error (`Err _) ->
                 Atomic.incr unavailable;
                 Unix.sleepf 0.002;
                 attempt (n + 1) op
         in
         (match op_kind i with
         | `Put ->
             attempt 0 (fun () ->
                 Result.map
                   (fun () -> ())
                   (timed lat_put.(c) (fun () ->
                        Serve.Client.put ?ttl_us:req_ttl cl ~key:(key c i)
                          ~value:(value c i))))
         | `Mput ->
             let kvs =
               List.init !mput_size (fun j -> (mkey c i j, value c i))
             in
             attempt 0 (fun () ->
                 Result.map
                   (fun (_txid, epoch) ->
                     (* monotone commit epochs, observed client-side *)
                     let rec bump () =
                       let seen = Atomic.get last_epoch in
                       if epoch > seen && not (Atomic.compare_and_set last_epoch seen epoch)
                       then bump ()
                     in
                     bump ())
                   (timed lat_mput.(c) (fun () ->
                        Serve.Client.mput ?ttl_us:req_ttl cl kvs)))
         | `Scan ->
             attempt 0 (fun () ->
                 Result.map
                   (fun (_ : (string * string) list) -> ())
                   (timed lat_scan.(c) (fun () ->
                        Serve.Client.scan ?ttl_us:req_ttl cl
                          ~prefix:(Printf.sprintf "c%d:m" c)
                          ~max:!scan_max))));
         Atomic.incr done_ops
       done
     with e ->
       Atomic.incr client_errors;
       Printf.eprintf "client %d died: %s\n%!" c (Printexc.to_string e));
    park ();
    tally_acc.(c) <- Serve.Client.tallies cl;
    Serve.Client.close cl
  in
  let t0 = Unix.gettimeofday () in
  let doms = List.init nclients (fun c -> Domain.spawn (fun () -> run_client c)) in
  List.iter Domain.join doms;
  let elapsed = Unix.gettimeofday () -. t0 in
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
        match Serve.Client.health admin with
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
      Printf.printf
        "corrupt-shard %d: %s (%d shard-down retries)\n%!" shard
        (if !healed then "quarantined, rebuilt and readmitted"
         else "NOT healed before the deadline")
        (Atomic.get shard_down));

  (* ---- verify ---- *)
  let n_acked = ref 0 in
  Array.iter (Array.iter (fun a -> if a then incr n_acked)) acked;
  let acked_missing = ref 0 and mangled = ref 0 and unacked_present = ref 0 in
  let mput_partial = ref 0 in
  let mget ks =
    match Serve.Client.mget admin ks with
    | Ok vs -> vs
    | Error _ -> failwith "verify MGET failed"
  in
  let chunk = 64 in
  for c = 0 to nclients - 1 do
    (* point writes *)
    let put_idx =
      List.filter (fun i -> op_kind i = `Put) (List.init per_client (fun i -> i))
    in
    let rec chunks = function
      | [] -> ()
      | l ->
          let n = min chunk (List.length l) in
          let now = List.filteri (fun i _ -> i < n) l
          and rest = List.filteri (fun i _ -> i >= n) l in
          List.iter2
            (fun i v ->
              match (v, acked.(c).(i)) with
              | Some v, was_acked ->
                  if v <> value c i then begin
                    incr mangled;
                    Printf.eprintf "MANGLED %s\n%!" (key c i)
                  end
                  else if not was_acked then incr unacked_present
              | None, true ->
                  incr acked_missing;
                  Printf.eprintf "ACKED BUT MISSING %s\n%!" (key c i)
              | None, false -> ())
            now
            (mget (List.map (key c) now));
          chunks rest
    in
    chunks put_idx;
    (* cross-shard MPUT groups: exact all-or-nothing, acked => all *)
    List.iter
      (fun i ->
        if op_kind i = `Mput then begin
          let ks = List.init !mput_size (mkey c i) in
          let vs = mget ks in
          let there = List.filter (fun v -> v <> None) vs in
          let n_there = List.length there in
          List.iter2
            (fun k v ->
              match v with
              | Some v when v <> value c i ->
                  incr mangled;
                  Printf.eprintf "MANGLED %s\n%!" k
              | _ -> ())
            ks vs;
          if acked.(c).(i) then begin
            if n_there <> !mput_size then begin
              incr acked_missing;
              Printf.eprintf "ACKED MPUT PARTIAL/MISSING c%d:%d (%d/%d)\n%!" c i
                n_there !mput_size
            end
          end
          else if n_there <> 0 && n_there <> !mput_size then begin
            incr mput_partial;
            Printf.eprintf "MPUT PREFIX COMMIT c%d:%d (%d/%d)\n%!" c i n_there
              !mput_size
          end
        end)
      (List.init per_client (fun i -> i))
  done;

  let want_stats = !fetch_stats || !slos <> [] || !stats_file <> "" in
  let stats =
    if want_stats then
      match Serve.Client.stats admin with
      | Ok j -> j
      | Error e -> failwith ("STATS failed: " ^ e)
    else Obs.Json.Null
  in
  Serve.Client.close admin;
  if !stats_file <> "" then begin
    let oc = open_out !stats_file in
    Obs.Json.to_channel oc stats;
    output_char oc '\n';
    close_out oc
  end;

  (* Server-side windowed percentiles and the SLO verdicts. *)
  let windows =
    Option.value (Obs.Json.member "windows" stats) ~default:Obs.Json.Null
  in
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
    let all =
      Array.to_list lats |> List.concat_map (fun r -> !r) |> Array.of_list
    in
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
  let throughput = if elapsed > 0. then float_of_int !n_acked /. elapsed else 0. in
  let tot_tally =
    Array.fold_left
      (fun a (b : Serve.Client.tallies) ->
        {
          Serve.Client.retries = a.Serve.Client.retries + b.Serve.Client.retries;
          timeouts = a.Serve.Client.timeouts + b.Serve.Client.timeouts;
          reconnects = a.Serve.Client.reconnects + b.Serve.Client.reconnects;
          resolved = a.Serve.Client.resolved + b.Serve.Client.resolved;
        })
      { Serve.Client.retries = 0; timeouts = 0; reconnects = 0; resolved = 0 }
      tally_acc
  in
  Printf.printf
    "bench_serve: %d clients x %d ops -> %d acked in %.3fs (%.0f ops/s), %d \
     overloaded, %d unavailable, %d in-doubt retries, %d shed, %d shard-down \
     retries%s\n"
    nclients per_client !n_acked elapsed throughput (Atomic.get overloads)
    (Atomic.get unavailable) (Atomic.get in_doubt) (Atomic.get shed)
    (Atomic.get shard_down)
    (if Float.is_nan !crash_ms then "" else Printf.sprintf ", crash outage %.1fms" !crash_ms);
  if policy != Serve.Client.default_policy then
    Printf.printf
      "client policy: %d attempt retries, %d attempt timeouts, %d reconnects, \
       %d acks recovered via TXSTAT\n"
      tot_tally.Serve.Client.retries tot_tally.Serve.Client.timeouts
      tot_tally.Serve.Client.reconnects tot_tally.Serve.Client.resolved;
  Printf.printf
    "verify: acked_missing=%d mangled=%d unacked_present=%d mput_partial=%d\n%!"
    !acked_missing !mangled !unacked_present !mput_partial;

  if !json_file <> "" then begin
    let open Obs.Json in
    let doc =
      Obj
        [
          ("schema", String "pm-ucs-serve/1");
          ("host", String !host);
          ("port", Int !port);
          ("clients", Int nclients);
          ("ops_per_client", Int per_client);
          ("value_bytes", Int !value_bytes);
          ("seed", Int !seed);
          ("mput_every", Int !mput_every);
          ("mput_size", Int !mput_size);
          ("scan_every", Int !scan_every);
          ("scan_max", Int !scan_max);
          ("crash_at", if Float.is_nan !crash_at then Null else Float !crash_at);
          ("crash_ms", if Float.is_nan !crash_ms then Null else Float !crash_ms);
          ("acked", Int !n_acked);
          ("overloads", Int (Atomic.get overloads));
          ("unavailable_retries", Int (Atomic.get unavailable));
          ("in_doubt_retries", Int (Atomic.get in_doubt));
          ("shed_retries", Int (Atomic.get shed));
          ("shard_down_retries", Int (Atomic.get shard_down));
          ( "corrupt_shard",
            match !corrupt_spec with
            | None -> Null
            | Some (shard, k) ->
                Obj
                  [
                    ("shard", Int shard);
                    ("after_ops", Int k);
                    ("healed", Bool !healed);
                  ] );
          ("health", !health_doc);
          ("call_timeout_s", Float !call_timeout);
          ("client_retries", Int !cl_retries);
          ("ttl_us", Int !ttl_us);
          ( "client_tallies",
            Obj
              [
                ("retries", Int tot_tally.Serve.Client.retries);
                ("timeouts", Int tot_tally.Serve.Client.timeouts);
                ("reconnects", Int tot_tally.Serve.Client.reconnects);
                ("resolved", Int tot_tally.Serve.Client.resolved);
              ] );
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
              [
                ("acked_missing", Int !acked_missing);
                ("mangled", Int !mangled);
                ("unacked_present", Int !unacked_present);
                ("mput_partial", Int !mput_partial);
                ("checked", Int total);
              ] );
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

  if
    !acked_missing > 0 || !mangled > 0 || !mput_partial > 0
    || Atomic.get client_errors > 0
  then begin
    prerr_endline "bench_serve: VERIFICATION FAILED";
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
