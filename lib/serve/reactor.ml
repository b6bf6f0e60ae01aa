(* Event-driven serving front-end.

   N reactor domains each run an Aio edge-triggered epoll loop; every
   connection lives on exactly one reactor as a set of cooperative
   fibers, so a thousand idle connections cost a thousand heap records
   and zero parked OS threads:

   - a READ fiber pulls bytes into the connection's incremental
     Protocol.Io.Decoder, carves frames, and pushes decoded requests
     into the reactor's ingress queue (the fiber parks when the
     connection's inflight window fills — TCP backpressure — and when
     the socket runs dry);
   - W WORKER fibers per reactor (each owning a dedicated engine tid)
     drain the ingress queue through Dispatch — requests from many
     connections interleave freely, and a response completes whenever
     its engine call does, out of order within each connection's
     window; the RID echoed on every response is the correlator that
     lets the client match them back up.  Ingress is where group commit
     forms its batches: a worker that pops a single-key write takes
     every further queued write with it (see [take]) and hands the
     engine the whole group;
   - an on-demand WRITER fiber per connection flushes the outgoing
     buffer and parks on write readiness when the socket pushes back.

   Backpressure, outermost first: the global max_conns cap answers the
   accept itself with Overloaded; a full ingress queue answers
   Overloaded without executing; a connection at max_inflight stops
   being read.  TTL-expired requests answer Timeout; chaos injection
   applies Chaos.send_verdict to the buffered write path; an optional
   scrubber domain verifies shards in the background; and a graceful
   drain acks every admitted request before the loops wind down. *)

module A = Stdlib.Atomic

type config = {
  host : string;
  port : int;
  reactors : int;
  workers_per_reactor : int;
  max_conns : int;
  max_inflight : int;
  ingress_cap : int;
  engine : Engine.config;
  chaos : Chaos.source option;
  scrub_pause_us : float option;
  block_in_reactor : bool;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    reactors = 2;
    workers_per_reactor = 2;
    max_conns = 1024;
    max_inflight = 64;
    ingress_cap = 4096;
    engine = Engine.default_config;
    chaos = None;
    scrub_pause_us = None;
    block_in_reactor = false;
  }

type rconn = {
  fd : Unix.file_descr;
  r : reactor;
  dec : Protocol.Io.Decoder.t;
  chaos : Chaos.conn option;
  mutable out : Bytes.t;  (* outgoing bytes [out_off, out_off+out_len) *)
  mutable out_off : int;
  mutable out_len : int;
  mutable writer : bool;  (* a writer fiber is live *)
  mutable inflight : int;  (* requests admitted, response not yet buffered *)
  mutable gate : (unit -> unit) option;  (* read fiber parked on the window *)
  mutable eof : bool;  (* read side done; close once quiesced *)
  mutable cut : bool;  (* close as soon as the buffer flushes *)
  mutable closed : bool;
}

and reactor = {
  idx : int;
  tid0 : int;  (* first worker tid; workers use tid0 .. tid0+W-1 *)
  loop : Aio.loop;
  ingress : (rconn * Dispatch.item) Queue.t;
  mutable parked : (unit -> unit) list;  (* idle worker fibers *)
  conns : (Unix.file_descr, rconn) Hashtbl.t;
  rwins : Obs.Window.t array;  (* per-reactor serve.r<i>.win.* *)
  mutable dom : unit Domain.t option;
}

type t = {
  cfg : config;
  disp : Dispatch.t;
  eng : Engine.t;
  listener : Unix.file_descr;
  bound_port : int;
  stopping : bool A.t;
  draining : bool A.t;
  rs : reactor array;
  mutable accept_dom : unit Domain.t option;
  scrubber : Scrub.t option;
  mutable scrub_dom : unit Domain.t option;
  conns_open : int A.t;
  conns_rejected : int A.t;
  c_ingress_full : Obs.Metrics.counter;
  h_parse : Obs.Metrics.histogram;
}

(* ---- outgoing buffer ---------------------------------------------- *)

let append c s =
  if not c.closed then begin
    let n = String.length s in
    if c.out_off + c.out_len + n > Bytes.length c.out then begin
      if c.out_off > 0 then begin
        Bytes.blit c.out c.out_off c.out 0 c.out_len;
        c.out_off <- 0
      end;
      if c.out_len + n > Bytes.length c.out then begin
        let cap = ref (max 4096 (Bytes.length c.out)) in
        while c.out_len + n > !cap do
          cap := !cap * 2
        done;
        let b = Bytes.create !cap in
        Bytes.blit c.out 0 b 0 c.out_len;
        c.out <- b
      end
    end;
    Bytes.blit_string s 0 c.out (c.out_off + c.out_len) n;
    c.out_len <- c.out_len + n
  end

(* ---- connection teardown ------------------------------------------ *)

let close_conn t c =
  if not c.closed then begin
    c.closed <- true;
    Hashtbl.remove c.r.conns c.fd;
    A.decr t.conns_open;
    (match c.gate with
    | Some k ->
        c.gate <- None;
        k ()
    | None -> ());
    Aio.close c.fd;
    (* The last connection of a winding-down reactor releases the
       parked workers so they can observe the exit condition. *)
    if
      Hashtbl.length c.r.conns = 0
      && (A.get t.stopping || A.get t.draining)
    then begin
      let ps = c.r.parked in
      c.r.parked <- [];
      List.iter (fun k -> k ()) ps
    end
  end

(* Close once nothing remains to say: a cut connection goes as soon as
   its buffer flushed; a clean EOF waits for the inflight window to
   retire so every executed request still acks (the drain contract). *)
let maybe_finish t c =
  if
    (not c.closed)
    && c.out_len = 0
    && (c.cut || (c.eof && c.inflight = 0))
  then close_conn t c

(* ---- writer fiber ------------------------------------------------- *)

let rec flush t c =
  if c.closed then c.writer <- false
  else if c.out_len = 0 then begin
    c.writer <- false;
    maybe_finish t c
  end
  else
    match Unix.write c.fd c.out c.out_off c.out_len with
    | n ->
        c.out_off <- c.out_off + n;
        c.out_len <- c.out_len - n;
        if c.out_len = 0 then c.out_off <- 0;
        flush t c
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
        (match Aio.wait_writable c.fd with `Ready | `Timed_out -> ());
        flush t c
    | exception Unix.Unix_error (EINTR, _, _) -> flush t c
    | exception _ ->
        (* Peer gone (EPIPE/ECONNRESET/EBADF): drop the connection. *)
        c.writer <- false;
        c.cut <- true;
        close_conn t c

let ensure_writer t c =
  if (not c.writer) && (not c.closed) && c.out_len > 0 then begin
    c.writer <- true;
    Aio.spawn (fun () -> flush t c)
  end

(* ---- response delivery -------------------------------------------- *)

(* Frame and buffer one response, running it through the chaos verdict
   when injection is on.  Out-of-order completion needs no machinery
   here: whichever worker finishes first appends first, and the RID
   inside the payload is the client's correlator. *)
let deliver t c ~rid resp =
  if not c.closed then begin
    let payload = Protocol.encode_resp ~rid resp in
    (match c.chaos with
    | None ->
        append c (Printf.sprintf "%d\n%s" (String.length payload) payload)
    | Some ch -> (
        match Chaos.send_verdict ch payload with
        | Chaos.Deliver frame -> append c frame
        | Chaos.Drop_response -> ()
        | Chaos.Truncate_and_cut prefix ->
            append c prefix;
            c.cut <- true
        | Chaos.Deliver_delayed (frame, us) ->
            Aio.spawn (fun () ->
                Aio.sleep (float_of_int us *. 1e-6);
                append c frame;
                ensure_writer t c)));
    ensure_writer t c;
    maybe_finish t c
  end

(* A response retired: reopen the connection's inflight window. *)
let retire t c =
  c.inflight <- c.inflight - 1;
  (match c.gate with
  | Some k when c.inflight < t.cfg.max_inflight ->
      c.gate <- None;
      k ()
  | _ -> ());
  maybe_finish t c

(* ---- worker fibers ------------------------------------------------ *)

let wake_one r =
  match r.parked with
  | [] -> ()
  | k :: rest ->
      r.parked <- rest;
      k ()

(* Batch formation.  Single-key writes group; reads are skipped over
   and keep their place in the queue; every other verb — MPUT, TXSTAT
   and the admin verbs — is a barrier no write is grouped across. *)
let kind : Protocol.req -> [ `Read | `Write | `Barrier ] = function
  | Put _ | Del _ -> `Write
  | Get _ | Mget _ | Scan _ | Ping | Stats | Metrics | Health -> `Read
  | Mput _ | Txstat _ | Crash _ | Freeze _ | Rebuild _ | Corrupt _ -> `Barrier

(* The next unit of work: the head request alone, or — when the head is
   a single-key write — the head plus every further queued write in
   ingress order, up to the next barrier.  At zero linger a unit runs
   to completion without yielding its reactor, so writes take effect in
   ingress order.  A unit that does yield (a follower of another
   reactor's batch leader, a linger window) overlaps later units; their
   requests were in flight together on the wire, so either order is
   linearizable. *)
let take r =
  match Queue.take_opt r.ingress with
  | None -> None
  | Some ((_, it) as head) when kind it.Dispatch.req <> `Write -> Some [ head ]
  | Some head ->
      let skipped = Queue.create () in
      let rec group acc =
        match Queue.peek_opt r.ingress with
        | Some (_, it) when kind it.Dispatch.req <> `Barrier ->
            let x = Queue.pop r.ingress in
            if kind it.Dispatch.req = `Write then group (x :: acc)
            else begin
              Queue.push x skipped;
              group acc
            end
        | _ -> List.rev acc
      in
      let g = group [ head ] in
      (* skipped reads go back in front of what is left *)
      Queue.transfer r.ingress skipped;
      Queue.transfer skipped r.ingress;
      Some g

let rec worker_loop t r ~tid =
  match take r with
  | Some unit ->
      (* The block-in-reactor mutant: a blocking sleep on the event
         loop freezes every fiber of this reactor for 20 ms per
         request (each request of a group included).  The pipelined SLO
         gate must catch the fairness collapse. *)
      if t.cfg.block_in_reactor then
        List.iter (fun _ -> ignore (Unix.select [] [] [] 0.02)) unit;
      (* Execute even if the peer vanished meanwhile: a tokened write
         may be the one its client is already retrying elsewhere. *)
      let resps =
        Dispatch.serve t.disp ~tid ~extra_wins:r.rwins (List.map snd unit)
      in
      List.iter2
        (fun (c, it) resp ->
          deliver t c ~rid:it.Dispatch.env.Protocol.rid resp;
          retire t c)
        unit resps;
      worker_loop t r ~tid
  | None ->
      if
        A.get t.stopping
        || (A.get t.draining && Hashtbl.length r.conns = 0)
      then ()
      else begin
        Aio.suspend (fun k -> r.parked <- k :: r.parked);
        worker_loop t r ~tid
      end

(* ---- read fibers -------------------------------------------------- *)

let handle_frame t c payload =
  let t0 = if Obs.is_active () then Unix.gettimeofday () else 0. in
  match Protocol.decode_req_env payload with
  | Error reason ->
      deliver t c ~rid:0 (Protocol.Err ("bad request: " ^ reason))
  | Result.Ok (env, req) ->
      let rid = env.Protocol.rid in
      if t0 > 0. then begin
        Obs.Trace.complete Obs.Trace.Ingress ~tid:c.r.tid0 ~rid ~t0;
        if Obs.Metrics.is_on () then
          Obs.Metrics.record_ns t.h_parse ~tid:c.r.tid0
            (int_of_float ((Unix.gettimeofday () -. t0) *. 1e9))
      end;
      (* The TTL clock starts at ingress, covering queueing and
         execution but not the network hop in. *)
      let deadline =
        if env.Protocol.ttl_us > 0 then
          Unix.gettimeofday () +. (float_of_int env.Protocol.ttl_us *. 1e-6)
        else 0.
      in
      (* Pipelining window: past max_inflight the read fiber parks and
         the kernel's receive buffer takes over (TCP backpressure). *)
      while c.inflight >= t.cfg.max_inflight && not c.closed do
        Aio.suspend (fun k -> c.gate <- Some k)
      done;
      if not c.closed then
        if Queue.length c.r.ingress >= t.cfg.ingress_cap then begin
          Obs.Metrics.incr t.c_ingress_full ~tid:c.r.tid0;
          deliver t c ~rid Protocol.Overloaded
        end
        else begin
          c.inflight <- c.inflight + 1;
          Queue.push
            (c, { Dispatch.env; req; deadline; t_in = Unix.gettimeofday () })
            c.r.ingress;
          wake_one c.r
        end

let on_eof t c =
  (match Protocol.Io.Decoder.eof_reason c.dec with
  | None -> ()
  | Some reason ->
      deliver t c ~rid:0 (Protocol.Err ("bad frame: " ^ reason)));
  c.eof <- true;
  ensure_writer t c;
  maybe_finish t c

let rec read_loop t c =
  if not (c.closed || c.cut || c.eof) then
    match
      (match c.chaos with Some ch -> Chaos.before_read ch | None -> ())
    with
    | exception Chaos.Cut _ ->
        (* Injected sever: drop the connection, pending responses and
           all — the ack-loss fault the client retries absorb. *)
        c.cut <- true;
        close_conn t c
    | () -> (
        match Protocol.Io.Decoder.next c.dec with
        | `Frame payload ->
            handle_frame t c payload;
            read_loop t c
        | `Error reason ->
            (* Stream position unknown past a framing error: answer
               once, flush, close. *)
            deliver t c ~rid:0 (Protocol.Err ("bad frame: " ^ reason));
            c.cut <- true;
            ensure_writer t c;
            maybe_finish t c
        | `Need_more -> (
            let dec = c.dec in
            Protocol.Io.Decoder.ensure dec 8192;
            match
              Unix.read c.fd
                (Protocol.Io.Decoder.buffer dec)
                (Protocol.Io.Decoder.write_off dec)
                (Protocol.Io.Decoder.room dec)
            with
            | 0 -> on_eof t c
            | n ->
                Protocol.Io.Decoder.filled dec n;
                read_loop t c
            | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
                (match Aio.wait_readable c.fd with
                | `Ready | `Timed_out -> ());
                read_loop t c
            | exception Unix.Unix_error (EINTR, _, _) -> read_loop t c
            | exception _ ->
                c.cut <- true;
                close_conn t c))

let add_conn t r fd =
  let c =
    {
      fd;
      r;
      dec = Protocol.Io.Decoder.create ();
      chaos = Option.map (fun src -> Chaos.conn src ~tid:r.tid0) t.cfg.chaos;
      out = Bytes.create 4096;
      out_off = 0;
      out_len = 0;
      writer = false;
      inflight = 0;
      gate = None;
      eof = false;
      cut = false;
      closed = false;
    }
  in
  Hashtbl.replace r.conns fd c;
  read_loop t c

(* ---- accept domain ------------------------------------------------ *)

let accept_loop t =
  let next = ref 0 in
  while not (A.get t.stopping || A.get t.draining) do
    match Unix.accept t.listener with
    | exception Unix.Unix_error ((EBADF | EINVAL | ECONNABORTED), _, _) -> ()
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | fd, _peer ->
        (try Unix.setsockopt fd TCP_NODELAY true with Unix.Unix_error _ -> ());
        if A.get t.conns_open >= t.cfg.max_conns then begin
          (* Connection-cap exhaustion is backpressure too. *)
          A.incr t.conns_rejected;
          (try
             Protocol.Io.write_frame (Protocol.Io.of_fd fd)
               (Protocol.encode_resp Protocol.Overloaded)
           with _ -> ());
          (try Unix.close fd with Unix.Unix_error _ -> ())
        end
        else begin
          A.incr t.conns_open;
          Unix.set_nonblock fd;
          let r = t.rs.(!next mod Array.length t.rs) in
          incr next;
          Aio.post r.loop (fun () -> add_conn t r fd)
        end
  done

(* ---- lifecycle ---------------------------------------------------- *)

let rwin_names i =
  Array.map
    (fun n ->
      (* "serve.win.get" -> "serve.r<i>.win.get" *)
      match String.index_opt n '.' with
      | Some j ->
          Printf.sprintf "serve.r%d%s" i (String.sub n j (String.length n - j))
      | None -> Printf.sprintf "serve.r%d.%s" i n)
    Dispatch.win_names

let start cfg =
  if cfg.reactors < 1 then invalid_arg "Reactor.start: reactors";
  if cfg.workers_per_reactor < 1 then
    invalid_arg "Reactor.start: workers_per_reactor";
  if cfg.max_conns < 1 then invalid_arg "Reactor.start: max_conns";
  if cfg.max_inflight < 1 then invalid_arg "Reactor.start: max_inflight";
  if cfg.ingress_cap < 1 then invalid_arg "Reactor.start: ingress_cap";
  (* engine tids: one per worker fiber, tid 0 for the in-process owner,
     and the next one for the scrub domain *)
  let wtids = cfg.reactors * cfg.workers_per_reactor in
  let cfg =
    {
      cfg with
      engine =
        {
          cfg.engine with
          num_threads = wtids + 1 + if cfg.scrub_pause_us <> None then 1 else 0;
        };
    }
  in
  (if Sys.unix then
     try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ());
  let eng = Engine.create cfg.engine in
  let listener = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.setsockopt listener SO_REUSEADDR true;
  (try
     Unix.bind listener (ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port));
     Unix.listen listener 1024
   with e ->
     (try Unix.close listener with Unix.Unix_error _ -> ());
     raise e);
  let bound_port =
    match Unix.getsockname listener with
    | ADDR_INET (_, p) -> p
    | ADDR_UNIX _ -> cfg.port
  in
  let rs =
    Array.init cfg.reactors (fun i ->
        {
          idx = i;
          tid0 = 1 + (i * cfg.workers_per_reactor);
          loop = Aio.create ~tid:(1 + (i * cfg.workers_per_reactor)) ();
          ingress = Queue.create ();
          parked = [];
          conns = Hashtbl.create 64;
          rwins = Array.map Obs.Window.create (rwin_names i);
          dom = None;
        })
  in
  let conns_open = A.make 0 and conns_rejected = A.make 0 in
  let t =
    {
      cfg;
      disp =
        Dispatch.create eng ~conn_stats:(fun () ->
            (A.get conns_open, A.get conns_rejected));
      eng;
      listener;
      bound_port;
      stopping = A.make false;
      draining = A.make false;
      rs;
      accept_dom = None;
      scrubber = Option.map (fun _ -> Scrub.create eng) cfg.scrub_pause_us;
      scrub_dom = None;
      conns_open;
      conns_rejected;
      c_ingress_full = Obs.Metrics.counter "serve.reactor.ingress_full";
      h_parse = Obs.Metrics.histogram "serve.stage.parse";
    }
  in
  Array.iter
    (fun r ->
      r.dom <-
        Some
          (Domain.spawn (fun () ->
               Aio.run r.loop (fun () ->
                   for w = 0 to cfg.workers_per_reactor - 1 do
                     let tid = r.tid0 + w in
                     Aio.spawn (fun () -> worker_loop t r ~tid)
                   done))))
    rs;
  t.accept_dom <- Some (Domain.spawn (fun () -> accept_loop t));
  (match (t.scrubber, cfg.scrub_pause_us) with
  | Some sc, Some pause_us ->
      t.scrub_dom <-
        Some
          (Domain.spawn (fun () ->
               Scrub.run sc ~tid:(wtids + 1)
                 ~stop:(fun () -> A.get t.stopping || A.get t.draining)
                 ~pause_us))
  | _ -> ());
  t

let port t = t.bound_port
let engine t = t.eng
let scrubber t = t.scrubber
let live_conns t = A.get t.conns_open

let close_listener t =
  (try Unix.shutdown t.listener SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  (try Unix.close t.listener with Unix.Unix_error _ -> ());
  Option.iter Domain.join t.accept_dom;
  t.accept_dom <- None;
  Option.iter Domain.join t.scrub_dom;
  t.scrub_dom <- None

let join_reactors t =
  Array.iter
    (fun r ->
      Option.iter Domain.join r.dom;
      r.dom <- None)
    t.rs

let stop t =
  if not (A.exchange t.stopping true) then begin
    close_listener t;
    Array.iter
      (fun r ->
        Aio.post r.loop (fun () ->
            let cs = Hashtbl.fold (fun _ c acc -> c :: acc) r.conns [] in
            List.iter
              (fun c ->
                c.cut <- true;
                close_conn t c)
              cs;
            let ps = r.parked in
            r.parked <- [];
            List.iter (fun k -> k ()) ps;
            Aio.stop r.loop))
      t.rs;
    join_reactors t
  end

(* Graceful drain: stop accepting, shut only the RECEIVE side of every
   connection — read fibers see a clean EOF, admitted requests finish
   executing, and their acks still flow out the intact send side.
   Every acked write is durable, so a restart after drain loses
   nothing. *)
let drain t =
  if not (A.exchange t.draining true) && not (A.get t.stopping) then begin
    close_listener t;
    Array.iter
      (fun r ->
        Aio.post r.loop (fun () ->
            Hashtbl.iter
              (fun _ c ->
                try Unix.shutdown c.fd SHUTDOWN_RECEIVE
                with Unix.Unix_error _ -> ())
              r.conns;
            (* Zero-connection reactors have nothing to EOF: release
               the parked workers so the loop can wind down. *)
            if Hashtbl.length r.conns = 0 then begin
              let ps = r.parked in
              r.parked <- [];
              List.iter (fun k -> k ()) ps
            end))
      t.rs;
    join_reactors t;
    A.set t.stopping true
  end
