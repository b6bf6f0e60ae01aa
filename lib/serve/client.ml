(* Resilient blocking client for the RedoDB wire protocol: one socket,
   one outstanding request.  Concurrency comes from opening more
   clients (one per load-generator thread), matching the server's
   one-domain-per-connection model.

   Resilience is policy-driven and off by default (default_policy keeps
   the original strict single-attempt behaviour):

   - every attempt is bounded by [call_timeout] (a read deadline armed
     on the connection; the stream is unrecoverable past a timeout so
     the socket is closed and lazily reconnected);
   - idempotent requests (GET/MGET/SCAN/PING/STATS/METRICS, and any
     request answered with the retryable OVERLOADED/TIMEOUT shed
     responses) retry transparently under exponential backoff + jitter;
   - writes are exactly-once: a tokened PUT/DEL/MPUT whose attempt ends
     ambiguously (timeout, dead/corrupt connection — the ack may be
     lost AFTER the commit) is never blindly resent.  The client first
     resolves the token with TXSTAT: COMMITTED means the earlier
     attempt won (done — its ack is recovered from the ledger), ABORTED
     means nothing durable happened (resend is safe), UNKNOWN means the
     attempt is still in flight server-side (poll again).  An untokened
     write keeps the strict behaviour: ambiguous failures raise.

   The client serializes its own requests, so it never queries a token
   while also submitting it — the precondition for the server's
   presumed-abort TXSTAT answer. *)

type policy = {
  call_timeout : float;
  max_retries : int;
  base_delay : float;
  max_delay : float;
  jitter : float;
  reconnect_attempts : int;
  reconnect_delay : float;
}

let default_policy =
  {
    call_timeout = 0.;
    max_retries = 0;
    base_delay = 0.01;
    max_delay = 0.5;
    jitter = 0.5;
    reconnect_attempts = 0;
    reconnect_delay = 0.05;
  }

let resilient =
  {
    call_timeout = 1.;
    max_retries = 12;
    base_delay = 0.005;
    max_delay = 0.2;
    jitter = 0.5;
    reconnect_attempts = 100;
    reconnect_delay = 0.02;
  }

type tallies = { retries : int; timeouts : int; reconnects : int; resolved : int }

type t = {
  host : string;
  port : int;
  policy : policy;
  rng : Random.State.t;
  mutable fd : Unix.file_descr;
  mutable io : Protocol.Io.t;
  mutable alive : bool;
  mutable next_rid : int;  (* request ids are per-connection, from 1 *)
  tok_base : int;
  mutable next_tok : int;
  mutable n_retries : int;
  mutable n_timeouts : int;
  mutable n_reconnects : int;
  mutable n_resolved : int;
}

type error =
  [ `Overloaded
  | `Unavailable of string
  | `Shard_down of int
  | `InDoubt of int
  | `Timeout
  | `Err of string ]

exception Protocol_error of string

let open_fd ~host ~port ~retries ~retry_delay =
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  let rec go attempt =
    let fd = Unix.socket PF_INET SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () ->
        Unix.setsockopt fd TCP_NODELAY true;
        fd
    | exception Unix.Unix_error ((ECONNREFUSED | ENETUNREACH | ETIMEDOUT), _, _)
      when attempt < retries ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Unix.sleepf retry_delay;
        go (attempt + 1)
    | exception e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e
  in
  go 0

(* Distinct token namespaces for clients of one process; pids separate
   concurrent client processes.  Uniqueness, not secrecy or
   determinism, is all tokens need — harnesses that want reproducible
   tokens pass their own via [?tok]. *)
let client_seq = Atomic.make 0

let connect ?(retries = 0) ?(retry_delay = 0.05) ?(policy = default_policy)
    ~host ~port () =
  let fd = open_fd ~host ~port ~retries ~retry_delay in
  let seq = Atomic.fetch_and_add client_seq 1 in
  let tok_base =
    (((Unix.getpid () land 0xFFFF) lsl 16) lor (seq land 0xFFFF)) * 1_000_000
  in
  {
    host;
    port;
    policy;
    rng = Random.State.make [| tok_base; 0x5eed |];
    fd;
    io = Protocol.Io.of_fd fd;
    alive = true;
    next_rid = 1;
    tok_base;
    next_tok = 0;
    n_retries = 0;
    n_timeouts = 0;
    n_reconnects = 0;
    n_resolved = 0;
  }

let kill t =
  if t.alive then begin
    (try Unix.close t.fd with Unix.Unix_error _ -> ());
    t.alive <- false
  end

let close t = kill t

let reconnect t =
  let rec go attempt =
    match open_fd ~host:t.host ~port:t.port ~retries:0 ~retry_delay:0. with
    | fd ->
        t.fd <- fd;
        t.io <- Protocol.Io.of_fd fd;
        t.alive <- true;
        t.next_rid <- 1;
        t.n_reconnects <- t.n_reconnects + 1
    | exception e ->
        if attempt >= t.policy.reconnect_attempts then
          raise (Protocol_error ("reconnect failed: " ^ Printexc.to_string e))
        else begin
          Unix.sleepf t.policy.reconnect_delay;
          go (attempt + 1)
        end
  in
  go 0

let ensure t = if not t.alive then reconnect t

let fresh_tok t =
  t.next_tok <- t.next_tok + 1;
  t.tok_base + t.next_tok

let tallies t =
  {
    retries = t.n_retries;
    timeouts = t.n_timeouts;
    reconnects = t.n_reconnects;
    resolved = t.n_resolved;
  }

(* Why an attempt failed without a well-formed response.  Past any of
   these the stream position is unknowable, so the socket is dead;
   whether the REQUEST took effect is unknowable too — that ambiguity
   is what the write path resolves through TXSTAT. *)
type attempt_error = Timed_out | Conn_dead of string

(* One framed round-trip.  Every request carries a fresh id; the
   response must echo it (0 is tolerated — a pre-RID server).  A
   non-zero mismatch means the stream slipped a frame: connection dead
   rather than mispair request/response. *)
let attempt ?timeout ?(ttl_us = 0) ?(tok = 0) t req =
  let rid = t.next_rid in
  t.next_rid <- rid + 1;
  let dead reason =
    kill t;
    Error (Conn_dead reason)
  in
  match Protocol.Io.write_frame t.io (Protocol.encode_req ~rid ~ttl_us ~tok req) with
  | exception e -> dead ("send failed: " ^ Printexc.to_string e)
  | () -> (
      let tmo = match timeout with Some s -> s | None -> t.policy.call_timeout in
      Protocol.Io.set_deadline t.io
        (if tmo > 0. then Unix.gettimeofday () +. tmo else 0.);
      match Protocol.Io.read_frame t.io with
      | exception Protocol.Io.Read_timeout ->
          t.n_timeouts <- t.n_timeouts + 1;
          kill t;
          Error Timed_out
      | exception e -> dead ("receive failed: " ^ Printexc.to_string e)
      | Error reason -> dead ("bad frame: " ^ reason)
      | Result.Ok None -> dead "connection closed by server"
      | Result.Ok (Some payload) -> (
          match Protocol.decode_resp_rid payload with
          | Error reason -> dead ("bad response: " ^ reason)
          | Result.Ok (r, _) when r <> 0 && r <> rid ->
              dead
                (Printf.sprintf "response RID %d does not match request RID %d" r
                   rid)
          | Result.Ok (_, resp) -> Result.Ok resp))

let backoff t k =
  t.n_retries <- t.n_retries + 1;
  let d = min t.policy.max_delay (t.policy.base_delay *. (2. ** float_of_int k)) in
  let j = 1. -. (t.policy.jitter /. 2.) +. Random.State.float t.rng t.policy.jitter in
  Unix.sleepf (d *. j)

(* Raw single round-trip (no retries), kept for harnesses that drive
   the protocol directly.  Honors the policy call timeout. *)
let call t req =
  ensure t;
  match attempt t req with
  | Result.Ok resp -> resp
  | Error Timed_out -> raise (Protocol_error "request timed out")
  | Error (Conn_dead reason) -> raise (Protocol_error reason)

let last_rid t = t.next_rid - 1

(* Transparent retry loop for IDEMPOTENT requests: re-running them is
   harmless, so client-side timeouts, dead connections and the server's
   retryable shed answers (OVERLOADED/TIMEOUT) all just retry under
   backoff.  Exhaustion surfaces the server's TIMEOUT shape (mapped to
   [`Timeout] by the typed wrappers) for timeouts, or raises for a
   connection that will not come back. *)
let idem ?(ttl_us = 0) t req =
  let rec go k =
    ensure t;
    match attempt t ~ttl_us req with
    | Result.Ok
        (Protocol.Overloaded | Protocol.Timeout | Protocol.Shard_unavailable _)
      when k < t.policy.max_retries ->
        backoff t k;
        go (k + 1)
    | Result.Ok resp -> resp
    | Error Timed_out when k < t.policy.max_retries ->
        backoff t k;
        go (k + 1)
    | Error (Conn_dead _) when k < t.policy.max_retries ->
        backoff t k;
        go (k + 1)
    | Error Timed_out -> Protocol.Timeout
    | Error (Conn_dead reason) -> raise (Protocol_error reason)
  in
  go 0

(* Exactly-once write loop.  Retryable shed answers resend directly
   (nothing durable happened).  An AMBIGUOUS failure — timeout or dead
   connection, where the commit may have happened and only the ack was
   lost — resolves the token first: COMMITTED recovers the lost ack
   from the ledger, ABORTED proves a resend safe, UNKNOWN polls.  Only
   tokened writes get this; an untokened ambiguous write raises.  One
   retry count [k] bounds sends and resolutions together: an ABORTED
   answer backs off and resends without resetting it. *)
let rec send ~ttl_us ~tok t req k =
  ensure t;
  match attempt t ~ttl_us ~tok req with
  | Result.Ok
      (Protocol.Overloaded | Protocol.Timeout | Protocol.Shard_unavailable _)
    when k < t.policy.max_retries ->
      backoff t k;
      send ~ttl_us ~tok t req (k + 1)
  | Result.Ok resp -> resp
  | Error why ->
      if tok > 0 && k < t.policy.max_retries then
        resolve ~ttl_us ~tok t req (k + 1)
      else (
        match why with
        | Timed_out -> Protocol.Timeout
        | Conn_dead reason -> raise (Protocol_error reason))

(* Resolve-FIRST entry of the same loop, for a tokened write whose
   attempt was already on the wire when the stream died. *)
and resolve ~ttl_us ~tok t req k =
  ensure t;
  match attempt t (Protocol.Txstat tok) with
  | Result.Ok (Protocol.Txstat_committed _ as resp) ->
      t.n_resolved <- t.n_resolved + 1;
      resp
  | Result.Ok Protocol.Txstat_aborted ->
      backoff t k;
      send ~ttl_us ~tok t req k
  | Result.Ok (Protocol.Txstat_unknown | Protocol.Overloaded | Protocol.Timeout)
  | Error Timed_out ->
      if k < t.policy.max_retries then begin
        backoff t k;
        resolve ~ttl_us ~tok t req (k + 1)
      end
      else Protocol.Txstat_unknown
  | Result.Ok resp -> resp
  | Error (Conn_dead reason) ->
      if k < t.policy.max_retries then begin
        backoff t k;
        resolve ~ttl_us ~tok t req (k + 1)
      end
      else raise (Protocol_error ("write resolution failed: " ^ reason))

let write_call ?(ttl_us = 0) ~tok t req = send ~ttl_us ~tok t req 0

(* Typed wrappers.  [`Overloaded] is the backpressure signal callers are
   expected to handle; [`Timeout] means the request was shed (or every
   attempt timed out) with no durable effect — always safe to retry;
   [`Unavailable] means the request took no durable effect and is
   retryable after recovery; [`InDoubt] means a write's outcome is
   unknown (0 = unresolved token).  Any other shape mismatch is a
   protocol error. *)

let shape (resp : Protocol.resp) =
  match resp with
  | Ok -> "OK"
  | Ok_ms _ -> "OK_MS"
  | Val _ -> "VAL"
  | Nil -> "NIL"
  | Vals _ -> "VALS"
  | Kvs _ -> "KVS"
  | Json _ -> "JSON"
  | Text _ -> "TEXT"
  | Overloaded -> "OVERLOADED"
  | Committed _ -> "COMMITTED"
  | Unavail _ -> "UNAVAILABLE"
  | In_doubt _ -> "INDOUBT"
  | Timeout -> "TIMEOUT"
  | Txstat_committed _ -> "TXSTAT COMMITTED"
  | Txstat_aborted -> "TXSTAT ABORTED"
  | Txstat_unknown -> "TXSTAT UNKNOWN"
  | Shard_unavailable _ -> "SHARD_UNAVAILABLE"
  | Err _ -> "ERR"

let unexpected what resp =
  raise (Protocol_error (Printf.sprintf "%s: unexpected %s response" what (shape resp)))

(* The five failure answers every typed request maps the same way. *)
let failed what (resp : Protocol.resp) =
  match resp with
  | Overloaded -> Error `Overloaded
  | Timeout -> Error `Timeout
  | Unavail d -> Error (`Unavailable d)
  | Shard_unavailable s -> Error (`Shard_down s)
  | Err e -> Error (`Err e)
  | r -> unexpected what r

let ping t = match idem t Protocol.Ping with Ok -> () | r -> unexpected "PING" r

(* PUT and DEL: [Txstat_committed] is an earlier attempt's recovered
   ack; [Txstat_unknown] is a token resolution that ran out of
   retries. *)
let write_unit what ?ttl_us ~tok t req =
  match write_call ?ttl_us ~tok t req with
  | Ok | Txstat_committed _ -> Result.Ok ()
  | Txstat_unknown -> Error (`InDoubt 0)
  | r -> failed what r

let put ?ttl_us ?(tok = 0) t ~key ~value =
  write_unit "PUT" ?ttl_us ~tok t (Protocol.Put (key, value))

let del ?ttl_us ?(tok = 0) t key = write_unit "DEL" ?ttl_us ~tok t (Protocol.Del key)

let get ?ttl_us t key =
  match idem ?ttl_us t (Protocol.Get key) with
  | Val v -> Result.Ok (Some v)
  | Nil -> Result.Ok None
  | r -> failed "GET" r

let mget ?ttl_us t keys =
  match idem ?ttl_us t (Protocol.Mget keys) with
  | Vals vs -> Result.Ok vs
  | r -> failed "MGET" r

let mput ?ttl_us ?(tok = 0) t kvs =
  match write_call ?ttl_us ~tok t (Protocol.Mput kvs) with
  | Committed { txid; epoch } | Txstat_committed { txid; epoch; _ } ->
      Result.Ok (txid, epoch)
  | Txstat_unknown -> Error (`InDoubt 0)
  | In_doubt txid -> Error (`InDoubt txid)
  | r -> failed "MPUT" r

let scan ?ttl_us t ~prefix ~max =
  match idem ?ttl_us t (Protocol.Scan { prefix; max }) with
  | Kvs kvs -> Result.Ok kvs
  | r -> failed "SCAN" r

let txstat t tok =
  match idem t (Protocol.Txstat tok) with
  | Txstat_committed { txid; epoch; records } ->
      Result.Ok (`Committed (txid, epoch, records))
  | Txstat_aborted -> Result.Ok `Aborted
  | Txstat_unknown -> Result.Ok `Unknown
  | r -> failed "TXSTAT" r

(* Probes (STATS, METRICS, HEALTH) never raise on a well-formed reply of
   the wrong shape: the server legitimately answers
   OVERLOADED/UNAVAILABLE under load or mid-crash, and a probe must
   degrade to an [Error], not tear down the caller. *)
let probe_failed what (resp : Protocol.resp) =
  match resp with
  | Overloaded -> Error "overloaded"
  | Timeout -> Error "timeout"
  | Unavail d -> Error ("unavailable: " ^ d)
  | Err e -> Error e
  | r -> Error (Printf.sprintf "%s: unexpected %s response" what (shape r))

let stats t =
  match idem t Protocol.Stats with
  | Json s -> Obs.Json.parse s
  | r -> probe_failed "STATS" r

let metrics t =
  match idem t Protocol.Metrics with
  | Text s -> Result.Ok s
  | r -> probe_failed "METRICS" r

let health t =
  match idem t Protocol.Health with
  | Json s -> Obs.Json.parse s
  | r -> probe_failed "HEALTH" r

(* Single-shot admin verbs run with the deadline disarmed: CRASH
   recovery and REBUILD's journal replay legitimately outlast any
   per-request budget.  [ok] picks the verb's success answer. *)
let admin what ok t req =
  ensure t;
  match attempt ~timeout:0. t req with
  | Result.Ok (Err e) -> Error e
  | Result.Ok r -> (
      match ok r with Some v -> Result.Ok v | None -> unexpected what r)
  | Error Timed_out -> raise (Protocol_error (what ^ " timed out"))
  | Error (Conn_dead reason) -> raise (Protocol_error reason)

let acked = function Protocol.Ok -> Some () | _ -> None
let took_ms = function Protocol.Ok_ms ms -> Some ms | _ -> None

let crash t ~seed ~evict_prob ~torn_prob ~bitflips =
  admin "CRASH" took_ms t (Protocol.Crash { seed; evict_prob; torn_prob; bitflips })

let freeze t shard = admin "FREEZE" acked t (Protocol.Freeze shard)
let rebuild t shard = admin "REBUILD" took_ms t (Protocol.Rebuild shard)

let corrupt t ~shard ~seed ~count =
  admin "CORRUPT" acked t (Protocol.Corrupt { shard; seed; count })

(* Pipelined mode: up to [window] requests in flight on one connection,
   responses matched back to submissions by the RID echoed on every
   response — they may arrive out of order (the reactor front-end
   completes whichever engine call finishes first).

   The exactly-once machinery is the same as the serial client's, it
   just kicks in for a whole window at once: when the stream dies
   (timeout, unmatched RID, dead socket) the client reconnects and
   settles every unresolved submission serially — idempotent requests
   re-run via [idem]; tokened writes resolve their token FIRST
   ([resolve]: COMMITTED recovers the lost ack, ABORTED proves a
   resend safe, UNKNOWN polls); an untokened write raises, exactly as
   strict mode would.  Server shed answers (OVERLOADED/TIMEOUT) are
   delivered raw: an open-loop driver decides its own retry policy. *)
module Pipeline = struct
  type ticket = int

  type entry = {
    preq : Protocol.req;
    pttl_us : int;
    ptok : int;
    mutable result : Protocol.resp option;
  }

  type p = {
    c : t;
    win : int;
    mutable next_ticket : int;
    entries : (int, entry) Hashtbl.t;  (* ticket -> entry (until awaited) *)
    by_rid : (int, int) Hashtbl.t;  (* live rid -> ticket, this connection *)
    fifo : int Queue.t;  (* unresolved tickets, submission order *)
    mutable inflight_ : int;
  }

  let create ?(window = 8) c =
    if window < 1 then invalid_arg "Pipeline.create: window";
    {
      c;
      win = window;
      next_ticket = 0;
      entries = Hashtbl.create 64;
      by_rid = Hashtbl.create 64;
      fifo = Queue.create ();
      inflight_ = 0;
    }

  let window p = p.win
  let inflight p = p.inflight_
  let client p = p.c

  let is_idem = function
    | Protocol.Get _ | Protocol.Mget _ | Protocol.Scan _ | Protocol.Ping
    | Protocol.Stats | Protocol.Metrics | Protocol.Health | Protocol.Txstat _
      ->
        true
    | Protocol.Put _ | Protocol.Del _ | Protocol.Mput _ | Protocol.Crash _
    | Protocol.Freeze _ | Protocol.Rebuild _ | Protocol.Corrupt _ ->
        false

  let redo p e =
    if is_idem e.preq then idem ~ttl_us:e.pttl_us p.c e.preq
    else if e.ptok > 0 then
      resolve ~ttl_us:e.pttl_us ~tok:e.ptok p.c e.preq 0
    else
      raise
        (Protocol_error
           "pipelined write without a token lost its connection (outcome \
            unknowable)")

  (* The stream is gone: reconnect and settle every unresolved
     submission serially through the retry/exactly-once machinery. *)
  let recover p =
    kill p.c;
    Hashtbl.reset p.by_rid;
    reconnect p.c;
    let pend = Queue.fold (fun acc tk -> tk :: acc) [] p.fifo in
    Queue.clear p.fifo;
    List.iter
      (fun tk ->
        match Hashtbl.find_opt p.entries tk with
        | Some e when e.result = None ->
            e.result <- Some (redo p e);
            p.inflight_ <- p.inflight_ - 1
        | _ -> ())
      (List.rev pend)

  (* Absorb one response frame (whatever RID it carries), or fail over
     to [recover].  RID 0 cannot be correlated in pipelined mode, and
     an unmatched RID means the stream slipped a frame: both settle
     the window through recovery. *)
  let pump p =
    ensure p.c;
    let tmo = p.c.policy.call_timeout in
    Protocol.Io.set_deadline p.c.io
      (if tmo > 0. then Unix.gettimeofday () +. tmo else 0.);
    match Protocol.Io.read_frame p.c.io with
    | exception Protocol.Io.Read_timeout ->
        p.c.n_timeouts <- p.c.n_timeouts + 1;
        recover p
    | exception _ -> recover p
    | Error _ -> recover p
    | Result.Ok None -> recover p
    | Result.Ok (Some payload) -> (
        match Protocol.decode_resp_rid payload with
        | Error _ -> recover p
        | Result.Ok (rid, resp) -> (
            match Hashtbl.find_opt p.by_rid rid with
            | Some tk ->
                Hashtbl.remove p.by_rid rid;
                (match Hashtbl.find_opt p.entries tk with
                | Some e when e.result = None ->
                    e.result <- Some resp;
                    p.inflight_ <- p.inflight_ - 1
                | _ -> ())
            | None -> recover p))

  let submit ?(ttl_us = 0) ?(tok = 0) p req =
    while p.inflight_ >= p.win do
      pump p
    done;
    let tk = p.next_ticket in
    p.next_ticket <- tk + 1;
    let e = { preq = req; pttl_us = ttl_us; ptok = tok; result = None } in
    Hashtbl.replace p.entries tk e;
    Queue.push tk p.fifo;
    p.inflight_ <- p.inflight_ + 1;
    ensure p.c;
    let rid = p.c.next_rid in
    p.c.next_rid <- rid + 1;
    (match
       Protocol.Io.write_frame p.c.io (Protocol.encode_req ~rid ~ttl_us ~tok req)
     with
    | () -> Hashtbl.replace p.by_rid rid tk
    | exception _ -> recover p);
    tk

  let rec await p tk =
    match Hashtbl.find_opt p.entries tk with
    | None ->
        raise (Protocol_error "Pipeline.await: unknown or already-awaited ticket")
    | Some e -> (
        match e.result with
        | Some r ->
            Hashtbl.remove p.entries tk;
            r
        | None ->
            pump p;
            await p tk)

  let drain p =
    while p.inflight_ > 0 do
      pump p
    done
end
