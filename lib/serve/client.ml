(* Resilient client for the RedoDB wire protocol: one socket, one
   outstanding request (or a window of them, [Pipeline]).  Concurrency
   comes from opening more clients, one per domain or per Aio fiber.

   Every wait goes through [Aio] and [Park]: the socket is non-blocking,
   a connect, read or write that would block waits with
   [Aio.wait_writable]/[Aio.wait_readable], and backoff sleeps are
   [Park.sleep].  On an Aio fiber the loop keeps serving its other
   fibers meanwhile; anywhere else the same calls block in [select] or
   [Unix.sleepf].

   Resilience is policy-driven and off by default (default_policy keeps
   the original strict single-attempt behaviour).  One function, [next],
   decides what happens after every answer or transport failure, for
   serial calls and pipelined submissions alike:

   - every attempt is bounded by [call_timeout] (a read deadline armed
     on the connection; the stream is unrecoverable past a timeout so
     the socket is closed and lazily reconnected with the [retries] and
     [retry_delay] the client was connected with);
   - shed answers (OVERLOADED, TIMEOUT, SHARD_UNAVAILABLE, UNAVAILABLE:
     nothing durable happened) and lost idempotent requests are resent
     after exponential backoff with jitter; UNAVAILABLE (the engine is
     mid crash recovery, which always ends) spends no retry;
   - writes are exactly-once: a tokened PUT/DEL/MPUT whose attempt ends
     ambiguously (timeout, dead/corrupt connection, INDOUBT — the
     commit may have happened) is never blindly resent.  The client
     first resolves the token with TXSTAT: COMMITTED means the earlier
     attempt won (done — its ack is recovered from the ledger), ABORTED
     means nothing durable happened (resend is safe), UNKNOWN means the
     attempt is still in flight server-side (poll again).  An untokened
     write keeps the strict behaviour: ambiguous failures raise;
   - one count per request bounds resends and resolutions together;
     past [max_retries] the last answer is final.

   The client never queries a token while also submitting it — the
   precondition for the server's presumed-abort TXSTAT answer. *)

type policy = { call_timeout : float; max_retries : int }

let default_policy = { call_timeout = 0.; max_retries = 0 }
let resilient = { call_timeout = 1.; max_retries = 12 }

(* Backoff before the k-th resend: [base_delay * 2^k] capped at
   [max_delay], times a jitter factor drawn from [1 - jitter/2,
   1 + jitter/2). *)
let base_delay = 0.005
let max_delay = 0.2
let jitter = 0.5

type tallies = { retries : int; timeouts : int; reconnects : int; resolved : int }

type t = {
  host : string;
  port : int;
  policy : policy;
  retries : int;  (* connect attempts after the first, reconnects too *)
  retry_delay : float;
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

(* A non-blocking connect: the handshake is waited out with
   [Aio.wait_writable], so a fiber's connect does not stall its loop. *)
let open_fd ~host ~port ~retries ~retry_delay =
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  let rec go attempt =
    let fd = Unix.socket PF_INET SOCK_STREAM 0 in
    match
      Unix.set_nonblock fd;
      (try Unix.connect fd addr
       with Unix.Unix_error (EINPROGRESS, _, _) -> (
         ignore (Aio.wait_writable fd);
         match Unix.getsockopt_error fd with
         | None -> ()
         | Some err -> raise (Unix.Unix_error (err, "connect", ""))));
      Unix.setsockopt fd TCP_NODELAY true
    with
    | () -> fd
    | exception Unix.Unix_error ((ECONNREFUSED | ENETUNREACH | ETIMEDOUT), _, _)
      when attempt < retries ->
        Aio.close fd;
        Park.sleep retry_delay;
        go (attempt + 1)
    | exception e ->
        Aio.close fd;
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
    retries;
    retry_delay;
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
    Aio.close t.fd;
    t.alive <- false
  end

let close t = kill t

let reconnect t =
  match
    open_fd ~host:t.host ~port:t.port ~retries:t.retries
      ~retry_delay:t.retry_delay
  with
  | fd ->
      t.fd <- fd;
      t.io <- Protocol.Io.of_fd fd;
      t.alive <- true;
      t.next_rid <- 1;
      t.n_reconnects <- t.n_reconnects + 1
  | exception e ->
      raise (Protocol_error ("reconnect failed: " ^ Printexc.to_string e))

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

let deadline_in tmo = if tmo > 0. then Unix.gettimeofday () +. tmo else 0.

let arm_deadline ?timeout t =
  Protocol.Io.set_deadline t.io
    (deadline_in (Option.value timeout ~default:t.policy.call_timeout))

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
      arm_deadline ?timeout t;
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


let last_rid t = t.next_rid - 1

let idempotent = function
  | Protocol.Get _ | Protocol.Mget _ | Protocol.Scan _ | Protocol.Ping
  | Protocol.Stats | Protocol.Metrics | Protocol.Health | Protocol.Txstat _ ->
      true
  | Protocol.Put _ | Protocol.Del _ | Protocol.Mput _ | Protocol.Crash _
  | Protocol.Freeze _ | Protocol.Rebuild _ | Protocol.Corrupt _ ->
      false

(* One request on its way through the policy.  [k] counts the resends
   and resolutions spent, [waits] the backoffs drawn (the exponent of
   the next one); while [resolving], the wire carries TXSTAT for [tok]
   in place of the write. *)
type job = {
  req : Protocol.req;
  ttl_us : int;
  tok : int;
  mutable k : int;
  mutable waits : int;
  mutable resolving : bool;
}

let job ?(ttl_us = 0) ?(tok = 0) req =
  { req; ttl_us; tok; k = 0; waits = 0; resolving = false }

(* The jittered backoff before [j]'s next resend; counted as a retry. *)
let backoff t j =
  t.n_retries <- t.n_retries + 1;
  let d = Float.min max_delay (base_delay *. (2. ** float_of_int j.waits)) in
  j.waits <- j.waits + 1;
  d *. (1. -. (jitter /. 2.) +. Random.State.float t.rng jitter)

(* The job's current wire request: (request, ttl_us, token). *)
let wire j = if j.resolving then (Protocol.Txstat j.tok, 0, 0) else (j.req, j.ttl_us, j.tok)

(* The retry policy, in one place.  After an attempt of [j] ended in
   [r], the answer is final ([`Done]), the transport failure is final
   ([`Fail]), or [j] goes again after waiting [d] seconds ([`Again d]),
   moved by this function to its next phase:
   - retry after backoff: OVERLOADED, TIMEOUT, SHARD_UNAVAILABLE and
     UNAVAILABLE (nothing durable happened), a lost idempotent request,
     and, while resolving, a TXSTAT that is UNKNOWN or lost.  UNAVAILABLE
     spends no retry: the engine is mid crash recovery, which ends, and
     a crash outage can outlast the whole budget's backoff;
   - resolve through TXSTAT: a tokened write that timed out, lost its
     connection or was answered INDOUBT; COMMITTED then recovers its
     ack, ABORTED sends it again (after backoff, without spending a
     retry);
   - final: everything else, and any of the above past [max_retries]. *)
let next t j (r : (Protocol.resp, attempt_error) result) =
  let budget = j.k < t.policy.max_retries in
  let retry () =
    j.k <- j.k + 1;
    `Again (backoff t j)
  and resolve () =
    j.k <- j.k + 1;
    j.resolving <- true;
    `Again 0.
  in
  match r with
  | Result.Ok (Protocol.Txstat_committed _ as resp) when j.resolving ->
      t.n_resolved <- t.n_resolved + 1;
      `Done resp
  | Result.Ok Protocol.Txstat_aborted when j.resolving ->
      j.resolving <- false;
      `Again (backoff t j)
  | Result.Ok (Protocol.Unavail _) when t.policy.max_retries > 0 -> `Again (backoff t j)
  | Result.Ok
      (( Protocol.Overloaded | Protocol.Timeout | Protocol.Shard_unavailable _
       | Protocol.Unavail _ ) as resp) ->
      if budget then retry ()
      else `Done (if j.resolving then Protocol.Txstat_unknown else resp)
  | Result.Ok Protocol.Txstat_unknown when j.resolving ->
      if budget then retry () else `Done Protocol.Txstat_unknown
  | Result.Ok (Protocol.In_doubt _) when j.tok > 0 && budget -> resolve ()
  | Result.Ok resp -> `Done resp
  | Error _ when budget && (j.resolving || idempotent j.req) -> retry ()
  | Error _ when budget && j.tok > 0 -> resolve ()
  | Error Timed_out ->
      `Done (if j.resolving then Protocol.Txstat_unknown else Protocol.Timeout)
  | Error (Conn_dead reason) ->
      `Fail (if j.resolving then "write resolution failed: " ^ reason else reason)

let pause d = if d > 0. then Park.sleep d

(* A serial request under the policy. *)
let exec ?ttl_us ?tok t req =
  let j = job ?ttl_us ?tok req in
  let rec go () =
    ensure t;
    let req, ttl_us, tok = wire j in
    match next t j (attempt t ~ttl_us ~tok req) with
    | `Done resp -> resp
    | `Fail reason -> raise (Protocol_error reason)
    | `Again d ->
        pause d;
        go ()
  in
  go ()

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

let ping t = match exec t Protocol.Ping with Ok -> () | r -> unexpected "PING" r

(* PUT and DEL: [Txstat_committed] is an earlier attempt's recovered
   ack; [Txstat_unknown] is a token resolution that ran out of
   retries. *)
let write_unit what ?ttl_us ~tok t req =
  match exec ?ttl_us ~tok t req with
  | Ok | Txstat_committed _ -> Result.Ok ()
  | Txstat_unknown -> Error (`InDoubt 0)
  | r -> failed what r

let put ?ttl_us ?(tok = 0) t ~key ~value =
  write_unit "PUT" ?ttl_us ~tok t (Protocol.Put (key, value))

let del ?ttl_us ?(tok = 0) t key = write_unit "DEL" ?ttl_us ~tok t (Protocol.Del key)

let get ?ttl_us t key =
  match exec ?ttl_us t (Protocol.Get key) with
  | Val v -> Result.Ok (Some v)
  | Nil -> Result.Ok None
  | r -> failed "GET" r

let mget ?ttl_us t keys =
  match exec ?ttl_us t (Protocol.Mget keys) with
  | Vals vs -> Result.Ok vs
  | r -> failed "MGET" r

let mput ?ttl_us ?(tok = 0) t kvs =
  match exec ?ttl_us ~tok t (Protocol.Mput kvs) with
  | Committed { txid; epoch } | Txstat_committed { txid; epoch; _ } ->
      Result.Ok (txid, epoch)
  | Txstat_unknown -> Error (`InDoubt 0)
  | In_doubt txid -> Error (`InDoubt txid)
  | r -> failed "MPUT" r

let scan ?ttl_us t ~prefix ~max =
  match exec ?ttl_us t (Protocol.Scan { prefix; max }) with
  | Kvs kvs -> Result.Ok kvs
  | r -> failed "SCAN" r

let txstat t tok =
  match exec t (Protocol.Txstat tok) with
  | Txstat_committed { txid; epoch; records } ->
      Result.Ok (Ledger.Tx_committed { txid; epoch; records })
  | Txstat_aborted -> Result.Ok Ledger.Tx_aborted
  | Txstat_unknown -> Result.Ok Ledger.Tx_unknown
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
  match exec t Protocol.Stats with
  | Json s -> Obs.Json.parse s
  | r -> probe_failed "STATS" r

let metrics t =
  match exec t Protocol.Metrics with
  | Text s -> Result.Ok s
  | r -> probe_failed "METRICS" r

let health t =
  match exec t Protocol.Health with
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

   Each submission is a [job] under the same [next] as a serial call.
   A job that must go again (a shed answer, an INDOUBT tokened write
   resolving its token) joins the [backlog] with the time its backoff
   ends, under the same ticket; the pipeline keeps reading the rest of
   the window meanwhile and resends each backlogged job, with a fresh
   RID, once it is due.  When the stream dies (timeout, unmatched RID,
   dead socket) every submission that was on the wire gets the failure:
   idempotent requests go again, tokened writes resolve their token
   FIRST, and an untokened write raises, exactly as strict mode would.
   Backlogged jobs were never on the dead stream and are resent as they
   stand; the connection is reopened at the first resend.  With
   [default_policy] every answer is final, so shed answers are
   delivered raw. *)
module Pipeline = struct
  type ticket = int
  type entry = { j : job; mutable result : Protocol.resp option }

  type p = {
    c : t;
    win : int;
    mutable next_ticket : int;
    entries : (int, entry) Hashtbl.t;  (* ticket -> entry (until awaited) *)
    by_rid : (int, int) Hashtbl.t;  (* live rid -> ticket, this connection *)
    mutable backlog : (float * int * entry) list;  (* (due, ticket, job) to resend *)
    mutable inflight_ : int;
  }

  (* The stream is gone; carries why, for every job it held. *)
  exception Lost of attempt_error

  let create ?(window = 8) c =
    if window < 1 then invalid_arg "Pipeline.create: window";
    {
      c;
      win = window;
      next_ticket = 0;
      entries = Hashtbl.create 64;
      by_rid = Hashtbl.create 64;
      backlog = [];
      inflight_ = 0;
    }

  let window p = p.win
  let inflight p = p.inflight_
  let client p = p.c

  (* Put [e]'s current wire request on the connection under a fresh RID,
     reopening the connection first if it is down. *)
  let transmit p tk e =
    ensure p.c;
    let req, ttl_us, tok = wire e.j in
    let rid = p.c.next_rid in
    p.c.next_rid <- rid + 1;
    match Protocol.Io.write_frame p.c.io (Protocol.encode_req ~rid ~ttl_us ~tok req) with
    | () -> Hashtbl.replace p.by_rid rid tk
    | exception x -> raise (Lost (Conn_dead ("send failed: " ^ Printexc.to_string x)))

  (* [e]'s next move after [r]: settle it, or backlog it until its
     backoff ends. *)
  let step p tk e r =
    match next p.c e.j r with
    | `Done resp ->
        e.result <- Some resp;
        p.inflight_ <- p.inflight_ - 1
    | `Fail reason -> raise (Protocol_error reason)
    | `Again d -> p.backlog <- (Unix.gettimeofday () +. d, tk, e) :: p.backlog

  let due_first p = List.fold_left (fun m (due, _, _) -> Float.min m due) infinity p.backlog

  (* The stream is gone: hand every submission that was on it, oldest
     first, the failure that lost it. *)
  let recover p why =
    kill p.c;
    Hashtbl.reset p.by_rid;
    let waiting = List.map (fun (_, tk, _) -> tk) p.backlog in
    Hashtbl.fold
      (fun tk e acc -> if e.result = None && not (List.mem tk waiting) then (tk, e) :: acc else acc)
      p.entries []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.iter (fun (tk, e) -> step p tk e (Error why))

  (* Resend every backlogged job that is due, oldest first.  A job
     leaves the backlog once it is on the wire. *)
  let resend_due p =
    let now = Unix.gettimeofday () in
    try
      List.filter (fun (due, _, _) -> due <= now) p.backlog
      |> List.sort (fun (_, a, _) (_, b, _) -> compare a b)
      |> List.iter (fun ((_, tk, e) as b) ->
             transmit p tk e;
             p.backlog <- List.filter (fun x -> x != b) p.backlog)
    with Lost why -> recover p why

  (* Make progress on the window: resend what is due, else absorb one
     response frame (whatever RID it carries), waiting no later than the
     first backlogged job's due time.  With nothing on the wire it just
     sleeps until that time.  RID 0 cannot be correlated in pipelined
     mode, and an unmatched RID means the stream slipped a frame: both
     fail the stream over to [recover]. *)
  let pump p =
    let dead reason = recover p (Conn_dead reason) in
    let wake = due_first p in
    if wake <= Unix.gettimeofday () then resend_due p
    else if Hashtbl.length p.by_rid = 0 && p.backlog <> [] then begin
      pause (wake -. Unix.gettimeofday ());
      resend_due p
    end
    else if not p.c.alive then dead "connection closed"
    else begin
      let limit = deadline_in p.c.policy.call_timeout in
      Protocol.Io.set_deadline p.c.io
        (if wake = infinity then limit else if limit = 0. then wake else Float.min limit wake);
      match Protocol.Io.read_frame p.c.io with
      | exception Protocol.Io.Read_timeout when limit = 0. || Unix.gettimeofday () < limit ->
          resend_due p
      | exception Protocol.Io.Read_timeout ->
          p.c.n_timeouts <- p.c.n_timeouts + 1;
          recover p Timed_out
      | exception x -> dead ("receive failed: " ^ Printexc.to_string x)
      | Error reason -> dead ("bad frame: " ^ reason)
      | Result.Ok None -> dead "connection closed by server"
      | Result.Ok (Some payload) -> (
          match Protocol.decode_resp_rid payload with
          | Error reason -> dead ("bad response: " ^ reason)
          | Result.Ok (rid, resp) -> (
              match Hashtbl.find_opt p.by_rid rid with
              | Some tk -> (
                  Hashtbl.remove p.by_rid rid;
                  match Hashtbl.find_opt p.entries tk with
                  | Some e when e.result = None -> step p tk e (Result.Ok resp)
                  | _ -> ())
              | None -> dead (Printf.sprintf "response RID %d matches no request" rid)))
    end

  let submit ?ttl_us ?tok p req =
    while p.inflight_ >= p.win do
      pump p
    done;
    if (not p.c.alive) && Hashtbl.length p.by_rid > 0 then
      recover p (Conn_dead "connection closed");
    let tk = p.next_ticket in
    p.next_ticket <- tk + 1;
    let e = { j = job ?ttl_us ?tok req; result = None } in
    Hashtbl.replace p.entries tk e;
    p.inflight_ <- p.inflight_ + 1;
    (try transmit p tk e with Lost why -> recover p why);
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
