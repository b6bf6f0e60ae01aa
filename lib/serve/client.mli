(** Resilient client for the RedoDB wire protocol: one socket, one
    outstanding request ({!Pipeline} keeps a window of them).  For
    concurrency, open one client per domain or per [Aio] fiber.

    Every wait goes through [Aio] and [Park]: the socket is
    non-blocking; a connect, read or write that would block waits with
    [Aio.wait_writable]/[Aio.wait_readable]; backoff, reconnect and
    connect-retry sleeps are [Park.sleep].  On an [Aio] fiber the loop
    keeps running its other fibers during every wait; elsewhere the
    waits block in [select] and [Unix.sleepf] as a plain blocking
    client would.

    Resilience is policy-driven, and one classification applies to
    serial calls and pipelined submissions alike.  Each attempt is
    bounded by a read deadline.  Shed answers (OVERLOADED, TIMEOUT,
    SHARD_UNAVAILABLE, UNAVAILABLE) and lost idempotent requests are
    resent after exponential backoff with jitter (5 ms base, doubling,
    200 ms cap, factor drawn from [0.75, 1.25)).  UNAVAILABLE (the
    engine is mid crash recovery, which always ends) spends no retry, so
    a resilient request rides out a crash of any length.  Tokened writes are
    EXACTLY-ONCE: an ambiguous outcome (timeout, dead connection, or an
    INDOUBT answer; the commit may have happened) is resolved through
    the server's durable outcome ledger (TXSTAT) instead of blind
    resending.  {!default_policy} disables all of it, keeping the strict
    single-attempt behaviour. *)

type t

type policy = {
  call_timeout : float;  (** per-attempt read deadline, seconds; 0. = wait forever *)
  max_retries : int;
      (** resends and TXSTAT resolutions one request may spend after its
          first attempt *)
}

(** No timeout, no retries: the strict legacy contract (every answer is
    final; transport trouble raises {!Protocol_error}). *)
val default_policy : policy

(** 1 s attempts, 12 retries.  With {!connect}'s [~retries:100
    ~retry_delay:0.02] or similar, it survives the chaos sweep's fault
    rates, a mid-load CRASH and a supervised server restart. *)
val resilient : policy

(** Client-side effort counters: [retries] (backoff loops entered),
    [timeouts] (attempts cut by the read deadline), [reconnects],
    [resolved] (writes whose lost ack was recovered via TXSTAT). *)
type tallies = { retries : int; timeouts : int; reconnects : int; resolved : int }

val tallies : t -> tallies

(** Unexpected wire behaviour (broken frame, shape mismatch, server
    closed mid-request) that the policy could not absorb.  Distinct
    from [Error] results, which are well-formed server answers. *)
exception Protocol_error of string

(** [retries] extra attempts on connection refusal (the server may still
    be binding, or restarting), [retry_delay] seconds apart — for the
    first connect and for every reconnect after a dead connection;
    [policy] governs all later calls.  The connect itself is
    non-blocking and waits with [Aio.wait_writable]. *)
val connect :
  ?retries:int ->
  ?retry_delay:float ->
  ?policy:policy ->
  host:string ->
  port:int ->
  unit ->
  t

val close : t -> unit

(** A fresh write token, unique across the clients of this process (and
    across processes via the pid).  Pass it to {!put}/{!del}/{!mput} to
    make the write exactly-once under retries; pass the SAME token when
    re-submitting after an [`InDoubt] give-up. *)
val fresh_tok : t -> int

(** One raw round-trip, no retries (reconnects if the connection is
    dead).  Honors the policy call timeout; a timeout or transport
    failure raises {!Protocol_error}.  Every request is sent with a
    fresh per-connection request id (from 1); a response echoing a
    different non-zero id raises (a zero id — a pre-RID server — is
    tolerated). *)
val call : t -> Protocol.req -> Protocol.resp

(** Request id of the most recent {!call} (0 before the first). *)
val last_rid : t -> int

(** {2 Typed wrappers} — [`Overloaded] is admission-control backpressure
    (nothing was enqueued; retry now), [`Timeout] means the request was
    shed before execution or every attempt timed out with nothing
    durable (always safe to retry), [`Unavailable] means the request
    took no durable effect (engine crashing/crashed or a definite
    cross-shard abort; retry after recovery), [`Shard_down s] means the
    one shard the request needed is quarantined or rebuilding — nothing
    durable happened and every other shard keeps serving, so the
    request is safe to retry once the shard readmits (the retry loop
    already backs off through short quarantines; this error is the
    shard staying down past the retry budget), [`InDoubt txid] means a
    write's outcome is unknown ([txid] = 0 when a tokened write's
    TXSTAT resolution exhausted its retries still UNKNOWN — re-submit
    with the same token once the server is back).  [`Err] is any other
    server-side refusal.

    All wrappers retry per the policy, so under a policy with retries
    [`Overloaded], [`Timeout], [`Unavailable] and [`Shard_down] mean the
    retry budget ran out.  [ttl_us] attaches a server-side
    deadline: the request is shed with [`Timeout] rather than served
    stale.  [tok] (writes only) makes the write exactly-once. *)

type error =
  [ `Overloaded
  | `Unavailable of string
  | `Shard_down of int
  | `InDoubt of int
  | `Timeout
  | `Err of string ]

val ping : t -> unit

val put :
  ?ttl_us:int -> ?tok:int -> t -> key:string -> value:string -> (unit, error) result

val get : ?ttl_us:int -> t -> string -> (string option, error) result
val del : ?ttl_us:int -> ?tok:int -> t -> string -> (unit, error) result
val mget : ?ttl_us:int -> t -> string list -> (string option list, error) result

(** [Ok (txid, epoch)]: the MPUT committed all-or-nothing across shards
    at commit epoch [epoch] ([txid] = 0 for a single-shard MPUT).  When
    the ack was recovered through TXSTAT the pair comes from the
    durable outcome record. *)
val mput :
  ?ttl_us:int -> ?tok:int -> t -> (string * string) list -> (int * int, error) result

val scan :
  ?ttl_us:int -> t -> prefix:string -> max:int -> ((string * string) list, error) result

(** Resolve a write token from the durable ledger, as
    {!Engine.txstat} does in process: [Tx_committed] ([records] > 1
    proves a duplicated commit), [Tx_aborted] (resend safe) or
    [Tx_unknown] (in flight; poll). *)
val txstat : t -> int -> (Ledger.tx_status, error) result

(** Parsed STATS document.  Never raises on a well-formed reply: an
    off-shape answer (e.g. [OVERLOADED] under load) is an [Error]. *)
val stats : t -> (Obs.Json.t, string) result

(** Prometheus text exposition of the server's metrics registry plus
    live engine gauges (the METRICS wire request).  Same error contract
    as {!stats}. *)
val metrics : t -> (string, string) result

(** Simulated power failure + recovery; [Ok] carries the outage in
    milliseconds, [Error] means the engine stayed down (unrecoverable).
    Runs with the read deadline disarmed — recovery legitimately
    outlasts any per-request budget. *)
val crash :
  t ->
  seed:int ->
  evict_prob:float ->
  torn_prob:float ->
  bitflips:int ->
  (float, string) result

(** Parsed HEALTH document: per-shard health states, reasons and scrub
    progress plus the [serve.health.*] counter totals.  Same error
    contract as {!stats}. *)
val health : t -> (Obs.Json.t, string) result

(** Quarantine one shard by hand (the FREEZE admin verb): its requests
    answer [`Shard_down] until {!rebuild} readmits it. *)
val freeze : t -> int -> (unit, string) result

(** Rebuild a quarantined shard online from its snapshot export plus
    commit-journal replay; [Ok] carries the rebuild milliseconds.
    Runs with the read deadline disarmed, like {!crash}. *)
val rebuild : t -> int -> (float, string) result

(** Inject [count] seeded silent bit flips into one shard's durable PTM
    metadata (torture hook): invisible to live reads, caught by the
    online scrubber. *)
val corrupt : t -> shard:int -> seed:int -> count:int -> (unit, string) result

(** Pipelined mode: up to [window] requests in flight on one
    connection, responses matched back to submissions by the RID
    echoed on every response (they may complete out of order under the
    reactor front-end).  Every submission follows the same policy as a
    serial call: a shed answer (OVERLOADED, TIMEOUT, SHARD_UNAVAILABLE,
    UNAVAILABLE) is resent under the same ticket with a fresh RID once
    its backoff ends; a tokened write answered INDOUBT resolves its
    token with TXSTAT on the pipeline.  A submission waiting out its
    backoff does not hold up the rest of the window: the pipeline keeps
    reading responses and resends each waiting submission when it is
    due.  When the stream dies — timeout, dead socket, unmatched RID —
    every submission that was on it gets the failure: idempotent
    requests go again; a tokened write resolves its token FIRST
    (COMMITTED recovers the lost ack, ABORTED proves a resend safe); an
    untokened write raises, as strict mode would.  Each goes again after
    its own backoff, on a connection reopened at the first resend.
    Under {!default_policy} every answer is final: shed answers are
    delivered raw, and a lost stream fails what it held ([TIMEOUT] after
    a timeout, {!Protocol_error} otherwise). *)
module Pipeline : sig
  type p

  (** Handle for one in-flight submission. *)
  type ticket

  (** [create ?window c] wraps connected client [c] (whose policy
      drives timeouts, retries and reconnects).  Default window 8. *)
  val create : ?window:int -> t -> p

  val window : p -> int

  (** Submissions not yet resolved (a full window blocks {!submit}). *)
  val inflight : p -> int

  val client : p -> t

  (** Send one request without waiting.  Blocks only while the window
      is full, pumping responses (and resending any submission whose
      backoff has ended) until a slot opens. *)
  val submit : ?ttl_us:int -> ?tok:int -> p -> Protocol.req -> ticket

  (** Block until [ticket]'s response arrives (absorbing other
      responses along the way).  Each ticket may be awaited once. *)
  val await : p -> ticket -> Protocol.resp

  (** Resolve everything outstanding (awaits still pick up results). *)
  val drain : p -> unit
end
