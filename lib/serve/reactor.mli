(** Event-driven serving front-end: N reactor domains, each running an
    {!Aio} edge-triggered epoll loop, multiplex every connection as
    cooperative fibers — no parked OS thread per connection.

    An accept domain distributes connections round-robin across the
    reactors.  Each connection gets a read fiber that decodes frames
    incrementally ({!Protocol.Io.Decoder}) into the reactor's ingress
    queue; a small pool of worker fibers (each owning a dedicated
    engine tid) drains that queue through {!Dispatch} and appends
    framed responses — tagged with the request's
    RID, the pipelining correlator — to the connection's outgoing
    buffer, flushed by an on-demand writer fiber.  Responses complete
    out of order across a connection's inflight window; the client
    matches them back by RID.

    Backpressure, outermost first: the global [max_conns] cap rejects
    the accept with [Overloaded]; a full ingress queue answers
    [Overloaded] without executing; a connection at [max_inflight]
    parks its read fiber (TCP backpressure) until a response retires.

    Degradation under pressure, in order: TTL-expired requests are shed
    with the retryable [Timeout] (queued writes by the batcher, reads at
    execution), then scans, then multi-gets (per-class thresholds on
    {!Engine.overload_hint}); point ops and writes keep flowing until
    admission control pushes back with [Overloaded].  Malformed
    requests answer [Err] without killing the connection; a broken
    frame answers [Err] and closes only that connection. *)

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port; read it back with {!port} *)
  reactors : int;  (** event-loop domains *)
  workers_per_reactor : int;
      (** worker fibers (engine tids) per reactor; total engine
          concurrency is [reactors * workers_per_reactor] *)
  max_conns : int;  (** global open-connection cap; excess accepts answer [Overloaded] *)
  max_inflight : int;
      (** per-connection pipelining window; beyond it the read fiber
          parks, exerting TCP backpressure *)
  ingress_cap : int;
      (** per-reactor ingress-queue bound; a frame arriving past it
          answers [Overloaded] without executing *)
  engine : Engine.config;
      (** its [num_threads] is ignored: {!start} sizes the engine at
          [reactors * workers_per_reactor + 1] tids (+1 more with a
          scrubber) — one per worker fiber, tid 0 for in-process callers *)
  chaos : Chaos.source option;
      (** inject seeded network faults into every connection (tests and
          the chaos sweep only) *)
  scrub_pause_us : float option;
      (** [Some p]: run the online {!Scrub} scrubber on a dedicated
          domain with engine tid [reactors * workers_per_reactor + 1],
          pausing [p] µs between per-shard verifications.  [None]: no
          scrubber. *)
  block_in_reactor : bool;
      (** mutant knob (CI only): workers issue a blocking 20 ms sleep
          on the event loop before each request, wrecking fairness —
          the pipelined SLO gate must catch this *)
}

(** 127.0.0.1, ephemeral port, 2 reactors x 2 workers, 1024
    connections, 64 inflight, 4096 ingress, {!Engine.default_config}
    (tids sized by {!start}), no chaos, no scrubber, no mutant. *)
val default_config : config

type t

(** Creates the engine, binds, spawns the reactor domains and the
    accept domain, and returns once accepting. *)
val start : config -> t

val port : t -> int
val engine : t -> Engine.t
val scrubber : t -> Scrub.t option

(** Live connection count across all reactors. *)
val live_conns : t -> int

(** Rejected-accept count (global [max_conns] cap). *)
val rejected_conns : t -> int

(** Abrupt, idempotent shutdown: close the listener and every
    connection, stop the loops, join all domains.  A request
    mid-execution loses its ack (the write may still be durable); use
    {!drain} for the graceful variant. *)
val stop : t -> unit

(** Graceful drain: stop accepting, shut the receive side of every
    connection; in-flight requests finish executing and their acks
    flush before the loops wind down.  Every acked write is durable, so
    a restart after [drain] loses nothing.  Idempotent with {!stop}
    (first of the two wins). *)
val drain : t -> unit
