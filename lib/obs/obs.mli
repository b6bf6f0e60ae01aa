(** Unified observability: JSON values, a metrics registry (per-thread
    counters + log-bucketed latency histograms), and an event-trace
    layer exporting Chrome trace-event JSON.

    Both the metrics and the trace layer sit behind global enables;
    when disabled, every recording entry point is a single branch on a
    [bool ref] — safe to leave in the hottest paths. *)

val max_tids : int
(** Per-thread state is kept for thread ids [0 .. max_tids-1]; larger
    tids are folded in with [land (max_tids - 1)]. *)

(** Minimal JSON: printer and parser, so benches can emit
    machine-readable results without external dependencies. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  val to_channel : out_channel -> t -> unit

  val member : string -> t -> t option
  (** [member k (Obj kvs)] is the value bound to [k], if any. *)

  val parse : string -> (t, string) result
  (** Strict parser: the whole input must be one JSON value. *)

  val parse_file : string -> (t, string) result
end

module Metrics : sig
  val enable : bool -> unit
  val is_on : unit -> bool

  (** {2 Counters} — per-thread cells (padded against false sharing),
      summed on read. [incr]/[add] are no-ops unless [enable true]. *)

  type counter

  val counter : string -> counter
  (** Registered, idempotent: the same name returns the same counter. *)

  val incr : counter -> tid:int -> unit
  val add : counter -> tid:int -> int -> unit
  val counter_value : counter -> int
  val counter_per_thread : counter -> int array
  val counter_name : counter -> string
  val reset_counter : counter -> unit

  (** {2 Histograms} — log-bucketed (16 linear sub-buckets per power of
      two, ~3% worst-case quantization). Values are non-negative
      integers, nanoseconds by convention. Recording is NOT gated on
      the global enable: the owner decides when to measure. *)

  type histogram

  val histogram : string -> histogram
  (** Registered, idempotent. *)

  val make_histogram : ?name:string -> unit -> histogram
  (** Unregistered histogram for a caller's private use. *)

  val record_ns : histogram -> tid:int -> int -> unit

  val record_span_s : histogram -> tid:int -> float -> unit
  (** Record a duration given in seconds. *)

  type hsnap = {
    count : int;
    mean_ns : float;
    max_ns : int;
    p50 : int;
    p90 : int;
    p99 : int;
    p999 : int;
  }

  val hsnap_zero : hsnap
  val hsnapshot : histogram -> hsnap
  val hsnap_json : hsnap -> Json.t
  val histogram_name : histogram -> string
  val reset_histogram : histogram -> unit

  (** {2 Registry} *)

  val all_counters : unit -> counter list
  val all_histograms : unit -> histogram list
  val reset_all : unit -> unit

  val to_json : unit -> Json.t
  (** [{"counters": {...}, "histograms": {...}}]; counters include
      per-thread values, histograms their percentile snapshots. *)

  val dump : Format.formatter -> unit
  (** Human-readable listing of all non-zero instruments. *)
end

module Window : sig
  (** Sliding-window histograms: [epochs] rotating epoch slots of
      [epoch_s] seconds each, merged on read — so "p99 over the last
      10 s" is cheap, and the record path is allocation-free (bucket
      increments into preallocated slots).  Recording is NOT gated on
      [Metrics.enable]: windows are the live telemetry plane a running
      server exposes through STATS/METRICS.  Concurrent recorders may
      lose individual increments (plain int cells, no locking) — fine
      for telemetry percentiles, not for exact accounting. *)

  type t

  val create : ?epochs:int -> ?epoch_s:float -> string -> t
  (** Registered, idempotent by name: the same name returns the same
      window (the [epochs]/[epoch_s] of the first creation win).
      Defaults: 10 epochs of 1 s — a ~10 s sliding window. *)

  val name : t -> string

  val window_s : t -> float
  (** Total window span, [epochs * epoch_s] seconds. *)

  val record_ns : t -> ?now:float -> int -> unit
  (** Record a non-negative value (nanoseconds by convention) at time
      [now] (seconds; defaults to [Unix.gettimeofday ()]).  Epochs the
      value's timestamp has moved past are recycled in place.  [now] is
      exposed so tests (and the deterministic scheduler) can drive
      rotation explicitly. *)

  val record_span_s : t -> ?now:float -> float -> unit
  (** Record a duration given in seconds. *)

  val snapshot : ?now:float -> t -> Metrics.hsnap
  (** Merge the live epochs (values recorded within the last
      [window_s] seconds as of [now]) into one percentile snapshot. *)

  val reset : t -> unit

  val all : unit -> t list
  val find : string -> t option

  val to_json : ?now:float -> unit -> Json.t
  (** [{"<name>": {"window_s": ..., "count": ..., "p99_ns": ...}, ...}]
      for every registered window — the "windows" member of the serving
      STATS document. *)
end

module Trace : sig
  (** Typed events recorded into fixed-size per-thread ring buffers;
      when a ring wraps, the oldest events are overwritten. *)

  type kind =
    | Tx  (** update transaction (span) *)
    | Tx_abort  (** aborted/retried transaction (instant) *)
    | Combine  (** combining round executing announced ops (span) *)
    | Helping  (** executed another thread's operation (instant) *)
    | Copy  (** replica copy (span, via Breakdown) *)
    | Apply  (** log/queue replay onto a replica (span) *)
    | Flush  (** pwb+fence batch of a replica or log (span) *)
    | Lambda  (** user transaction body (span) *)
    | Sleep  (** backoff/waiting (span) *)
    | Fence  (** pfence/psync; arg = staged lines drained (instant) *)
    | Rwlock_acquire  (** exclusive lock acquired (instant) *)
    | Rwlock_contend  (** lock attempt failed (instant) *)
    | Recovery  (** post-crash recovery (span) *)
    | Checkpoint  (** ONLL checkpoint (span) *)
    | Crash  (** simulated crash / injected crash point (instant) *)
    | Db_op  (** RedoDB API call (span) *)
    | Serve_op  (** serving-engine request (span; arg = opcode) *)
    | Batch  (** group-commit batch transaction (span; arg = batch size) *)
    | Commit  (** cross-shard two-phase commit (span; arg = txid) *)
    | Ingress  (** wire-frame parse of one request (span) *)
    | Queue_wait  (** request sat in a batcher queue awaiting drain (span) *)
    | Linger  (** leader's batch-fill window (span; arg = batch size) *)
    | Drain  (** leader drained the queue into a batch (span; arg = size) *)
    | Prepare  (** 2PC prepare on one shard (span; arg = shard) *)
    | Decide
        (** 2PC decision commit on the coordinator, carrying its own slice
            (span; arg = shard) *)
    | Ack  (** response frame write (span) *)

  val kind_name : kind -> string

  val enable : ?capacity:int -> unit -> unit
  (** Clear all rings and start recording. [capacity] is per-thread
      (default 16384 events). *)

  val disable : unit -> unit
  val is_on : unit -> bool
  val clear : unit -> unit

  val instant : ?arg:int -> ?rid:int -> kind -> tid:int -> unit
  (** [rid] is the request id of the wire request this event belongs to
      (0 = none).  Every event of one request carries the same [rid], so
      a request's span tree can be followed across threads and layers in
      the exported trace (the ["rid"] member of each event's args). *)

  val complete : ?arg:int -> ?rid:int -> kind -> tid:int -> t0:float -> unit
  (** Record a span that started at [t0] (Unix.gettimeofday, seconds)
      and ends now. *)

  val span : ?arg:int -> ?rid:int -> kind -> tid:int -> (unit -> 'a) -> 'a
  (** Run a closure as a span. When tracing is off this is just the
      call. The span is recorded even if the closure raises. *)

  val recorded : unit -> int
  (** Total events recorded since [enable] (including overwritten). *)

  val dropped : unit -> int
  (** Events lost to ring wraparound. *)

  val export : unit -> Json.t
  (** Chrome trace-event JSON: ["X"] (complete) and ["i"] (instant)
      events with µs timestamps relative to [enable]; load the file in
      Perfetto (ui.perfetto.dev) or chrome://tracing. *)

  val write_file : string -> unit
end

val is_active : unit -> bool
(** True if either metrics or tracing is enabled. *)

val prometheus : ?extra:(string * float) list -> unit -> string
(** Prometheus text exposition (version 0.0.4) of the whole registry:
    every counter as a [counter], every non-empty histogram and every
    window as a [summary] (quantile samples plus [_count]/[_sum];
    windows additionally carry a [{window="<seconds>"}] label on their
    quantile samples).  Registry names are sanitized to the Prometheus
    grammar ([.] and other invalid characters become [_]).  [extra]
    appends caller gauges; their names are emitted verbatim and may
    embed a [{label="value"}] suffix. *)

(** {2 Cross-PTM instrumentation helpers} — each is a branch-only
    no-op when the relevant layer is disabled. *)

val tx_committed : tid:int -> t0:float -> unit
(** Count a committed update transaction that began at [t0]
    (Unix.gettimeofday, seconds): commit counter + latency histogram +
    [Tx] trace span. *)

val tx_aborted : tid:int -> unit
val helped : tid:int -> unit
val replica_copied : tid:int -> unit
val rwlock_acquired : tid:int -> unit
val rwlock_contended : tid:int -> unit
val backoff_yielded : tid:int -> unit

val rwlock_drain_aborted : tid:int -> unit
(** A writer gave up draining in-flight readers within the configured
    budget and backed its writer word off ([sync.rwlock.drain_aborted]). *)

val progress_op_completed :
  tid:int -> helped:bool -> stalled_announcer:bool -> gap_steps:int -> unit
(** Scheduler-harness progress record for one completed operation:
    [helped] counts executions by a thread other than the announcer
    ([ptm.progress.helped_completion]); [stalled_announcer] counts
    operations finished while their announcer was stalled or killed
    ([ptm.progress.stalled_op_completed]); [gap_steps] (ignored when
    negative) feeds the announce-to-completion scheduler-step histogram
    ([ptm.progress.announce_to_done_steps] — "ns" fields are steps
    there). *)

(** {2 Media-fault and hardened-recovery instruments} — counted on tid 0,
    since fault injection and recovery run on a quiesced region. *)

val torn_line_persisted : unit -> unit
(** A dirty line was persisted only partially ([pmem.fault.torn_line]). *)

val bit_flip_injected : unit -> unit
(** A durable word had one bit flipped ([pmem.fault.bit_flip]). *)

val recovery_fell_back : unit -> unit
(** Recovery abandoned corrupt primary metadata for a validated fallback
    replica ([ptm.recovery.fallback]). *)

val recovery_truncated_log : unit -> unit
(** Recovery rolled a log back to its last intact entry
    ([ptm.recovery.log_truncated]). *)

val recovery_unrecoverable : unit -> unit
(** Recovery found no consistent durable image and raised
    ([ptm.recovery.unrecoverable]). *)
