(** Sharded RedoDB serving engine: the keyspace is hash-partitioned
    (FNV-1a) over [shards] independent RedoDB instances, each backed by
    its own RedoOpt-PTM region.  Single-shard ops route directly;
    multi-shard ops visit shards in index order — never holding one
    shard while waiting on a lower-numbered one — so the engine is
    deadlock-free by construction.  With [batch = true], each shard's
    writes flow through a {!Batcher} group-commit stage.

    Contract: an [Ok] write is durable and visible (its PTM transaction
    committed before the ack).  A cross-shard [multi_put] is
    ALL-OR-NOTHING across shards: it runs {!Commit}'s two-phase commit
    over the per-shard PTM transactions, and its ack carries the
    transaction's commit epoch.  [multi_get]/[scan] are epoch-validated
    snapshot reads that help pending commits to completion and therefore
    never observe a half-applied [multi_put].  The exactly-once outcome
    ledger is {!Ledger}; per-shard fault isolation is {!Health}. *)

type config = {
  shards : int;
  num_threads : int;  (** accepted tids are [0 .. num_threads - 1] *)
  capacity_bytes : int;  (** total user-data budget, split across shards *)
  batch : bool;  (** route writes through the group-commit stage *)
  max_batch : int;  (** group-commit batch size cap *)
  linger_us : float;
      (** flush deadline of a non-full batch, on {!Park.now_us}'s clock
          (scheduler steps under {!Sched}) *)
  queue_cap : int;  (** per-shard admission bound *)
  backing_dir : string option;
      (** when set, each shard's durable image is a [MAP_SHARED] region
          file [<dir>/shard-<i>.region]: acked writes survive a [kill
          -9] of this process, and a fresh engine over the same
          directory reopens the files and runs recovery (including
          commit recovery) instead of formatting *)
  isolate : bool;
      (** per-shard fault isolation: a shard whose recovery, scrub
          verification, or live operation raises
          {!Ptm.Ptm_intf.Unrecoverable} is QUARANTINED — its requests
          answer [Shard_down] while every other shard keeps serving —
          instead of taking the whole engine down.  Each shard then
          keeps a commit journal ({!Kv.Redodb.enable_journal}) anchored
          at a sealed relocatable snapshot export, giving quarantined
          shards the {!rebuild_shard} online recovery path.  [false]
          (the default) preserves the legacy engine-fatal behavior
          exactly and pays no journal/export overhead. *)
}

(** 4 shards, 9 tids, 1 MiB, batching on (cap 16, zero linger), queue
    cap 64, no backing directory (volatile, in-process regions), fault
    isolation off. *)
val default_config : config

type t

(** Ack of a [multi_put].  [txid = 0] for the single-shard fast path
    (one atomic PTM transaction, no commit records; [epoch] is then the
    engine's epoch at the ack, for information only).  For a cross-shard
    transaction, [txid] is its unique id and [epoch] its commit epoch —
    monotone over acked cross-shard commits, including across crashes
    (the per-shard high-water marks persist it). *)
type ack = Commit.ack = { txid : int; epoch : int }

type error =
  | Overloaded  (** bounded queue full — explicit backpressure, nothing enqueued *)
  | Unavailable of string
      (** crashing/crashed or definitely aborted; the request took no
          durable effect and is safe to retry after recovery *)
  | In_doubt of int
      (** the named cross-shard transaction prepared durably but its
          decide outcome is unknown; recovery will complete or roll it
          back — the caller must re-read before replaying.  [In_doubt 0]:
          a single-shard write whose shard was quarantined or rebuilt
          under its submit may or may not have survived (a tokened one
          is answered by its outcome record whenever the shard serves
          again by the time it returns) *)
  | Timed_out
      (** the request's deadline expired while it queued: it was shed
          before any engine work (cross-shard: before any prepare
          landed, or the staged prepares were rolled back), nothing
          durable happened, and retrying is always safe *)
  | Shard_down of int
      (** the one shard this request needed is quarantined or
          rebuilding; nothing durable happened on any shard (a
          cross-shard [multi_put] whose participant quarantined mid-2PC
          is cleanly aborted — never a prefix commit).  Every other
          shard keeps serving; retry after readmission *)

val pp_error : error -> string
val create : config -> t
val config : t -> config
val shards : t -> int

(** The engine's cross-shard commit state (crash arming, epochs,
    decided/applied counts). *)
val commit : t -> Commit.t

(** The engine's per-shard health machine. *)
val health : t -> Health.t

(** Which shard owns [key] (stable across restarts). *)
val shard_of : t -> string -> int

(** Write entry points take an optional wire request id [rid] (0 =
    none): it rides into every trace span the request produces — queue
    wait, 2PC prepare/decide/apply, the commit itself — so one request's
    span tree can be followed across threads in the trace export.

    They also take an optional client write token [tok] (0 = none) and
    absolute wall-clock [deadline] ([Unix.gettimeofday] scale; [0.] =
    none).  A tokened write records its commit in the durable outcome
    ledger atomically with the write itself, so a RETRY of the same
    token is exactly-once: if the first attempt committed, the retry is
    answered from the ledger ([serve.retry.dedup_hits]) without
    re-running; {!txstat} resolves the token after a lost ack.  A
    deadline that expires while the request queues sheds it with
    [Timed_out] before any durable work. *)

(** One single-key write request: [Some v] puts, [None] deletes. *)
type write = {
  key : string;
  value : string option;
  rid : int;
  tok : int;
  deadline : float;
}

(** Commit a group of single-key writes; results come back in group
    order, one per request.  Each request keeps its own token dedup,
    outcome record, deadline and rid.  The group is split by shard, and
    each shard's slice goes, in group order, through that shard's
    group-commit stage in chunks of at most [min max_batch queue_cap]
    requests — so writes to one key take effect in group order, and a
    group never answers [Overloaded] against its own size.  A write is
    acked only if the shard's instance still serves after its commit:
    a batch drained before a quarantine can commit on the dropped
    instance after the rebuild read its journal.  Otherwise a tokened
    write is answered by its outcome record on the current instance
    ([Ok] if there, [Shard_down] if not), and an untokened one, or any
    while the shard is down, with [In_doubt 0].  [put] and [delete]
    are the one-element case. *)
val write_group : t -> tid:int -> write list -> (unit, error) result list

val put :
  ?rid:int ->
  ?tok:int ->
  ?deadline:float ->
  t ->
  tid:int ->
  key:string ->
  value:string ->
  (unit, error) result

(** [Shard_down] if the key's shard is quarantined, also if it is
    quarantined or rebuilt while the read runs: the instance read may
    then hold a commit its rebuild never saw.  {!multi_get} and {!scan}
    keep the same rule per shard. *)
val get : t -> tid:int -> string -> (string option, error) result

(** Acked delete (no existence report: under group commit the delete is
    folded into a batch transaction). *)
val delete :
  t ->
  tid:int ->
  ?rid:int ->
  ?tok:int ->
  ?deadline:float ->
  string ->
  (unit, error) result

(** Results in request order; epoch-validated consistent snapshot. *)
val multi_get : t -> tid:int -> string list -> (string option list, error) result

(** [Some v] puts, [None] deletes.  All-or-nothing across shards; the
    ack's [epoch] orders the commit against snapshot reads. *)
val multi_put :
  t ->
  tid:int ->
  ?rid:int ->
  ?tok:int ->
  ?deadline:float ->
  (string * string option) list ->
  (ack, error) result

(** Resolve the fate of a write token from the durable outcome ledger
    (works across engine restarts over the same backing directory).
    [Tx_aborted] is presumed abort — sound provided the client
    serializes its own retries, i.e. never queries a token while also
    submitting it, which {!Client} guarantees. *)
val txstat : t -> tid:int -> int -> (Ledger.tx_status, error) result

(** Up to [max] key-sorted pairs whose key starts with [prefix], merged
    across per-shard snapshots taken at one validated epoch — a scan
    never observes a partially applied [multi_put].  A shard behind
    quarantine, or quarantined while it is read, is left out. *)
val scan :
  t -> tid:int -> prefix:string -> max:int -> ((string * string) list, error) result

(** Live user keys (commit metadata and high-water marks excluded). *)
val count : t -> tid:int -> int

(** {2 Fault injection} *)

(** Install guard-dropping protocol mutants (sweep calibration only):
    the one list {!Commit}, {!Ledger} and {!Health} each check for the
    guards they own; {!Commit.Ack_early} is forwarded into every shard's
    batcher ({!Batcher.set_ack_early}). *)
val set_mutants : t -> Commit.mutant list -> unit

(** {2 Crash and recovery} *)

(** Whole-engine power failure under load: new requests bounce with
    [Unavailable], queued unacknowledged writes drain by rejection,
    in-flight batch commits finish (their acks stay valid), then every
    shard crashes through the media-fault path
    ({!Kv.Redodb.crash_with_faults}, seed derived per shard) and
    recovers, and commit recovery settles in-doubt cross-shard
    transactions from the durable records alone.  [Ok seconds] is the
    total outage; [Error detail] means a shard's recovery refused the
    image or a commit record failed its digest, and the engine stays
    down. *)
val crash_with_faults :
  t ->
  tid:int ->
  seed:int ->
  evict_prob:float ->
  torn_prob:float ->
  bitflips:int ->
  (float, string) result

(** Hard power failure for harnesses that guarantee no live thread is
    inside the engine (scheduler fibers suspended forever, a
    single-threaded loop, or the thread that just raised
    {!Commit.Injected_crash}): volatile stage, health, ledger and commit
    state (queues, leaders, every lock, the commit registry, the armed
    crash) is dropped as the machine would lose it — this is how a crash
    lands mid-batch or mid-2PC — then the shards recover and commit
    recovery runs.  [Ok total_recovery_seconds]. *)
val crash_hard_with_faults :
  t ->
  seed:int ->
  evict_prob:float ->
  torn_prob:float ->
  bitflips:int ->
  (float, string) result

(** Install the {!Pmem.set_flush_cost} device model on every shard
    (post-creation, so initialisation flushes do not pay it — startup
    with a realistic model would take seconds; survives crash recovery
    and is re-applied to rebuilt shards). *)
val set_flush_cost : t -> int -> unit

(** {2 Fault isolation}

    Quarantined and Rebuilding shards (see {!Health}) answer
    [Shard_down] while every other shard keeps serving; scans and
    [count] serve the healthy subset of the keyspace. *)

(** Quarantine one shard (FREEZE, a confirmed scrub anomaly, or a live
    {!Ptm.Ptm_intf.Unrecoverable} under [isolate]): admission flips off
    and its batcher drains with no acks. *)
val quarantine : t -> tid:int -> int -> reason:string -> unit

(** One online-scrub step over one shard ({!Health.scrub_step} on the
    instance serving it). *)
val scrub_step :
  t -> tid:int -> int -> [ `Clean | `Suspected of string | `Confirmed of string | `Skipped ]

(** Mutant-blind durable-metadata verification of one shard: the sweeps'
    final audit, which a scrubber that skips verifying cannot fool. *)
val verify_shard : t -> int -> (unit, string) result

(** Inject silent bit rot into one shard's durable PTM metadata (sweeps
    and tests): invisible to live operations until the scrubber finds
    it. *)
val corrupt_shard : t -> int -> seed:int -> count:int -> unit

(** Rebuild a quarantined shard online: restore its last good sealed
    snapshot export into a brand-new region (relocatable — any offset),
    replay the commit journal over it (idempotent last-writer-wins; the
    volatile ledger survived the media rot), settle every txid with a
    prepare or decision on it, once its live coordinator has returned,
    by {!Commit}'s rule over the reachable shards and the fresh one,
    swap it in with a fresh batcher, re-anchor the journal at a fresh
    export, and readmit the shard.  The other shards serve throughout.
    [Error] (not quarantined, no export, corrupt snapshot, or [isolate]
    off) leaves the shard quarantined; the rebuild may be retried. *)
val rebuild_shard : t -> tid:int -> int -> (unit, string) result

(** Re-anchor one Healthy shard's rebuild ledger: cut the journal, then
    take a fresh snapshot export (that order — a commit landing between
    the two lands in both, which idempotent replay tolerates; the
    opposite order could lose it from both).  The health lock is held
    across the check, the cut and the export: otherwise a FREEZE +
    REBUILD from another domain could read the freshly cut journal
    together with the previous export and lose every commit in between.
    The scrubber calls this after a clean pass so journals stay short.
    No-op unless [isolate] and Healthy. *)
val refresh_export : t -> tid:int -> int -> unit

(** {2 Introspection} *)

(** Scheduler-adversary hazard: [tid] is a committing batch leader,
    holds a stage, registry or active-token lock, or sits between
    registering a cross-shard commit and confirming its decision (see
    {!Batcher.stall_hazard}, {!Commit.stall_hazard}).
    Freezing a thread there could wedge readers with a decided commit
    they cannot help to completion. *)
val stall_hazard : t -> tid:int -> bool

(** Sizes of one shard's last {!Batcher.window} committed batches,
    oldest first (batching only). *)
val batch_sizes : t -> shard:int -> int list

(** Batches one shard has committed since the engine started, or since
    the shard's last rebuild (batching only). *)
val batches_committed : t -> shard:int -> int

(** USER keys of one shard's last {!Batcher.window} drained batches,
    oldest first, logged before commit — the mid-batch crash oracle's
    ground truth.  Commit metadata writes are excluded: they are not
    acked user data. *)
val attempted_batches : t -> shard:int -> string list list

(** Device counters summed over every shard's current instance. *)
val pmem_stats : t -> Pmem.Stats.snapshot

(** Current per-shard queue depths (batching only; [[]] otherwise). *)
val queue_depths : t -> int list

(** Fraction of the busiest shard's admission queue in use ([0.] when
    batching is off): the server's overload signal for per-class
    shedding — scans go first, then multi-key writes.  Cheap (no locks),
    monotone with queue growth, and deliberately pessimistic: one hot
    shard is enough to start shedding scans. *)
val overload_hint : t -> float

(** Engine + per-shard stats (counters, queue depths, key-popularity
    heat sketches), commit-state snapshot, the sliding-window percentile
    snapshots ([windows]), and the full metrics registry, as JSON (the
    STATS wire response). *)
val stats_json : t -> Obs.Json.t
