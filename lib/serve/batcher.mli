(** Per-shard group-commit stage: queued write requests coalesce into
    one RedoDB [write_batch] (one PTM transaction) per batch window,
    leader-based — a waiting submitter commits for everyone, so no
    dedicated thread exists.  Bounded-queue admission control rejects
    excess load with [`Overloaded] instead of buffering without bound.

    A submission is a group of requests: the engine hands each shard's
    slice of a reactor ingress pass to {!submit} in one call, so at zero
    linger the submitter's own group is what fills its batch.  Each
    request keeps its own result, rid, enqueue time and deadline.

    Every wait and the linger clock go through {!Park}, so under the
    deterministic scheduler the window counts steps and batch formation
    is a pure function of the schedule seed. *)

type t

(** One write request: [ops] is its write set ([Some v] puts, [None]
    deletes), committed atomically in whichever batch drains it.
    [rid] is the wire request id (0 = none): the request's queue-wait
    trace span carries it, linking the span into the request's tree.
    [deadline] is an absolute [Unix.gettimeofday] time ([0.] = none). *)
type write = {
  ops : (string * string option) list;
  rid : int;
  deadline : float;
}

(** [linger_us] bounds how long a non-full batch waits for followers
    (the flush deadline), on {!Park.now_us}'s clock; [0] commits whatever
    is queued.  [queue_cap] bounds admission. *)
val create :
  db:Kv.Redodb.t ->
  shard:int ->
  max_batch:int ->
  linger_us:float ->
  queue_cap:int ->
  t

(** Enqueue a group of writes in order and block until every one of
    them is final; the results come back in the same order.  A
    submitter that becomes leader commits batches until all of its own
    requests are final.  Callers keep groups at most
    [min max_batch queue_cap] long so that an idle stage always admits a
    whole group.
    [Ok ()] means the containing PTM transaction has committed — the
    write is durable and visible.
    [`Overloaded]: the bounded queue was full, this request (and every
    later one in the group) was not enqueued.
    [`Rejected]: a crash tore the request down before commit (it was
    never acknowledged).
    [`Shed]: the request's deadline expired before it was drained — it
    was dropped before any engine work, nothing durable happened, and
    the client may safely retry.  Deadlines are wall-clock only:
    scheduled-mode callers pass none, keeping replay determinism.
    [`Quarantined]: the shard is under health quarantine — nothing
    durable happened; retry once the shard is readmitted (other shards
    keep serving).
    The stage also feeds the [serve.stage.{queue,linger,drain,txn}]
    latency histograms and the [serve.batch_size] distribution when
    metrics are on, and counts TTL drops in [serve.shed.expired]. *)
val submit :
  t ->
  tid:int ->
  write list ->
  (unit, [ `Overloaded | `Rejected | `Shed | `Quarantined ]) result list

(** {2 Crash plumbing (driven by {!Engine})} *)

(** While set, new submissions are rejected and the leader drains the
    queue by rejection instead of committing. *)
val set_crashing : t -> bool -> unit

(** Shard health admission: while set, new submissions answer
    [`Quarantined] and the leader drains the queue with the same state
    (unacknowledged by construction) — the quarantined-shard analogue of
    {!set_crashing}, distinct so waiters learn which failure they hit. *)
val set_quarantined : t -> bool -> unit

(** Install the ack-before-commit mutant: drained requests are
    acknowledged BEFORE their batch transaction commits.  Deliberately
    unsound (sweep calibration only): a process kill in the widened
    ack-to-commit window loses acked writes, which the supervised
    kill-restart audit must detect. *)
val set_ack_early : t -> bool -> unit

(** No leader committing and nothing queued. *)
val quiesced : t -> bool

(** Power-failure reset of all volatile stage state (queue, leader,
    crash flag, lock); a quarantine outlives it, as it outlives the
    power failure.  Only sound when no live thread is inside
    {!submit} — fibers suspended forever by a scheduler stop, or after
    the engine's quiesce wait. *)
val reset : t -> unit

(** {2 Introspection} *)

(** Would stalling [tid] right now wedge the stage itself (it is the
    committing leader or holds the queue lock)?  Mirrors
    {!Ptm.Ptm_intf.S.stall_hazard}: the scheduler adversary defers
    injections while true, so stalls land on waiting clients — the case
    the serving layer must survive. *)
val stall_hazard : t -> tid:int -> bool

val queue_depth : t -> int

(** How many recent batches {!batch_sizes} and {!attempted_batches}
    keep (1024): a batcher's memory does not grow with its history. *)
val window : int

(** Sizes of the last {!window} committed batches, oldest first. *)
val batch_sizes : t -> int list

(** Keys of the last {!window} drained batches, oldest first, logged
    {e before} each batch commits: the mid-batch crash oracle checks
    each batch is all-or-nothing against this. *)
val attempted_batches : t -> string list list

(** Batches committed over the batcher's life (an exact count, not
    bounded by {!window}). *)
val batches_committed : t -> int
