(** Cross-shard atomic commit: the durable record formats, the two-phase
    coordinator, epoch-validated snapshot reads, and the one resolver
    that settles every in-doubt transaction.

    The engine gives [multi_put] all-or-nothing semantics across shards
    with a two-phase protocol in the coordinator-log form of
    presumed-abort 2PC (Mohan, Lindsay and Obermarck, R*, TODS 1986).
    Every durable artifact lives INSIDE the shards' own RedoDB regions,
    written through ordinary PTM transactions — so each record inherits
    the per-shard durability, torn-line and bit-flip hardening, for free:
    - a PREPARE record on every participant but the coordinator — the
      lowest participating index — staging that shard's slice of the
      write set plus the full participant list, so any prepared shard's
      region alone names everyone involved (self-describing, in the
      spirit of Puddles' application-independent recovery);
    - one DECISION record on the coordinator carrying the commit epoch.
      It commits in ONE PTM transaction with the coordinator's own slice
      and the token's outcome record: that transaction is the commit
      point of the whole transaction and the coordinator's apply at
      once, so a P-shard commit runs P − 1 prepares, that merged
      decision and P − 1 guarded applies — 2P − 1 PTM transactions on
      the ack path.

    {b Slot rings.}  The records live in two rings of K fixed keys per
    shard, K = 2 × shards × threads: prepare slots (["m!p!<slot>"]) and
    decision slots (["m!d!<slot>"]).  Transaction [txid] uses slot
    [txid mod K] of each.  A slot is never deleted: a record is settled
    by rewriting it IDLE in place — its state word flips, and an apply
    also records the commit epoch in the prepare — and a later txid that
    maps to the slot overwrites the idle record in place.  RedoDB's
    in-place overwrite stores only the words that change, so no commit
    record costs an allocation, a free, a chain node, a bucket head or a
    count update.  A transaction's one claim record holds its slot from
    the draw of its txid until its writer has left the coordinator, it
    is no longer published as decided, it is settled (decision idle, or
    a definite abort) and no forget of it is queued or riding; the txid
    source skips a txid whose slot is claimed.  Recovery and a rebuild
    settle every live slot they find before the shard serves; a
    transaction they leave unsettled keeps its claim.

    {b Forgets.}  Once every participant has applied, the decision record
    is no longer needed.  A live commit does not settle it on the ack
    path: the idle rewrite is queued on the transaction's claim and
    rides the coordinator shard's next decision transaction (queued
    again if that one does not commit).  Records left live when
    cross-shard traffic stops (or by a crash, which drops the claims)
    are forgotten by recovery or by a rebuild of the coordinator, the
    same way a crashed writer's records are.  A decision that cannot be
    forgotten because a participant is out of reach after its apply
    leaves its claim unsettled until that participant's rebuild forgets
    it.

    {b High-water argument.}  Recovery takes the txid and epoch sources
    from the largest txid and epoch in any slot, live or idle, on the
    reachable shards.  A slot is only ever overwritten by a later txid,
    so the txids never regress.  An acked epoch E stays in the slots:
    the decision carries it, and before the ack every other participant's
    apply rewrote its prepare idle with E — a cross-shard transaction
    has at least one such participant, so E survives a crash that hides
    the coordinator.  A later txid overwrites those slots only after the
    slot was released, so after E was granted: its live prepare carries
    the epoch source's value when it was written, at least E, and its
    decision a larger epoch.

    {b Snapshot reads.}  The coordinator's slice is visible as soon as
    the merged decision commits, before the other slices are applied.
    So the writer registers the transaction (txid, epoch, slices) and
    counts it decided BEFORE submitting that commit: a snapshot read
    overlapping it sees the decided count move and retries, and helpers
    drive the entry home.  Until the writer confirms the commit, a
    helper settles the entry by the durable decision record: present,
    roll forward; absent while the writer is still committing, wait (one
    transaction; the writer is stall-hazardous meanwhile); absent once
    the writer has returned, claim it as aborted.  A record read on a
    coordinator instance that no longer serves when the read returns
    counts as absent: a merged decision can commit on an instance after
    its quarantine, once the rebuild has read the journal, and is then
    lost with it.

    Record bodies carry their own splitmix64 digest: the PTM already
    refuses corrupt metadata, but the digest makes the records themselves
    end-to-end self-validating — recovery refuses to guess at a commit
    decision it cannot authenticate.

    {b The in-doubt rule} — crash recovery, an online rebuild, a helping
    reader and the live commit's apply-and-forget step all apply it, in
    one place.  For one transaction, over the reachable shards:
    - its decision record, live or idle, in a reachable coordinator's
      slot: a guarded apply on every reachable shard whose slot holds
      the transaction's live prepare; the decision is forgotten only
      once every participant is reachable;
    - no decision of it in that slot (empty, or another txid's), and
      every participant reachable: roll back every live prepare (the
      coordinator wrote the decision or nothing, and a decision slot is
      reused only after every participant applied);
    - otherwise: leave every prepare in doubt.
    The rule is only ever applied to a transaction whose coordinator has
    stopped: recovery runs after a crash, a rebuild waits out the
    coordinator of each transaction it finds on the rebuilt shard, and a
    helper waits while the writer is inside its decision.  A
    transaction is its txid and its participant list.  The coordinator
    holds no prepare, so recovery and a rebuild find a transaction by
    its other participants' live prepares or by its live decision
    record. *)

(** {2 Record formats} *)

(** User keys are escaped with a ['u'] prefix so the commit metadata
    (['m'] prefix) shares each shard's keyspace without collisions. *)
val user_key : string -> string

val user_of_internal : string -> string

(** A prepare or decision slot record.  Layout of the stored value: an
    8-byte state word (["live!!!!"] or ["idle!!!!"]) outside the digest,
    the body's digest in 16 hex digits, then the body: epoch and txid as
    one little-endian word each, the participant list, and the write set
    (a prepare's slice; empty in a decision).  A decision's epoch is its
    commit epoch; a live prepare's is a lower bound (the last epoch
    granted when it was written), which its apply replaces with the
    commit epoch. *)
type record = {
  live : bool;
  txid : int;
  epoch : int;
  parts : int list;  (** participant shards, ascending; the first coordinates *)
  ops : (string * string option) list;
}

(** [None] for a value that is not a slot record or fails its digest. *)
val decode_record : string -> record option

(** Outcome ledger: a write carrying client token [tok] leaves an
    outcome record under [outcome_prefix tok], in the same PTM
    transaction as the write (the decision batch for a cross-shard
    commit).  Two records under one token are a duplicated commit. *)
val outcome_prefix : int -> string

(** The key of [tok]'s outcome record for [txid]. *)
val outcome_key : tok:int -> txid:int -> string

(** The outcome record write for [tok]: txid (0 = single-shard fast
    path) and commit epoch. *)
val outcome_op : tok:int -> txid:int -> epoch:int -> string * string option

(** [(txid, epoch)], or [None] for a record that fails its digest. *)
val decode_outcome : string -> (int * int) option

(** {2 Crash injection and mutants} *)

(** The instant JUST AFTER a phase's durable action: the k-th prepare
    (of a participant other than the coordinator), the merged decision,
    the k-th guarded apply (likewise), and the forget (its idle rewrite
    queued for the coordinator's next decision). *)
type phase = Prepare of int | Decide | Apply of int | Forget

exception Injected_crash of phase

val pp_phase : phase -> string
val parse_phase : string -> phase option

(** Each mutant removes one safety guard of the protocol so the sweeps
    can demonstrate the violation class that guard prevents (the same
    methodology as the RedoNoFence / PmdkNoSum mutants):

    - [Skip_2pc]: each participant but the coordinator commits its
      slice directly in place of its prepare, the pre-commit-layer
      behavior.  A crash between shard commits leaves a durable PART of
      the write set — the partial-commit violation.
    - [No_rollforward]: acks at the decision record (legal only if
      recovery completes in-doubt commits) AND recovery treats decision
      records as absent, rolling every prepared shard back.  A crash
      after the ack half-applies an ACKED multi_put: the coordinator's
      slice, committed with the decision, survives; the others are lost.
    - [No_read_validation]: snapshot reads skip epoch validation and
      helping, so a scan can interleave with the apply phase and observe
      a half-applied multi_put.
    - [No_dedup]: the engine skips the outcome-ledger lookup on tokened
      writes, so a client retry after a dropped response re-commits the
      transaction — two outcome records under one token, a duplicated
      (non-exactly-once) commit the chaos sweep must catch.
    - [Ack_early]: the batcher acknowledges a write BEFORE its batch
      transaction commits, so a kill in the ack-to-commit window loses an
      acked write — the violation the supervised kill-restart audit must
      catch.
    - [No_scrub_verify]: the online scrubber walks every shard on
      schedule but skips the durable-checksum re-verification, so silent
      media rot is never promoted to Suspect and the shard is never
      quarantined or rebuilt — the quarantine sweep's detection audit
      must catch the still-rotten region.
    - [Serve_while_rebuilding]: shard health admission lets operations
      through while the shard is [Rebuilding], so writes acked against
      the doomed old instance vanish when the rebuilt store is swapped
      in — the zero-acked-write-loss audit must catch them.
    - [Slot_reuse]: the txid source ignores slot claims, so a txid drawn
      a ring's length after a writer still between its prepare and its
      decision overwrites that writer's live prepare; the writer's apply
      then finds its guard gone and acks a half-applied MPUT. *)
type mutant =
  | Skip_2pc
  | No_rollforward
  | No_read_validation
  | No_dedup
  | Ack_early
  | No_scrub_verify
  | Serve_while_rebuilding
  | Slot_reuse

val pp_mutant : mutant -> string
val parse_mutant : string -> mutant option

(** Every mutant's name, in declaration order. *)
val mutant_names : string list

(** {2 The coordinator} *)

(** See {!Engine.ack}. *)
type ack = { txid : int; epoch : int }

type t

(** [mutants] is the engine's installed mutant list, shared. *)
val create : shards:int -> num_threads:int -> mutants:mutant list ref -> t

(** Arm a one-shot crash: {!Injected_crash} is raised out of the next
    cross-shard commit just after the named phase's durable action. *)
val set_crash_after : t -> phase option -> unit

(** The phase boundaries a commit over [participants] shards passes, in
    order: [Prepare 1 .. P-1], [Decide], [Apply 1 .. P-1], [Forget] —
    only up to [Decide] under the [No_rollforward] mutant, which never
    applies.  Every crash sweep draws from this one list. *)
val phases : t -> participants:int -> phase list

(** Last granted commit epoch. *)
val current_epoch : t -> int

(** (decided, applied) cross-shard commit counts since last recovery: a
    transaction counts as decided when it registers, just before its
    merged decision is submitted, and as applied when it is completed —
    or withdrawn, if that decision never committed. *)
val stats : t -> int * int

(** Epoch, next txid, decided/applied counts and pending commits. *)
val stats_json : t -> (string * Obs.Json.t) list

(** [tid] holds the claim lock or sits between registering its
    transaction and confirming (or withdrawing) it: a helper may wait on
    it there. *)
val stall_hazard : t -> tid:int -> bool

(** The reachable shards: [view s] is the instance serving shard [s], or
    [None] while it is behind quarantine.  A rebuild's view maps the
    rebuilt shard to its fresh instance. *)
type view = int -> Kv.Redodb.t option

(** [moved ~view (s, db)]: instance [db], taken from [view s] earlier,
    no longer serves shard [s] — quarantined or rebuilt since — or
    never did ([None]).  A read made on [db] in between may have seen a
    commit that landed there after the quarantine, which the rebuild
    never saw: such a read proves nothing. *)
val moved : view:view -> int * Kv.Redodb.t option -> bool

(** Commit [slices] (one write set per participant, shards ascending)
    all-or-nothing: prepares of every slice but the coordinator's (the
    first) through [submit] (each bounded by [deadline]), registration
    for helping readers, the merged decision (the coordinator's slice,
    the decision record, [tok]'s outcome record and the queued forgets)
    on the coordinator, then the settle step.  [submit ~deadline s ops]
    commits [ops] on shard [s] through its group-commit stage; a submit
    error aborts with [`Refused].  A participant unreachable or rebuilt
    after its prepare aborts with [`Shard_down].  A coordinator rebuilt
    under the decision's submit is answered from the current view: its
    decision present, the commit is rolled forward and acked; absent,
    the prepares are rolled back with [`Shard_down]; the coordinator
    unreachable, [`In_doubt txid], as is an unknown decide outcome.  A
    decision that did not commit on the serving instance puts back the
    forgets it carried. *)
val two_phase :
  t ->
  tid:int ->
  rid:int ->
  tok:int ->
  deadline:float ->
  view:view ->
  submit:(deadline:float -> int -> (string * string option) list -> (unit, 'e) result) ->
  (int * (string * string option) list) list ->
  (ack, [ `Refused of 'e | `Shard_down of int | `In_doubt of int ]) result

(** Run [f] over the shards so that it observes no half-applied
    cross-shard commit: help every published decided commit to
    completion first, retry if a commit decided during [f]. *)
val snapshot_read : t -> tid:int -> view:view -> (unit -> 'a) -> 'a

(** Help every published decided commit to completion. *)
val help : t -> tid:int -> view:view -> unit

(** Crash recovery over the reachable shards [0 .. shards - 1]: rebuild
    the volatile state from the slots (txid and epoch sources from their
    largest txid and epoch) and settle every transaction with a live
    record.  [Error] names a record that fails its digest, or a key
    written in the earlier per-txid record format (its high-water keys
    or an unflagged record), which this version does not read. *)
val recover : t -> shards:int -> view:view -> (unit, string) result

(** Settle every transaction with a live record on [db], a rebuilt
    shard's fresh instance that [view] maps in, and every unsettled one
    that shard takes part in, each once its writer has returned; lift
    the txid and epoch sources past [db]'s slots. *)
val resolve_shard : t -> tid:int -> view:view -> Kv.Redodb.t -> unit
