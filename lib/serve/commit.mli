(** Cross-shard atomic commit: the durable record formats, the two-phase
    coordinator, epoch-validated snapshot reads, and the one resolver
    that settles every in-doubt transaction.

    The engine gives [multi_put] all-or-nothing semantics across shards
    with a two-phase protocol whose every durable artifact lives INSIDE
    the shards' own RedoDB regions, written through ordinary PTM
    transactions — so each record inherits the per-shard durability,
    torn-line and bit-flip hardening, for free:
    - a PREPARE record per participating shard (["m!p!<txid>"]), staging
      that shard's slice of the write set plus the full participant
      list, so any shard's region alone names everyone involved
      (self-describing, in the spirit of Puddles' application-independent
      recovery);
    - one DECISION record on the coordinator shard — the lowest
      participating index — (["m!d!<txid>"]) carrying the commit epoch.
      Its commit IS the commit point of the whole transaction;
    - per-shard high-water keys (["m!he"] epoch, ["m!ht"] txid) raised
      transactionally with each apply, so epochs and txids stay monotone
      across crashes even after all records are forgotten.

    Record values carry their own splitmix64 digest: the PTM already
    refuses corrupt metadata, but the digest makes the records themselves
    end-to-end self-validating — recovery refuses to guess at a commit
    decision it cannot authenticate.

    {b The in-doubt rule} — crash recovery, an online rebuild and the
    live commit's apply-and-forget step all apply it, in one place.  For
    one txid, over the reachable shards:
    - a decision record on a reachable shard: a guarded apply on every
      reachable shard that holds the txid's prepare; the decision is
      forgotten only once every participant is reachable;
    - no decision, and every participant reachable: roll back every
      prepare (the coordinator is a participant, so no decision can
      exist);
    - otherwise: leave every prepare in doubt.
    The rule is only ever applied to a txid whose coordinator has
    stopped: recovery runs after a crash, and a rebuild waits out the
    coordinator of each transaction it finds on the rebuilt shard.  A
    transaction is its txid and its participant list. *)

(** {2 Record formats} *)

(** User keys are escaped with a ['u'] prefix so the commit metadata
    (['m'] prefix) shares each shard's keyspace without collisions. *)
val user_key : string -> string

val user_of_internal : string -> string

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

(** The instant JUST AFTER a phase's durable action: the k-th prepare,
    the decision, the k-th guarded apply, the forget. *)
type phase = Prepare of int | Decide | Apply of int | Forget

exception Injected_crash of phase

val pp_phase : phase -> string
val parse_phase : string -> phase option

(** Each mutant removes one safety guard of the protocol so the sweeps
    can demonstrate the violation class that guard prevents (the same
    methodology as the RedoNoFence / PmdkNoSum mutants):

    - [Skip_2pc]: multi_put commits per-shard batches directly, the
      pre-commit-layer behavior.  A crash between shard commits leaves a
      durable PREFIX of the write set — the prefix-commit violation.
    - [No_rollforward]: acks at the decision record (legal only if
      recovery completes in-doubt commits) AND recovery treats decision
      records as absent, rolling every prepared shard back.  A crash
      after the ack loses or half-applies an ACKED multi_put.
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
      in — the zero-acked-write-loss audit must catch them. *)
type mutant =
  | Skip_2pc
  | No_rollforward
  | No_read_validation
  | No_dedup
  | Ack_early
  | No_scrub_verify
  | Serve_while_rebuilding

val pp_mutant : mutant -> string
val parse_mutant : string -> mutant option

(** {2 The coordinator} *)

(** See {!Engine.ack}. *)
type ack = { txid : int; epoch : int }

type t

(** [mutants] is the engine's installed mutant list, shared. *)
val create : num_threads:int -> mutants:mutant list ref -> t

(** Arm a one-shot crash: {!Injected_crash} is raised out of the next
    cross-shard commit just after the named phase's durable action. *)
val set_crash_after : t -> phase option -> unit

(** Last granted commit epoch. *)
val current_epoch : t -> int

(** (decided, applied) cross-shard commit counts since last recovery. *)
val stats : t -> int * int

(** Epoch, next txid, decided/applied counts and pending commits. *)
val stats_json : t -> (string * Obs.Json.t) list

(** [tid] holds the registry lock or sits between its durable decision
    and the decision's publication to helping readers. *)
val stall_hazard : t -> tid:int -> bool

(** The reachable shards: [view s] is the instance serving shard [s], or
    [None] while it is behind quarantine.  A rebuild's view maps the
    rebuilt shard to its fresh instance. *)
type view = int -> Kv.Redodb.t option

(** Commit [slices] (one write set per participant, shards ascending)
    all-or-nothing: prepares through [submit] (each bounded by
    [deadline]), the decision (with [tok]'s outcome record) on the
    coordinator, publication to helping readers, then the settle step.
    [submit ~deadline s ops] commits [ops] on shard [s] through its
    group-commit stage; a submit error aborts with [`Refused].  A
    participant unreachable after its prepare aborts with [`Shard_down];
    an unknown decide outcome answers [`In_doubt txid]. *)
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
    the volatile state from the high-water marks and settle every txid
    found.  [Error] names a record that fails its digest. *)
val recover : t -> shards:int -> view:view -> (unit, string) result

(** Settle every transaction with a prepare or a decision on [db], a
    rebuilt shard's fresh instance that [view] maps in, each once its
    coordinator has returned; lift the txid source past [db]'s txids. *)
val resolve_shard : t -> tid:int -> view:view -> Kv.Redodb.t -> unit
