(** Systematic mid-transaction crash-surface exploration.

    Built on {!Pmem}'s step-counting crash injection: a deterministic
    workload is run once to count its persistence-relevant steps, then
    re-run from scratch with a crash armed at chosen steps; after each
    injected crash the instance is recovered and checked against a
    prefix-closed durable-linearizability oracle — the recovered structure
    must equal the model either before or after the in-flight operation,
    and must still accept updates.  Each violation carries a one-line
    reproduction for [crash_torture --mid-op].

    All nine constructions run through the one sweep {!Make} over a
    {!TARGET}: the eight PTMs via {!Of_ptm}, ONLL via {!Onll_target}.
    The oracle differs in one rule only, which a target declares with
    [rollback_on_flips]. *)

type op = Add of int64 | Remove of int64

val pp_op : op -> string

(** [default_ops ?n ~seed ()] is a deterministic workload of [n]
    operations (default 12) over a small keyspace drawn from [seed]. *)
val default_ops : ?n:int -> seed:int -> unit -> op list

type violation = {
  step : int;  (** the step the crash was injected after *)
  op_index : int;  (** index of the in-flight operation *)
  op : op;
  detail : string;
  repro : string;  (** one-line reproduction via [crash_torture --mid-op] *)
}

type report = {
  ptm : string;
  seed : int;
  total_steps : int;  (** steps of the uninterrupted reference run *)
  steps_tested : int;
  crashes_injected : int;
  detected : int;
      (** recoveries that correctly refused a bit-flipped image with
          {!Ptm_intf.Unrecoverable} — only ever non-zero when [bitflips > 0] *)
  violations : violation list;
}

val pp_report : Format.formatter -> report -> unit

(** [sample_steps ~total ~count] is an evenly spaced sample of [count]
    steps out of [1..total] (endpoints included); the full range when
    [count >= total]. *)
val sample_steps : total:int -> count:int -> int list

(** A construction the sweep can drive: the list-set workload behind
    [apply] and [contents], and the three crash entry points every
    construction gets from {!Ptm_intf.Crash}. *)
module type TARGET = sig
  val name : string

  type t

  val create : num_threads:int -> words:int -> t
  val pmem : t -> Pmem.t

  (** [apply t ~tid op] runs one add/remove as a single update; [true]
      when it changed the set. *)
  val apply : t -> tid:int -> op -> bool

  (** Sorted keys + stored cardinality of the set, read in one read-only
      operation.  The walk carries fuel, so a cyclic (corrupt) chain
      yields a count of [min_int] instead of hanging. *)
  val contents : t -> tid:int -> int64 list * int

  val crash_and_recover : t -> unit
  val crash_with_evictions : t -> seed:int -> prob:float -> unit

  val crash_with_faults :
    t -> seed:int -> evict_prob:float -> torn_prob:float -> bitflips:int -> unit

  (** Whether recovery may, after bit flips, present the state of an
      earlier completed prefix (ONLL truncates its logical log at the first
      entry whose seal fails).  A property of the construction's recovery,
      not a setting: only then does the oracle accept any completed prefix
      instead of the state before or after the in-flight operation. *)
  val rollback_on_flips : bool
end

(** The workload as one [update] / [read_only] transaction per operation. *)
module Of_ptm (P : Ptm_intf.S) : TARGET with type t = P.t

(** The workload as two registered {!Onll} operations;
    [rollback_on_flips] is [true]. *)
module Onll_target : TARGET

module Make (T : TARGET) : sig
  (** Steps executed by the uninterrupted reference run of [ops]. *)
  val total_steps : ?num_threads:int -> ?words:int -> ops:op list -> unit -> int

  (** The one crash selection: a clean crash when no fault is asked for,
      [T.crash_with_evictions] with [evict_prob] alone, and
      [T.crash_with_faults] (absent probabilities read as 0) as soon as
      [torn_prob] or [bitflips] is set. *)
  val crash :
    T.t ->
    seed:int ->
    evict_prob:float option ->
    torn_prob:float option ->
    bitflips:int ->
    unit

  (** [sweep ~ops ~steps ()] runs one injection per step number in
      [steps] (numbers outside [1..total] are skipped); [evict_prob]
      additionally lets each line dirty at the crash point survive with
      that probability (default: strict crash).  [torn_prob] makes each
      at-crash eviction persist only a partial line, and [bitflips]
      (default 0) injects that many single-bit corruptions into the PTM's
      durable metadata after the crash — recovery raising
      {!Ptm_intf.Unrecoverable} then counts as [detected] rather than a
      violation.  Step stream, eviction/tear coins and flip targets are
      all deterministic functions of [seed]. *)
  val sweep :
    ?num_threads:int ->
    ?words:int ->
    ?evict_prob:float ->
    ?torn_prob:float ->
    ?bitflips:int ->
    ?seed:int ->
    ops:op list ->
    steps:int list ->
    unit ->
    report

  (** Exhaustive sweep: every step [k = 1..N] of the reference run. *)
  val sweep_all :
    ?num_threads:int ->
    ?words:int ->
    ?evict_prob:float ->
    ?torn_prob:float ->
    ?bitflips:int ->
    ?seed:int ->
    ops:op list ->
    unit ->
    report

  (** [random_sweep ~ops ~trials ()] arms a seeded per-step coin of
      probability [prob] (default 0.02) instead of a fixed step, [trials]
      times; violations still carry the exact step for a deterministic
      repro. *)
  val random_sweep :
    ?num_threads:int ->
    ?words:int ->
    ?evict_prob:float ->
    ?torn_prob:float ->
    ?bitflips:int ->
    ?seed:int ->
    ?prob:float ->
    ops:op list ->
    trials:int ->
    unit ->
    report
end
