(** Per-shard health (fault isolation).

    The machine each shard moves through:
    [Healthy -> Suspect -> Quarantined -> Rebuilding -> Healthy].
    Healthy and Suspect shards serve (Suspect means one scrub anomaly
    awaits confirmation); Quarantined and Rebuilding shards answer
    [Shard_down] while every other shard keeps serving — degraded mode.
    Transitions are serialized by one lock; the [serve.health.*]
    counters track them.  The serve-while-rebuilding mutant drops the
    Rebuilding half of the admission guard, so writes land on the doomed
    old instance and vanish at the swap — the violation the quarantine
    sweep's zero-acked-write-loss audit exists to catch. *)

type t

(** [mutants] is the engine's installed list, shared.  The machine holds
    no shard instances: the engine passes what a step needs of them. *)
val create : shards:int -> mutants:Commit.mutant list ref -> t

(** Would the shard admit a request right now?  (The
    serve-while-rebuilding mutant makes Rebuilding shards answer [true]
    — the unsoundness the quarantine sweep must catch.) *)
val admits : t -> int -> bool

(** [(state, reason, scrub_passes)] for one shard: [state] is
    ["healthy"], ["suspect"], ["quarantined"] or ["rebuilding"];
    [reason] is why it left Healthy ([""] when healthy); [scrub_passes]
    counts completed scrub verifications. *)
val shard : t -> int -> string * string * int

(** Health counter snapshot: suspects, quarantines, rebuilds,
    readmissions, scrub_anomalies (the [serve.health.*] counters). *)
val counters : t -> (string * int) list

(** Quarantine one shard (see {!Engine.quarantine}): admission flips
    off, and the quarantine is counted only if this call moved the shard
    out of Healthy or Suspect. *)
val quarantine : t -> tid:int -> int -> reason:string -> unit

(** One online-scrub step over one shard: [verify] its durable sealed
    PTM metadata ({!Kv.Redodb.verify_meta}) against silent media rot,
    which live operations never read and would otherwise only surface
    at the next crash recovery.  Two-strike policy: the first anomaly
    marks the shard Suspect ([`Suspected], still serving — live
    operations never read the durable image, so nothing wrong has been
    served yet — and the caller re-steps immediately to confirm); the
    second quarantines ([`Confirmed]).  A Suspect shard that re-verifies
    clean is re-trusted.  [`Skipped] for Quarantined/Rebuilding shards.  Under
    {!Commit.No_scrub_verify} the walk still advances (scrub progress
    looks alive) but never verifies. *)
val scrub_step :
  t ->
  tid:int ->
  int ->
  verify:(unit -> (unit, string) result) ->
  [ `Clean | `Suspected of string | `Confirmed of string | `Skipped ]

(** Run [f] under the health lock iff the shard is Healthy. *)
val if_healthy : t -> tid:int -> int -> (unit -> unit) -> unit

(** Quarantined -> Rebuilding ([Error] names the state otherwise). *)
val start_rebuild : t -> tid:int -> int -> (unit, string) result

(** Rebuilding -> Healthy (readmitted) on [ok], else back to
    Quarantined. *)
val finish_rebuild : t -> tid:int -> int -> ok:bool -> unit

(** Drop the transition lock, as a crash would. *)
val reset : t -> unit
