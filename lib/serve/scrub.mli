(** Low-priority online scrubber over a serving {!Engine}: incrementally
    re-verifies each shard's durable sealed PTM metadata (one shard per
    {!step}, round-robin) so silent media rot is quarantined before a
    client — or the next crash recovery — meets it.  Thin driver over
    {!Health.scrub_step}: policy and state transitions live in the
    health machine; this module sequences steps, confirms Suspect verdicts
    immediately, optionally auto-rebuilds, and refreshes snapshot
    exports after clean passes so rebuild journals stay short. *)

type t

(** What one {!step} did to the shard it visited. *)
type verdict =
  | Clean of int  (** verification passed (or the shard was re-trusted) *)
  | Quarantined of int * string  (** confirmed rot: shard quarantined *)
  | Rebuilt of int  (** auto-rebuild completed; shard readmitted *)
  | Rebuild_failed of int * string  (** still quarantined; will retry *)
  | Skipped of int  (** quarantined/rebuilding and no auto-rebuild *)

(** [auto_rebuild] (default [true]): kick {!Engine.rebuild_shard} as
    soon as a shard is quarantined, and keep retrying on later visits.
    [export_every] (default 4): refresh a shard's snapshot export after
    that many consecutive clean verifications; [0] never. *)
val create : ?auto_rebuild:bool -> ?export_every:int -> Engine.t -> t

(** Verify the next shard (round-robin) and advance.  A first-strike
    [`Suspected] verdict is confirmed immediately with a second
    verification, so one [step] call can quarantine. *)
val step : t -> tid:int -> verdict

(** Completed round-robin passes over all shards. *)
val full_passes : t -> int

(** Anomalous (failed) verifications seen by this scrubber. *)
val anomalies : t -> int

(** (succeeded, failed) rebuild attempts. *)
val rebuilds : t -> int * int

(** Step until [stop ()], sleeping [pause_us] (wall clock) between
    steps — the low-priority cadence for a dedicated server domain. *)
val run : t -> tid:int -> stop:(unit -> bool) -> pause_us:float -> unit
