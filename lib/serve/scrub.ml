(* Low-priority online scrubber: between request batches, incrementally
   re-verify each shard's durable sealed PTM metadata (the checksums the
   media-fault hardening writes) so silent rot is promoted to
   Suspect/Quarantined BEFORE a crash recovery — or a client — trips
   over it.  One shard is verified per [step], round-robin, so the cost
   per call stays tiny and the driver (a server domain, the sweep, or a
   test) decides the cadence.

   The scrubber is a thin driver over the engine's health machine
   ({!Health.scrub_step}): the two-strike Suspect->Quarantined policy,
   the mutant gating (no-scrub-verify skips the verification but the
   walk still advances) and all state transitions live there; this
   module only sequences the steps, confirms Suspect verdicts
   immediately, optionally kicks off the online rebuild, and refreshes
   each shard's snapshot export after clean passes so rebuild journals
   stay short. *)

type t = {
  eng : Engine.t;
  auto_rebuild : bool;
  export_every : int;
  mutable cursor : int;  (* next shard to verify *)
  mutable full_passes : int;
  clean_streak : int array;  (* consecutive clean verifications per shard *)
  mutable anomalies : int;
  mutable rebuilds_ok : int;
  mutable rebuilds_failed : int;
}

type verdict =
  | Clean of int
  | Quarantined of int * string
  | Rebuilt of int
  | Rebuild_failed of int * string
  | Skipped of int

let create ?(auto_rebuild = true) ?(export_every = 4) engine =
  {
    eng = engine;
    auto_rebuild;
    export_every;
    cursor = 0;
    full_passes = 0;
    clean_streak = Array.make (Engine.shards engine) 0;
    anomalies = 0;
    rebuilds_ok = 0;
    rebuilds_failed = 0;
  }

let full_passes t = t.full_passes
let anomalies t = t.anomalies
let rebuilds t = (t.rebuilds_ok, t.rebuilds_failed)

let try_rebuild t ~tid s =
  match Engine.rebuild_shard t.eng ~tid s with
  | Result.Ok () ->
      t.rebuilds_ok <- t.rebuilds_ok + 1;
      t.clean_streak.(s) <- 0;
      Rebuilt s
  | Error detail ->
      t.rebuilds_failed <- t.rebuilds_failed + 1;
      Rebuild_failed (s, detail)

(* Verify the shard under the cursor and advance it.  A [`Suspected]
   verdict is confirmed IMMEDIATELY with a second verification — the
   shard keeps serving between the strikes, but the window where a
   half-trusted region could meet a crash is kept as small as the
   policy allows. *)
let step t ~tid =
  let s = t.cursor in
  t.cursor <- (s + 1) mod Engine.shards t.eng;
  if t.cursor = 0 then t.full_passes <- t.full_passes + 1;
  match Engine.scrub_step t.eng ~tid s with
  | `Clean ->
      t.clean_streak.(s) <- t.clean_streak.(s) + 1;
      if t.export_every > 0 && t.clean_streak.(s) mod t.export_every = 0 then
        Engine.refresh_export t.eng ~tid s;
      Clean s
  | `Skipped ->
      let state, _, _ = Health.shard (Engine.health t.eng) s in
      if state = "quarantined" && t.auto_rebuild then try_rebuild t ~tid s
      else Skipped s
  | `Confirmed detail ->
      (* only reachable when the shard was already Suspect *)
      t.anomalies <- t.anomalies + 1;
      if t.auto_rebuild then ignore (try_rebuild t ~tid s);
      Quarantined (s, detail)
  | `Suspected detail -> (
      t.anomalies <- t.anomalies + 1;
      match Engine.scrub_step t.eng ~tid s with
      | `Confirmed detail' ->
          if t.auto_rebuild then ignore (try_rebuild t ~tid s);
          Quarantined (s, detail')
      | `Clean ->
          (* transient under this model only if someone rebuilt between
             the strikes; trust the re-verification *)
          Clean s
      | `Suspected detail' -> Quarantined (s, detail')
      | `Skipped -> Quarantined (s, detail))

(* Driver loop for a dedicated server domain: one verification per
   wake-up, [pause_us] of wall-clock sleep between steps (the
   "low-priority, between batches" cadence), until [stop ()]. *)
let run t ~tid ~stop ~pause_us =
  while not (stop ()) do
    ignore (step t ~tid);
    if pause_us > 0. then ignore (Unix.select [] [] [] (pause_us /. 1e6))
    else Domain.cpu_relax ()
  done
