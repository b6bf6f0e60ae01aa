(** Seeded, deterministic network-fault injection for the serving
    front-end: the server (with [--chaos PLAN]) severs connections,
    truncates or corrupts response frames, delays or stalls either
    direction, and drops responses AFTER the request executed — the
    full menu a resilient client must absorb.  Faults come from
    splitmix64 streams derived per accepted connection from the plan
    seed, so a (plan, connection order, request order) triple replays
    identically; [pp_plan]/[parse_plan] round-trip a plan through the
    sweep's repro lines. *)

(** Raised by {!before_read} when injected chaos severs the connection.
    The reactor treats it as the peer vanishing: drop the connection,
    pending responses and all, nothing else. *)
exception Cut of string

type plan = {
  seed : int;
  sever_prob : float;  (** close the connection between requests *)
  truncate_prob : float;  (** write a strict prefix of a response frame, then cut *)
  corrupt_prob : float;  (** flip one bit of one response payload byte *)
  delay_prob : float;  (** sleep [delay_us] before a read or write *)
  delay_us : int;
  stall_prob : float;  (** sleep [stall_us] before a read (long tail) *)
  stall_us : int;
  drop_prob : float;
      (** swallow a response after the request executed: the committed
          write's ack is lost, forcing the client through its
          timeout/retry/TXSTAT path *)
}

(** Seed 1, all probabilities 0, delay 200 us, stall 20 ms. *)
val default_plan : plan

(** ["seed=1,sever=0.01,trunc=0,corrupt=0,delay=0.05,delay_us=200,stall=0,stall_us=20000,drop=0.02"]-style;
    probabilities with at most 6 significant digits round-trip exactly
    through {!parse_plan}. *)
val pp_plan : plan -> string

(** Inverse of {!pp_plan}; unknown keys and out-of-range values are
    errors, missing keys default from {!default_plan}. *)
val parse_plan : string -> (plan, string) result

(** Derive an independent sub-seed from [seed] and an index (round
    seeds from a sweep seed, connection streams from a plan seed). *)
val derive : int -> int -> int

(** One fault source per server: owns the per-connection stream counter
    and the fault tallies (also exported as [serve.chaos.*] metrics). *)
type source

val source : plan -> source
val plan : source -> plan

(** [(name, count)] pairs: severs/truncates/corrupts/delays/stalls/drops. *)
val tallies : source -> (string * int) list

val total_faults : source -> int

(** Per-connection fault stream. [tid] labels the metrics increments. *)
type conn

val conn : source -> tid:int -> conn

(** Call between requests, before reading the next frame: may sleep
    (delay/stall — a fiber timer under an aio reactor, a real sleep
    elsewhere) or raise {!Cut} (sever). *)
val before_read : conn -> unit

(** Response-side fault verdict for one response: what should reach the
    wire.  A pure value (tallies and counters are noted at decision
    time) so the reactor can apply it to its buffered non-blocking
    write path — append the surviving bytes, schedule the delay as a
    timer, sever after flushing the truncated prefix. *)
type verdict =
  | Deliver of string  (** the full frame bytes, unharmed or corrupted *)
  | Deliver_delayed of string * int  (** frame, delay in microseconds *)
  | Drop_response
      (** the request executed (a write may have committed) but the
          client never hears: the ack-loss fault the exactly-once
          retries must absorb *)
  | Truncate_and_cut of string  (** write this strict prefix, then sever *)

(** [payload] is the unframed response line; the verdict carries the
    framed bytes. *)
val send_verdict : conn -> string -> verdict
