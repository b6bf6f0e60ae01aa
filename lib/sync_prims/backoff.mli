(** Bounded exponential backoff (Anderson-style) for spin loops.

    On the single-core hosts this reproduction targets, pure [cpu_relax]
    spinning can burn a whole scheduler quantum while the lock holder is
    descheduled, so past a spin threshold the backoff yields to the OS.
    Inside a {!Sched} run a round is one yield point ({!Sched.spin}). *)

type t

(** [create ()] returns a fresh backoff state starting at the minimum delay.
    [max_spins] bounds the busy-wait iterations of a single [once] before
    yielding to the OS scheduler. *)
val create : ?max_spins:int -> unit -> t

(** Wait once and increase the next delay (capped). Returns the number of
    spin iterations performed, so callers can account waiting time.
    [tid] only attributes the yield to a thread in the observability
    counters (defaults to 0). *)
val once : ?tid:int -> t -> int

(** Reset the delay to the minimum. *)
val reset : t -> unit
