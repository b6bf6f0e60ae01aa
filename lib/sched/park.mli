(** One park interface for the three runtimes library code runs under:
    the deterministic scheduler ({!Sched}), an event loop's fibers
    ([Aio]), and plain [Domain]s.

    Library code that waits or reads a clock calls these three
    operations and never asks which runtime it is in.  Each runtime
    installs its own {!ops} record in a domain-local hook for the extent
    of its run; with none installed the plain-Domain record applies:

    - under {!Sched.run}, [pause] and [sleep] are each one {!Sched.yield}
      (one schedule step) and [now_us] is the step counter, so one step
      is one microsecond and scheduled waits stay a pure function of the
      seed;
    - under [Aio.run], [pause] yields the fiber, then parks it on a
      timer past a burst, and [sleep] is a fiber timer, so the loop keeps
      serving while one fiber waits;
    - on plain Domains, [pause] spins on [cpu_relax], then sleeps past a
      burst, and [sleep] blocks the domain.

    Outside every run a park op costs one domain-local read and
    allocates nothing beyond [now_us]'s float. *)

type ops = {
  pause : int -> unit;
      (** [pause n]: the [n]-th consecutive failed wait of a spin loop
          ([n] from 0), so a runtime can back off as a wait drags on. *)
  sleep : float -> unit;  (** wait this many seconds *)
  now_us : unit -> float;  (** the runtime's clock, in microseconds *)
}

val pause : int -> unit
val sleep : float -> unit
val now_us : unit -> float

(** [within ops f] runs [f] with [ops] as the calling domain's runtime
    and restores the previous record when [f] returns or raises.  For
    runtimes only: {!Sched.run} and [Aio.run] call it. *)
val within : ops -> (unit -> 'a) -> 'a
