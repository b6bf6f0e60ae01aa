(** One park interface for the three runtimes library code runs under:
    the deterministic scheduler ({!Sched}), an event loop's fibers
    ([Aio]), and plain [Domain]s, and the one fiber core the first two
    share.

    Library code that waits or reads a clock calls these operations and
    never asks which runtime it is in.  Each runtime installs its own
    {!ops} record in a domain-local hook for the extent of its run; with
    none installed the plain-Domain record applies:

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
      (** [pause n]: the [n]-th consecutive failed poll of a wait ([n]
          from 0), so a runtime can back off as a wait drags on. *)
  sleep : float -> unit;  (** wait this many seconds *)
  now_us : unit -> float;  (** the runtime's clock, in microseconds *)
}

val pause : int -> unit
val sleep : float -> unit
val now_us : unit -> float

(** [await poll] is the one way library code waits: it calls [poll]
    until it returns [Some v] and returns [v], with one [pause n]
    between the [n]-th failed poll and the next.  A poll that has work
    to do before it looks again (a follower that leads a batch) does it
    inside the poll, with no pause. *)
val await : (unit -> 'a option) -> 'a

(** [within ops f] runs [f] with [ops] as the calling domain's runtime
    and restores the previous record when [f] returns or raises.  For
    runtimes only: {!Sched.run} and [Aio.run] call it. *)
val within : ops -> (unit -> 'a) -> 'a

(** {2 The fiber core} *)

(** The one fiber effect.  [Effect.perform (Suspend register)] suspends
    the calling fiber and hands [register] its resume; calling the
    resume (once) continues the fiber on the caller's stack.  A runtime
    decides where the resume goes: {!Sched} stores it in the fiber's
    record, [Aio] on its ready queue, a timer or an fd waiter. *)
type _ Effect.t += Suspend : ((unit -> unit) -> unit) -> unit Effect.t

(** [fiber ~finished ~raised f] runs [f ()] as a fiber under a deep
    handler for {!Suspend}, until it first suspends or ends; [finished]
    or [raised] sees how it ended.  Other effects pass through, and a
    {!Suspend} inside a nested run reaches the innermost handler, so
    each runtime owns its own fibers. *)
val fiber :
  finished:(unit -> unit) -> raised:(exn -> unit) -> (unit -> unit) -> unit
