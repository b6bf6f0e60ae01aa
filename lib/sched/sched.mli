(** Deterministic cooperative scheduler for progress testing.

    PTM workers run as fibers (OCaml effects) inside a single domain.
    Every interposed atomic operation ({!Atomic}, and the word-granular
    Pmem accessors) is a yield point: the fiber suspends and a seeded
    scheduler picks the next runnable fiber, so a whole multi-threaded
    execution becomes a deterministic function of the schedule seed.

    On top of the seeded-random strategy the scheduler supports two
    adversarial injections aimed at wait-freedom:

    - {b stall(tid, at-step)}: from scheduler step [at-step] on, [tid] is
      no longer scheduled — forever, or for a bounded number of steps.
      The thread is suspended mid-operation at whatever yield point it
      happened to be in.
    - {b kill(tid, at-step)}: the thread never runs again (its
      continuation is dropped).

    A wait-free PTM must let the {e other} threads finish the stalled
    thread's announced operation; a blocking PTM will exhaust the step
    budget, which the harness reports as [budget_exhausted] instead of
    hanging.

    {b Cost contract.}  Outside a scheduled run a yield point is one
    atomic load of the process-wide count of live runs, so the
    interposed primitives behave, and nearly cost, like plain ones under
    real [Domain]s.  While a run is live, every yield point also reads
    the domain-local hook: a no-op in any domain not executing the run's
    fibers, the suspension inside them.  Inside a run nothing else
    changes: the same yield points, the same schedule for a seed.

    {b One run per process.}  The run state (current fiber, step
    counter) is process-global, so at most one {!run} is live at a time
    in the whole process; a second one, from any domain, is rejected
    and leaves the live run untouched. *)

(** [true] while the calling domain is executing fiber code inside
    {!run}.  Sync primitives use this to choose fiber-safe blocking
    (spin at yield points) over OS blocking. *)
val active : unit -> bool

(** The yield point.  Inside a scheduled run: suspend the current fiber
    and let the scheduler pick the next one.  Outside: no-op (one atomic
    load when no run is live in the process). *)
val yield : unit -> unit

(** [spin os_wait] is one round of a sync primitive's spin wait: the
    yield point in a fiber of a run, [os_wait ()] anywhere else.  Unlike
    a {!Park} op it never switches an event loop's fibers: the waiter
    may hold a {!Mutex}, an OS mutex outside a run, that a sibling fiber
    would then re-lock.  {!Mutex.lock} makes the same choice. *)
val spin : (unit -> unit) -> unit

(** Fiber id ([0 .. num_fibers-1]) of the currently executing fiber, or
    [None] outside a scheduled run.  Process-global like all run state:
    only meaningful in the domain executing the run. *)
val current : unit -> int option

(** Global scheduler step counter of the run in progress ([0] outside).
    One step = one fiber resume. *)
val now : unit -> int

(** [Stdlib.Atomic] with a yield point before every access (except
    [make], which is initialization).  [type 'a t = 'a Stdlib.Atomic.t],
    so interposed code interoperates with plain atomics. *)
module Atomic : sig
  type 'a t = 'a Stdlib.Atomic.t

  val make : 'a -> 'a t
  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit
  val exchange : 'a t -> 'a -> 'a
  val compare_and_set : 'a t -> 'a -> 'a -> bool
  val fetch_and_add : int t -> int -> int
  val incr : int t -> unit
  val decr : int t -> unit
end

(** A mutex usable both under real [Domain]s (delegates to
    [Stdlib.Mutex]) and under the scheduler (spins at yield points, so a
    blocked fiber burns scheduler steps instead of deadlocking the
    domain).  Tracks its holder for the blocking-detection adversary. *)
module Mutex : sig
  type t

  val create : unit -> t
  val lock : t -> tid:int -> unit
  val unlock : t -> tid:int -> unit

  (** Thread currently holding the lock, if any. *)
  val holder : t -> int option

  (** Crash-recovery use only: forcibly mark the lock free.  Lock state
      is volatile and does not survive a simulated machine failure — a
      fiber suspended inside the critical section never resumes.  The
      caller guarantees no live thread holds the lock. *)
  val reset : t -> unit
end

(** Adversarial schedule injections. *)
type injection =
  | Stall of { tid : int; at_step : int; duration : int option }
      (** Stop scheduling [tid] once the global step counter reaches
          [at_step]; resume it after [duration] further steps, or never
          ([None]). *)
  | Kill of { tid : int; at_step : int }
      (** [tid] never runs again after [at_step]. *)

type status =
  | Runnable  (** still had work to do when the run ended (blocked) *)
  | Finished
  | Excepted of exn
  | Stalled
  | Killed

type report = {
  steps : int;  (** scheduler steps consumed *)
  statuses : status array;  (** per-fiber final status *)
  applied : (int * int) list;
      (** [(tid, step)] at which each injection actually landed — equal
          to the requested step unless deferred by [hazard] *)
  budget_exhausted : bool;
      (** the run was cut off with runnable fibers left: some live
          thread could not finish within [budget] steps (a blocked or
          livelocked execution) *)
}

val pp_status : Format.formatter -> status -> unit

(** [run ~seed ~num_fibers body] executes [body 0 .. body (n-1)] as
    fibers under the seeded-random scheduler until every fiber is
    finished, killed, or stalled forever — or [budget] steps elapse.

    [injections]: stall/kill adversary, applied at yield-point
    granularity.  [hazard tid] (evaluated between steps, never inside a
    fiber) defers an injection while [true]: used to avoid stalling a
    thread at an instant where the simulation itself — not the algorithm
    under test — would lose progress (e.g. OneFile's combiner register,
    which on real hardware is released by the OS scheduler in bounded
    time).  A deferred injection lands at the target's next hazard-free
    yield point; the actual step is reported in [applied].

    [stop_at]: end the run unconditionally once the step counter reaches
    this value, leaving fibers suspended — the whole-machine crash used
    by the stall+crash+recovery composition.

    For the extent of the run the calling domain's {!Park} record is the
    scheduler's: [pause] and [sleep] are each one {!yield}, and [now_us]
    is [float (now ())].  The previous record is restored when [run]
    returns or raises.

    @raise Invalid_argument on a [run] nested in a fiber, on a [run]
    while another one is live anywhere in the process, or on
    out-of-range injection tids. *)
val run :
  ?seed:int ->
  ?budget:int ->
  ?injections:injection list ->
  ?hazard:(int -> bool) ->
  ?stop_at:int ->
  num_fibers:int ->
  (int -> unit) ->
  report
