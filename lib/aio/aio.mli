(** Edge-triggered epoll event loop running OCaml-effects fibers.

    One {!loop} owns one domain: fibers are cooperative coroutines
    multiplexed over that domain, suspended by effects and resumed by
    the loop when their IO readiness, timer, or hand-rolled wake
    condition arrives.  The suspend/resume machinery mirrors
    {!Sched} — a domain-local hook makes {!yield}/{!active} safe to
    call from library code that never heard of the loop (it no-ops
    outside one).  Library waits reach the loop through {!Park}: {!run}
    installs the loop's park record, so the serving engine's spin-waits
    become fiber yields instead of reactor stalls.

    {b IO contract}: file descriptors handed to {!wait_readable}/
    {!wait_writable} must be non-blocking, and a fiber must only wait
    after the syscall returned [EAGAIN] — interest is registered
    edge-triggered once per fd, and the kernel reports readiness
    present at registration time, so the EAGAIN-then-wait discipline
    can never miss an edge.  Readiness observed while nobody waited is
    remembered (sticky per-direction flags) and handed to the next
    waiter immediately.

    Every entry point degrades gracefully outside a loop: {!yield} is
    a no-op, {!sleep} is [Unix.sleepf], and the wait calls block in
    [select] — callers need no mode test.

    The loop exports [aio.*] metrics counters (polls, wakeups, fiber
    spawns, IO waits/timeouts, timer fires, cross-domain posts). *)

type loop

(** [create ()] builds a loop (epoll instance on Linux, select backend
    elsewhere) without running it.  [tid] labels the loop's metrics
    counters (default 0). *)
val create : ?tid:int -> unit -> loop

(** [run l main] installs [l] as the calling domain's current loop and
    the loop's {!Park} record (a [pause] yields the fiber, then sleeps
    it on a timer from the 256th consecutive pause on; [sleep] is a
    fiber timer; [now_us] is wall time), runs [main] as the first fiber,
    and drives the event loop until every fiber has finished or {!stop}
    is called.  Both are restored when [run] returns or raises.  A fiber that
    raises is counted ([aio.fibers.raised]) and reported on stderr;
    the loop keeps running.  Nested runs are a programming error. *)
val run : loop -> (unit -> unit) -> unit

(** Enqueue a thunk from any domain; it runs as a fresh fiber on the
    loop's domain (a self-pipe wakes the loop if it is blocked in the
    kernel).  Safe before [run] — the fiber starts once the loop
    does. *)
val post : loop -> (unit -> unit) -> unit

(** Ask the loop to exit after the current batch of ready fibers.
    Safe from any domain.  Suspended fibers are abandoned (their
    continuations are dropped), so stop only once their resources are
    already being torn down. *)
val stop : loop -> unit

(** Live fibers of the loop (diagnostics). *)
val fibers : loop -> int

(** True iff the calling context is a fiber of a running loop. *)
val active : unit -> bool

(** Reschedule the calling fiber behind the ready queue; no-op outside
    a loop.  The universal spin-wait escape hatch. *)
val yield : unit -> unit

(** Start a new fiber on the current loop (must be called from inside
    one, i.e. when {!active}). *)
val spawn : (unit -> unit) -> unit

(** Suspend for [s] seconds: a deadline timer inside a loop,
    [Unix.sleepf] outside one. *)
val sleep : float -> unit

(** [suspend f] parks the calling fiber and hands [f] a resume
    callback; calling it (from the loop's own domain — fibers only
    interleave at suspension points, so no lock is needed) moves the
    fiber back to the ready queue.  Call it at most once.  The
    building block for condition variables, bounded queues, gates. *)
val suspend : ((unit -> unit) -> unit) -> unit

type waited = [ `Ready | `Timed_out ]

(** [wait_readable ?deadline fd] suspends until [fd] has a read edge
    (or buffered stickiness) pending, or the absolute wall-clock
    [deadline] ([Unix.gettimeofday] scale; [0.]/absent = wait forever)
    passes.  Outside a loop: blocking [select].  Only call after
    [EAGAIN]; [fd] must be non-blocking inside a loop. *)
val wait_readable : ?deadline:float -> Unix.file_descr -> waited

val wait_writable : ?deadline:float -> Unix.file_descr -> waited

(** Unregister [fd] from the current loop (waking any of its waiters
    with [`Ready]; they will observe the closed fd from their next
    syscall) and close it.  Outside a loop, just closes.  Closing
    through this function is what keeps a recycled fd number from
    inheriting stale interest. *)
val close : Unix.file_descr -> unit
