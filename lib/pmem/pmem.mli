(** Simulated byte-addressable non-volatile main memory (NVMM).

    The paper's testbed is Intel Optane DC persistent memory driven with the
    [CLWB] (persistence write-back, "pwb") and [SFENCE] (persistence fence,
    "pfence"/"psync") instructions.  This module replaces that hardware with a
    deterministic model that preserves exactly the properties the paper's
    durable-linearizability arguments rest on:

    - memory is an array of 64-bit words grouped in 64-byte cache lines;
    - a store only modifies the volatile (cache) image;
    - [pwb] stages the containing cache line for write-back;
    - [pfence]/[psync] makes every line staged by the calling thread durable;
    - a crash discards the volatile image: only the durable image survives;
    - optionally, a crash may first "evict" a random subset of dirty lines to
      the durable image, modelling the fact that real caches may write back a
      dirty line at any time, even without an explicit flush.

    All flush instructions are counted per-thread, which is how we reproduce
    the paper's pwb-count measurements (Figure 5 right, Figure 9 right).

    Thread-safety contract: distinct threads may operate on distinct words
    concurrently; concurrent mutation of the same word must be prevented by
    the caller (the PTMs guarantee this with per-replica exclusive locks).
    Word reads/writes use aligned 64-bit accesses and do not tear. *)

(** Checksums and sealed self-validating words for durable metadata
    (re-exported: [Pmem] is this library's root module). *)
module Checksum : module type of Checksum

type t

(** Raised by an armed crash-injection plan (see {!section:inject}) at the
    persistence-relevant event it selected.  After it fires, the region is
    {e frozen}: every store/flush becomes a silent no-op ([cas_word]
    re-raises) until {!crash} or {!crash_with_evictions} is called. *)
exception Crash_injected

(** Number of 64-bit words per simulated cache line (64 bytes). *)
val words_per_line : int

(** [create ~max_threads ~words ()] allocates a region of [words] 64-bit
    words (rounded up to a cache-line multiple) usable by thread ids
    [0 .. max_threads - 1]. The region starts zeroed, and zeroed durable.
    Both images (and the dirty-line marks) are private maps of
    [/dev/zero], which the OS commits a page at a time on first touch:
    a region costs resident memory for the lines it has used, not for
    its capacity.

    With [?backing:path] the durable image is a [MAP_SHARED] mmap of the
    named region file (created/truncated to size): write-backs land in
    the kernel page cache and therefore survive a [kill -9] of this
    process, while the volatile image, staging buffers and dirty set die
    with it — a real process kill becomes an honest instance of the
    power-failure model.  A kill between the per-word durable stores of
    one line write-back leaves a torn line (never a torn word), the
    fault class {!crash_with_faults} already exercises. *)
val create : ?backing:string -> max_threads:int -> words:int -> unit -> t

(** [reopen ~max_threads ~backing ()] maps an existing region file
    written by [create ?backing] (in this or a previous process) without
    truncating it.  Geometry is taken from the file size, which must be
    a positive cache-line multiple.  The volatile image starts as a copy
    of the durable one — the state of a machine that just powered on —
    made by compare-and-write as in {!crash}, so callers run their
    recovery procedure next. *)
val reopen : max_threads:int -> backing:string -> unit -> t

(** Total number of words in the region. *)
val size_words : t -> int

(** {1 Volatile (cached) accesses} *)

val get_word : t -> int -> int64
val set_word : t -> tid:int -> int -> int64 -> unit

(** [blit_words t ~tid ~src ~dst len] copies [len] words inside the volatile
    image (used for replica copies).  Destination lines become dirty. *)
val blit_words : t -> tid:int -> src:int -> dst:int -> int -> unit

(** [cas_word t ~tid addr ~expected ~desired] atomically compares-and-swaps a
    PM-resident word (the paper's persistency model allows atomic 64-bit
    operations on PM, e.g. CX's [curComb]).  Because the word itself is only
    ever updated by winning CAS operations, later flushes can never regress
    it to an older value. *)
val cas_word : t -> tid:int -> int -> expected:int64 -> desired:int64 -> bool

(** {1 Persistence instructions} *)

(** [pwb t ~tid addr] stages the cache line containing word [addr] for
    write-back by thread [tid].  The line's contents become durable at that
    thread's next [pfence]/[psync] (with the contents as of fence time, which
    is within the allowed behaviours of [CLWB; SFENCE]). *)
val pwb : t -> tid:int -> int -> unit

(** Flush an inclusive word range: one [pwb] per distinct cache line.
    An empty range ([lo > hi]) is a no-op. *)
val pwb_range : t -> tid:int -> int -> int -> unit

(** Persistence fence: make all lines staged by [tid] durable. *)
val pfence : t -> tid:int -> unit

(** [set_default_flush_cost iters] sets a process-wide device model for
    regions created afterwards: every cache line written back at a fence
    busy-waits [iters] [cpu_relax] iterations, approximating the per-line
    CLWB+drain cost of Optane DC PMEM ([iters] ~ 100 is a few hundred ns).
    Defaults to 0 (flushes cost only the copy), which unit tests use;
    the benchmark harness enables it so that flush counts translate into
    time the way they do on the paper's hardware. *)
val set_default_flush_cost : int -> unit

(** Per-region override of the flush cost model. *)
val set_flush_cost : t -> int -> unit

(** Persistence sync: same durability effect as [pfence]; counted apart
    because the paper distinguishes the two (one pfence + one psync per
    transaction). *)
val psync : t -> tid:int -> unit

(** [ntstore_word t ~tid addr v] non-temporal store: writes the word and
    stages its line without a separate [pwb] (models [movnt]). Durable at the
    next fence. *)
val ntstore_word : t -> tid:int -> int -> int64 -> unit

(** [ntcopy_words t ~tid ~src ~dst len] replica copy using non-temporal
    stores: volatile copy + staging of every destination line, counted as
    ntstores rather than pwbs. *)
val ntcopy_words : t -> tid:int -> src:int -> dst:int -> int -> unit

(** {1 Failures and recovery} *)

(** [crash t] simulates a full-system non-corrupting failure: the volatile
    image is replaced by the durable image; all staged lines and dirty state
    are discarded. Deterministic: unflushed lines never survive.
    The reload is a compare-and-write over {e every} word: a word is
    stored only where the two images differ, so pages neither image has
    touched stay uncommitted, while durable-only damage on a line that
    was never dirtied (see {!corrupt_durable_words_in}) still reaches the
    volatile image. *)
val crash : t -> unit

(** [crash_with_evictions t ~seed ~prob] first writes back each dirty line
    with probability [prob] (simulating arbitrary cache evictions before the
    failure), then behaves like [crash].  Eviction write-backs do not pay the
    [flush_cost] device model: no program instruction executes them.
    Correct algorithms must recover from any such outcome. *)
val crash_with_evictions : t -> seed:int -> prob:float -> unit

(** [crash_with_faults t ~seed ~evict_prob ~torn_prob] is the media-fault
    superset of {!crash_with_evictions}: each dirty line is evicted with
    probability [evict_prob], and each evicted line is additionally {e torn}
    with probability [torn_prob] — only a random nonempty proper subset of
    its 8 words reaches the durable image (half the time a prefix, modelling
    a write-back cut short; half the time an arbitrary subset, modelling
    word-granularity reordering).  Individual 64-bit words always persist
    atomically, matching the paper's 8-byte atomic-persist baseline: tearing
    breaks multi-word atomicity only.  Deterministic from [seed] (a
    different stream from [crash_with_evictions], even at [torn_prob = 0]).
    Torn lines are counted in {!Stats} and the [pmem.fault.torn_line]
    metric. *)
val crash_with_faults :
  t -> seed:int -> evict_prob:float -> torn_prob:float -> unit

(** [corrupt_words t ~seed ~count] flips one random bit in each of [count]
    randomly drawn durable words (media errors).  The flip is mirrored into
    the volatile image, so call it on a quiesced region — normally right
    after a crash, before recovery.  Deterministic from [seed]; counted in
    {!Stats} and the [pmem.fault.bit_flip] metric. *)
val corrupt_words : t -> seed:int -> count:int -> unit

(** [corrupt_words_in t ~seed ~count ~ranges] restricts {!corrupt_words} to
    the union of the given inclusive word ranges (empty ranges are skipped);
    used to target durable metadata, where corruption is detectable, rather
    than user payload words, which carry no redundancy by design. *)
val corrupt_words_in :
  t -> seed:int -> count:int -> ranges:(int * int) list -> unit

(** [corrupt_durable_words_in t ~seed ~count ~ranges] is
    {!corrupt_words_in} restricted to the durable image: the volatile copy
    the running process reads is left intact, modelling {e silent} media rot
    under a live region.  Running operations cannot observe the damage; it
    surfaces only to a scrubber re-reading {!durable_word} against expected
    checksums, or at the next crash, when the volatile image is reloaded
    from the rotten durable one.  Same RNG stream as {!corrupt_words_in}
    (equal seeds target equal words/bits); counted in {!Stats} and the
    [pmem.fault.bit_flip] metric. *)
val corrupt_durable_words_in :
  t -> seed:int -> count:int -> ranges:(int * int) list -> unit

(** [durable_word t addr] reads the durable image directly (test oracle). *)
val durable_word : t -> int -> int64

(** {1:inject Crash injection}

    A fault-injection layer for mid-transaction crash testing.  When step
    tracking is on, every persistence-relevant event is numbered by a
    monotone {e step} counter: each [set_word], [ntstore_word], successful
    [cas_word], [pwb], [pfence] and [psync] is one step; [pwb_range],
    [blit_words] and [ntcopy_words] are one step {e per cache line} touched.
    An injection plan picks a step and raises {!Crash_injected} immediately
    after that step's effect, freezing the region (stores/flushes no-op;
    [cas_word] re-raises so that CAS retry loops cannot spin on a dead
    machine; reads still work).  The dirty-line set at the crash point is
    preserved, so following up with {!crash_with_evictions} explores
    arbitrary cache evictions of exactly the lines that were in flux.
    Tracking adds one branch per event when off (the default).

    Step streams are deterministic for single-threaded workloads, which is
    what makes [inject_crash_after_step] reproducible; with concurrent
    threads the numbering depends on the interleaving. *)

(** [set_step_tracking t on] enables/disables the step counter.  Enabling
    (re)sets the counter to zero. *)
val set_step_tracking : t -> bool -> unit

(** Current value of the step counter. *)
val steps : t -> int

(** [inject_crash_after_step t n] arms a crash [n >= 1] steps from now
    (i.e. at absolute step [steps t + n]).  Implies step tracking (without
    resetting the counter).  Replaces any previously armed plan. *)
val inject_crash_after_step : t -> int -> unit

(** [inject_crash_probabilistic t ~seed ~prob] arms a crash that fires at
    each subsequent step with probability [prob], using a dedicated RNG
    seeded with [seed].  Implies step tracking. *)
val inject_crash_probabilistic : t -> seed:int -> prob:float -> unit

(** Disarm the current plan, if any (does not unfreeze a fired crash). *)
val clear_injection : t -> unit

(** Whether a plan is armed and has not fired yet. *)
val crash_pending : t -> bool

(** Whether an injected crash has fired and the region is frozen. *)
val crash_fired : t -> bool

(** {1 Statistics} *)

module Stats : sig
  type snapshot = {
    pwb : int;
    pfence : int;
    psync : int;
    ntstore : int;
    steps : int; (* persistence-relevant events seen while tracking *)
    crashes_injected : int; (* Crash_injected raised so far *)
    torn_lines : int; (* lines persisted partially by crash_with_faults *)
    bit_flips : int; (* words corrupted by corrupt_words[_in] *)
  }

  val zero : snapshot
  val add : snapshot -> snapshot -> snapshot
  val diff : snapshot -> snapshot -> snapshot

  (** Total fence instructions ([pfence + psync]). *)
  val fences : snapshot -> int

  val pp : Format.formatter -> snapshot -> unit
end

(** Aggregate counters across all threads, plus the injection counters
    ([steps], [crashes_injected]). *)
val stats : t -> Stats.snapshot

(** Counters of one thread only ([steps]/[crashes_injected] are global and
    reported as 0 here). *)
val stats_of_tid : t -> tid:int -> Stats.snapshot

(** One snapshot per thread id [0 .. max_threads - 1] (see
    {!stats_of_tid}); lets benches report flush imbalance across helper
    threads. *)
val stats_per_thread : t -> Stats.snapshot array

(** Reset all per-thread counters to zero.  The [steps] counter and the
    injected-crash count are left alone: an armed [At_step] plan is relative
    to the absolute step counter. *)
val reset_stats : t -> unit
