(** Common interface of every PTM in this reproduction.

    A PTM instance owns a logical region of 64-bit words backed by simulated
    NVMM ({!Pmem}).  Data structures address the region by word offset; the
    offset [0] is the NULL pointer and offsets [1 .. Palloc.root_slots] are
    persistent root slots (see {!Palloc}).  Multi-replica PTMs map logical
    offsets to the physical replica under execution, which is how the
    paper's "all pointers reference the MAIN region" scheme appears here.

    Update transactions are expressed as closures over an abstract
    transaction handle.  A closure passed to {!S.update} must be
    deterministic and re-executable: wait-free PTMs may run it several times
    (CX) or have helper threads run it (Redo), exactly as the paper
    requires.  Results are [int64], mirroring the paper's [results[N]]
    array through which helpers hand results back. *)

(** Raised by recovery when no consistent durable image exists: every
    candidate copy of the durable metadata (log header, replica record,
    main/back flag, ...) failed its checksum validation, so presenting any
    state would risk silent corruption.  [ptm] names the implementation,
    [detail] says which structure was damaged.  Under the media-fault model
    this can only follow injected bit flips ({!Pmem.corrupt_words}): clean
    crashes, evictions and torn write-backs always leave at least one
    validated image. *)
exception Unrecoverable of { ptm : string; detail : string }

module type S = sig
  val name : string

  type t
  type tx

  (** [create ~num_threads ~words ()] builds a PTM instance whose logical
      region holds [words] 64-bit words and that accepts thread ids
      [0 .. num_threads - 1].  The region is formatted (allocator metadata
      initialised) and durably persisted before returning. *)
  val create : num_threads:int -> words:int -> unit -> t

  (** {2 Transactional accesses (valid only inside the enclosing
      [update]/[read_only] callback and on its own [tx])} *)

  val get : tx -> int -> int64
  val set : tx -> int -> int64 -> unit

  (** Transactional allocation in persistent memory (wait-free under the
      wait-free PTMs because the allocator metadata is ordinary
      transactional data).  @raise Palloc.Out_of_memory *)
  val alloc : tx -> int -> int

  val dealloc : tx -> int -> unit

  (** {2 Transactions} *)

  (** [update t ~tid f] runs [f] as a durable-linearizable update
      transaction: when it returns, the transaction's effects are visible to
      all threads and durable. *)
  val update : t -> tid:int -> (tx -> int64) -> int64

  (** [read_only t ~tid f] runs [f] as a read-only transaction on a
      consistent, durable snapshot.  [f] must not call [set]/[alloc]/
      [dealloc]. *)
  val read_only : t -> tid:int -> (tx -> int64) -> int64

  (** {2 Failure injection and recovery} *)

  (** Simulate a full-system non-corrupting failure followed by restart:
      volatile state is discarded, the durable image is reloaded and the
      PTM's recovery procedure runs.  The instance is usable again when this
      returns. *)
  val crash_and_recover : t -> unit

  (** Same, but first lets each dirty, unflushed cache line survive with
      probability [prob] (random cache evictions). *)
  val crash_with_evictions : t -> seed:int -> prob:float -> unit

  (** [crash_with_faults t ~seed ~evict_prob ~torn_prob ~bitflips] crashes
      under the full media-fault model: dirty lines are evicted with
      probability [evict_prob], evicted lines are torn with probability
      [torn_prob] (see {!Pmem.crash_with_faults}), and after the crash
      [bitflips] random single-bit flips are injected into the durable
      metadata words reported by {!meta_ranges}; then recovery runs.
      @raise Unrecoverable if recovery finds no consistent durable image
      (possible only when [bitflips > 0]). *)
  val crash_with_faults :
    t -> seed:int -> evict_prob:float -> torn_prob:float -> bitflips:int -> unit

  (** Inclusive word ranges (physical addresses) of the durable metadata
      this PTM validates during recovery: checksummed log headers/entries,
      sealed state words, replica records.  Computed from the current
      durable image — call it post-crash for fault targeting.  Flips outside
      these ranges land in user payload words, which carry no redundancy by
      design and are therefore undetectable (the fault model corrupts
      metadata to test the detectors, not the data plane). *)
  val meta_ranges : t -> (int * int) list

  (** {2 Progress introspection (deterministic-scheduler harness)} *)

  (** Whether the construction guarantees that an announced operation
      completes even if the announcing thread never runs again (helpers
      finish it).  Blocking baselines (PMDK-sim, Romulus) answer [false];
      the progress sweep expects them to be {e detected} as blocked. *)
  val wait_free : bool

  (** [stall_hazard t ~tid]: would stopping [tid] {e right now} wedge the
      simulation itself rather than exercise the algorithm's helping
      paths?  Used by the scheduler adversary to defer a stall/kill to the
      target's next hazard-free yield point.  Wait-free PTMs answer [true]
      only for simulation artifacts whose real-hardware counterpart is
      released in bounded time (e.g. OneFile's combiner register, a stand-
      in for its combining round that an OS never parks forever); blocking
      PTMs answer [true] exactly while [tid] holds the global lock — which
      is what the blocked-detection round targets. *)
  val stall_hazard : t -> tid:int -> bool

  (** [announced_pending t ~tid]: has [tid] announced an operation that is
      not yet completed?  Conservative (never [true] for an operation
      helpers cannot see yet); the progress oracle requires every pending
      announcement of a stalled/killed thread to complete on wait-free
      PTMs.  Always [false] on PTMs with no announcement mechanism. *)
  val announced_pending : t -> tid:int -> bool

  (** {2 Introspection} *)

  val pmem : t -> Pmem.t
  val stats : t -> Pmem.Stats.snapshot
  val breakdown : t -> Breakdown.t

  (** Words of NVM in use: live allocator blocks plus static region
      overhead (replicas, logs kept in PM). *)
  val nvm_usage_words : t -> int

  (** Approximate words of volatile memory the PTM keeps (logs, states,
      queues). *)
  val volatile_usage_words : t -> int
end

(** Convenience: run an update transaction ignoring the result. *)
let update_unit (type t tx) (module P : S with type t = t and type tx = tx)
    (p : t) ~tid f =
  ignore (P.update p ~tid (fun tx -> f tx; 0L))

(** A PTM packaged with an instance, for heterogeneous benchmark tables. *)
type boxed = Boxed : (module S) -> boxed

(** The three crash entry points of {!S}, written once from a PTM's
    [pmem], [recover] and [meta_ranges]: each PTM [include]s them. *)
module Crash (P : sig
  type t

  val pmem : t -> Pmem.t
  val recover : t -> unit
  val meta_ranges : t -> (int * int) list
end) =
struct
  let crash_and_recover t =
    Pmem.crash (P.pmem t);
    P.recover t

  let crash_with_evictions t ~seed ~prob =
    Pmem.crash_with_evictions (P.pmem t) ~seed ~prob;
    P.recover t

  (* The flips draw from their own stream, [seed + 0x0bf1], so adding
     them leaves the crash's evictions and tears unchanged. *)
  let crash_with_faults t ~seed ~evict_prob ~torn_prob ~bitflips =
    Pmem.crash_with_faults (P.pmem t) ~seed ~evict_prob ~torn_prob;
    if bitflips > 0 then
      Pmem.corrupt_words_in (P.pmem t) ~seed:(seed + 0x0bf1) ~count:bitflips
        ~ranges:(P.meta_ranges t);
    P.recover t
end
