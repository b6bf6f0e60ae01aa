(** Redo-PTM (paper §5) and its variants: Herlihy-style combining
    consensus, N+1 replicas guarded by strong try reader-writer locks,
    physical (volatile) redo/undo logs replayed by lagging replicas, a
    ring of pre-allocated States bounding memory, and a PM-resident
    [curComb] whose durable value never regresses.  Two fences per update
    transaction. *)

module type CONFIG = sig
  val name : string

  (** Restrict updates to the first two Combined instances for a bounded
      time window (RedoTimed). *)
  val timed : bool

  (** Store aggregation: hash write-set coalescing repeated stores. *)
  val store_agg : bool

  (** Flush aggregation: deduplicate pwbs by cache line, with a whole-
      extent fallback past 1/10th of the object. *)
  val flush_agg : bool

  (** Postpone pwbs to just before the [curComb] transition. *)
  val deferred_pwb : bool

  (** Replica copies through non-temporal stores. *)
  val ntstore_copy : bool

  (** Fault-injection hook for the crash-point test suite: skip the pfence
      that makes the replica durable before the [curComb] transition.  Such
      a configuration is {e deliberately broken} — the crash-surface sweep
      must catch it.  Always [false] in real configurations. *)
  val omit_prepub_fence : bool
end

(** {!Ptm_intf.S} plus file-backed region persistence: the durable image
    lives in a [MAP_SHARED] region file (see {!Pmem.create}), so it
    survives a real [kill -9] of the owning process and a fresh process
    can {!S_backed.reopen} it and run the normal recovery path. *)
module type S_backed = sig
  include Ptm_intf.S

  (** Like [create], but the durable image is the named region file
      (created/truncated). *)
  val create_backed :
    num_threads:int -> words:int -> backing:string -> unit -> t

  (** Map an existing region file written by [create_backed] (possibly
      by a dead process) and recover it.  Geometry comes from the file
      size; [num_threads] must match the creating configuration (the
      replica count [num_threads + 1] is validated against the size).
      Raises [Invalid_argument] on a size mismatch and
      {!Ptm_intf.Unrecoverable} when the durable metadata refuses. *)
  val reopen : num_threads:int -> backing:string -> unit -> t

  (** {2 Relocatable snapshots and online scrub}

      A snapshot is the logical word image of one consistent replica.
      All pointers in the image are region-relative offsets, so it can be
      imported into a brand-new region (any base, any replica count) —
      Puddles-style relocatable regions with application-independent
      restore. *)

  (** Consistent logical image of the live extent ({!Curcomb.extent}),
      taken inside one read-only transaction, so it never observes a
      half-applied update.  The words above the extent are unallocated
      and left out, so the image's size follows the live data, not the
      capacity; the region's size is recorded in its allocator header
      ({!Palloc.heap_end}). *)
  val export_image : t -> tid:int -> int64 array

  (** Build a fresh instance whose replica-0 heap is the given exported
      image (instead of a newly formatted empty heap), of the size the
      image's allocator header records; the words above the image stay
      zero.  [num_threads] may differ from the exporting instance's.
      @raise Invalid_argument if the image is shorter than the allocator
      header, longer than that size, or either is not cache-line
      aligned. *)
  val create_from_image :
    ?backing:string -> num_threads:int -> image:int64 array -> unit -> t

  (** Non-destructive scrub check of the durable sealed metadata (the
      [curComb] header and replica records), read from the {e durable}
      image ({!Pmem.durable_word}) rather than the volatile one live
      operations see: detects silent media rot before the next crash
      turns it into an {!Ptm_intf.Unrecoverable} (or worse, a silent
      rollback).  Safe to call concurrently with transactions. *)
  val verify_meta : t -> (unit, string) result

  (** Inject [count] silent single-bit flips into the durable metadata
      words only ({!Pmem.corrupt_durable_words_in} over the sealed
      header/record range): live reads cannot observe them, {!verify_meta}
      can.  Scrub-harness fault injection. *)
  val corrupt_durable_meta : t -> seed:int -> count:int -> unit
end

module Make (C : CONFIG) : S_backed

(** Base Redo-PTM: no optimizations, stores flushed immediately. *)
module Base : S_backed

(** Redo-PTM + the two-instance time window and backoff. *)
module Timed : S_backed

(** RedoTimed + store aggregation, flush aggregation, postponed pwbs and
    ntstore copies — the paper's flagship configuration. *)
module Opt : S_backed
