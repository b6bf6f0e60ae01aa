(** The durable [curComb] metadata of the two universal constructions,
    CX ({!Cx_ptm}) and Redo ({!Redo_ptm}): region layout, sealed header,
    per-replica fallback records, and the recovery rule that reads them.

    Layout: a 64-word metadata block, then [nrep] replicas of [stride]
    words (the logical size rounded up to whole cache lines, so one torn
    write-back never spans two replicas).  Word 0 is the header: a
    {!Seqtid.t} naming the replica that is both up to date and persisted,
    sealed ({!Pmem.Checksum.seal}) so it persists atomically with its
    validity tag; sealing is deterministic, so CAS still works.  Word
    [1 + i] is replica [i]'s record (first 62 replicas only): its seq and
    index, sealed, written under the fence that proves the replica
    consistent and zeroed (best effort, unfenced) when the replica is
    taken for mutation.  If the header is bit-flip corrupt, recovery
    falls back to the newest record.  The residual window (record evicted
    early, replica lines not yet fenced, header also corrupt) needs two
    independent faults; README's fault-model table lists it. *)

type t

(** Map a fresh region of [nrep] replicas of [words] logical words;
    nothing is formatted.  [ptm] names the construction in errors.
    @raise Invalid_argument if [words] cannot hold the allocator header. *)
val create :
  ?backing:string -> ptm:string -> max_threads:int -> nrep:int -> words:int ->
  unit -> t

(** Map an existing region file of [nrep] replicas; its size fixes the
    stride.  @raise Invalid_argument if the size does not fit the layout. *)
val reopen : ptm:string -> max_threads:int -> nrep:int -> backing:string -> unit -> t

val pmem : t -> Pmem.t

(** Words per replica: the logical region size. *)
val stride : t -> int

(** [base t i] is the physical address of replica [i]'s word 0. *)
val base : t -> int -> int

(** [index t base] is the replica at physical address [base]. *)
val index : t -> int -> int

(** Durably format replica 0 as an empty allocator heap, or as [image]
    (an exported logical image of [stride] words), then seal the header
    and record 0 at seq 0 naming it.  Only the image's {!extent} is
    written and flushed: the words above it are unallocated. *)
val format : ?image:int64 array -> t -> unit

(** {2 Live extent}

    A replica's live data is its metadata, root slots, allocator
    metadata and every block ever carved from the heap: words
    [\[0, heap_base + used_words)] ({!Palloc.used_words}).  Words above
    it are unspecified ({!Palloc}), so replica copies and whole-replica
    flushes stop there. *)

(** [used_words t i] is {!Palloc.used_words} read through replica [i]'s
    volatile image. *)
val used_words : t -> int -> int

(** [extent t i] is replica [i]'s live extent in words, read through its
    volatile image, rounded up to a whole line and clamped to
    [\[heap_base, stride\]] (the clamp only matters to an optimistic
    copy reading a replica mid-mutation, which it then discards). *)
val extent : t -> int -> int

(** [pwb_extent t ~tid i lines] pwbs every line of replica [i]'s
    {!extent}, plus each line of [lines] (replica-relative line numbers)
    above it: undo residue of a reverted transaction lies there. *)
val pwb_extent : t -> tid:int -> int -> Line_set.t -> unit

(** {2 Header} *)

(** The header word as stored: the [expected] value of {!cas_header}. *)
val header_word : t -> int64

(** Unseal a header word.  Recovery rewrites the header before the
    instance is handed back, so outside it a broken seal means the image
    was corrupted under us.  @raise Ptm_intf.Unrecoverable then. *)
val decode : t -> int64 -> Seqtid.t

(** Durable CAS of the header from [expected] to the sealed value. *)
val cas_header : t -> tid:int -> expected:int64 -> Seqtid.t -> bool

(** CAS the header to the given value if its seq is older; return the
    seq the header holds afterwards. *)
val advance : t -> tid:int -> Seqtid.t -> int

(** pwb the header, then psync. *)
val persist_header : t -> tid:int -> unit

(** {2 Replica records} *)

(** Seal replica [i]'s record at [seq] and pwb it; the caller's
    pre-publication fence covers it. *)
val write_record : t -> tid:int -> int -> seq:int -> unit

(** Zero replica [i]'s record and pwb it, unfenced. *)
val retire_record : t -> tid:int -> int -> unit

(** {2 Recovery} *)

(** The replica recovery loads: the one a valid header names; if the
    header's seal is broken, the newest record's, provided every nonzero
    record is valid and no two tie at the newest seq.
    @raise Ptm_intf.Unrecoverable when no unambiguous replica exists. *)
val recover_replica : t -> int

(** Start a new epoch: CAS the header to the given value (seq 0, naming
    the recovered replica, with the caller's owner tid), seal that
    replica's record at seq 0, zero the others, persist. *)
val reset_epoch : t -> Seqtid.t -> unit

(** {2 Fault model} *)

(** The header and the live records, as one inclusive word range. *)
val meta_ranges : t -> (int * int) list

(** Scrub check of the {e durable} image: the header unseals to an
    in-range replica and every nonzero record is valid. *)
val verify : t -> (unit, string) result

(** Durable-only bit flips inside {!meta_ranges}
    ({!Pmem.corrupt_durable_words_in}). *)
val corrupt_durable : t -> seed:int -> count:int -> unit
