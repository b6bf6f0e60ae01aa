(** RedoDB (§6): the paper's wait-free in-memory key-value store — a
    resizable hash map annotated with RedoOpt-PTM transactional semantics,
    offering the LevelDB/RocksDB API surface with durable-linearizable
    (serializable) transactions and null recovery. *)

include Db_intf.S

(** Like [open_db], but the durable image is a [MAP_SHARED] map of the
    named region file (created/truncated), so acked writes survive a
    real [kill -9] of this process — see {!Pmem.create}. *)
val open_backed :
  num_threads:int -> capacity_bytes:int -> backing:string -> unit -> t

(** Map an existing region file written by {!open_backed} (possibly by a
    dead process) and run the PTM's recovery; the existing store header
    is kept, not re-formatted.  Raises [Invalid_argument] on a geometry
    mismatch and {!Ptm.Ptm_intf.Unrecoverable} when the durable metadata
    refuses. *)
val reopen_backed : num_threads:int -> backing:string -> unit -> t

(** Crash under the media-fault model of the backing RedoOpt PTM (torn
    write-backs, then [bitflips] bit flips in the PTM's durable metadata)
    and recover.  [Ok elapsed] mirrors {!crash_and_recover}'s timing
    (recovery plus the first-transaction probe); [Error detail] reports a
    {!Ptm.Ptm_intf.Unrecoverable} image refused by the hardened recovery —
    only possible when [bitflips > 0]. *)
val crash_with_faults :
  t ->
  seed:int ->
  evict_prob:float ->
  torn_prob:float ->
  bitflips:int ->
  (float, string) result

(** Per-instance {!Pmem.set_flush_cost} override, so a serving layer can
    create regions cheaply and install the device model afterwards
    (initialisation flushes would otherwise pay it too). *)
val set_flush_cost : t -> int -> unit

(** Words in allocated blocks (the allocator's live count, block headers
    and power-of-two slack included), read in one read-only transaction. *)
val live_words : t -> tid:int -> int

(** {1 Commit journal and relocatable snapshots (shard rebuild)} *)

(** One committed write transaction's effective operations: puts
    ([Some v]) and deletes ([None]).  Replay is last-writer-wins
    idempotent. *)
type journal_rec = (string * string option) list

(** Switch on the volatile commit journal (off by default, and off is
    free): every later committed write transaction appends one
    {!journal_rec} in commit order — the journal lock is held across the
    PTM commit and the append, serializing journaled writers.  The
    serving layer's per-shard rebuild ledger. *)
val enable_journal : t -> unit

(** Whether the journal is enabled. *)
val journaling : t -> bool

(** Accumulated records, oldest (commit order) first; [[]] when off. *)
val journal_records : t -> tid:int -> journal_rec list

(** Drop the accumulated records.  To refresh a snapshot, cut FIRST and
    export SECOND: a commit landing in between then appears in both the
    journal and the snapshot, which idempotent replay tolerates —
    the opposite order could lose it from both. *)
val journal_cut : t -> tid:int -> unit

(** Replay records oldest-first, one transaction per record.  Bypasses
    the target's own journal (a rebuilt store re-exports right after). *)
val replay_journal : t -> tid:int -> journal_rec list -> unit

(** Sealed relocatable snapshot of the whole store: the PTM's consistent
    logical word image of its live extent (region-relative pointers
    only; the region's size is in its allocator header) framed with a
    magic, the image's word count, and a trailing
    {!Pmem.Checksum.digest}.  Its size follows the live data, not the
    capacity.  Taken inside one read-only transaction. *)
val export_snapshot : t -> tid:int -> string

(** Restore a snapshot into a brand-new region (fresh in-process region,
    or the named backing file when [backing] is given) — any offset, any
    [num_threads].  [Error] on a malformed blob or a digest mismatch;
    nothing is created in that case. *)
val open_from_snapshot :
  ?backing:string -> num_threads:int -> string -> (t, string) result

(** {1 Online scrub hooks} *)

(** Non-destructively re-verify the durable sealed PTM metadata (read
    from the durable image, which live operations never consult): [Error]
    means silent media rot that the next crash would trip over.  Safe
    concurrently with transactions. *)
val verify_meta : t -> (unit, string) result

(** Inject [count] silent single-bit flips into the durable metadata
    words only: invisible to live reads, caught by {!verify_meta}. *)
val corrupt_durable_meta : t -> seed:int -> count:int -> unit

(** [apply_guarded t ~tid ~guard:(key, live) ~settled ops]: in ONE
    transaction, iff [key] holds exactly the value [live], apply [ops]
    ([Some v] puts, [None] deletes) and overwrite [key] with [settled];
    returns whether the guard held (i.e. the batch applied).  The guard
    makes cross-shard roll-forward idempotent: of all racing appliers of
    a decided transaction (the committing writer, helping readers,
    recovery) exactly one commits the data — a later attempt finds the
    guard settled and leaves the shard untouched, so it can never revert
    keys that newer transactions have since overwritten.  A [settled] of
    [live]'s allocator block size overwrites it in place, storing only
    the words that change. *)
val apply_guarded :
  t ->
  tid:int ->
  guard:string * string ->
  settled:string ->
  (string * string option) list ->
  bool

(** {1 Iteration (the paper's "extended with iterator capabilities")} *)

(** A cursor over the keys of a consistent snapshot that start with one
    prefix, ordered by key. *)
type cursor

(** [seek t ~tid prefix] is a cursor over exactly the entries whose key
    starts with [prefix] (every entry for [""]), in ascending key order,
    positioned at the first.  All of them come from one snapshot: the
    read-only transaction the call runs in, so later writes never show.

    Cost: one pass over every hash chain that reads, per node, the key's
    length word and its first [ceil(|prefix| / 8)] packed words and
    compares them in place; only the [m] matches are decoded (key and
    value) and sorted — O(n + m log m) for a store of [n] keys, with
    allocation proportional to [m] alone. *)
val seek : t -> tid:int -> string -> cursor

(** Current entry, if the cursor is valid. *)
val entry : cursor -> (string * string) option

(** Advance; returns false once exhausted. *)
val next : cursor -> bool
