(** Wire protocol of the RedoDB serving front-end: length-prefixed frames
    ([<decimal length>'\n'<payload>]) whose payload is a line of
    space-separated tokens; keys and values travel as binary-safe
    netstrings ([<len>:<bytes>]).  See README.md "Serving" for the
    grammar. *)

(** Frames larger than this (16 MiB) are rejected at the framing layer. *)
val max_frame : int

type req =
  | Ping
  | Get of string
  | Put of string * string
  | Del of string
  | Scan of { prefix : string; max : int }
  | Mget of string list
  | Mput of (string * string) list
  | Stats
  | Metrics  (** Prometheus text exposition of the server's registry *)
  | Crash of { seed : int; evict_prob : float; torn_prob : float; bitflips : int }
  | Txstat of int
      (** resolve the fate of the write that carried this client token:
          answered from the durable outcome ledger, so it works across
          reconnects, server restarts and recovery *)
  | Health
      (** per-shard health states, reasons and scrub progress plus the
          [serve.health.*] counter totals, as a JSON document *)
  | Freeze of int  (** quarantine one shard by hand (admin) *)
  | Rebuild of int
      (** rebuild a quarantined shard online from its snapshot export
          plus commit-journal replay; answers [Ok_ms] with the rebuild
          milliseconds *)
  | Corrupt of { shard : int; seed : int; count : int }
      (** inject [count] silent bit flips into one shard's durable PTM
          metadata (torture hook, like [Crash]): invisible to live
          reads, caught by the online scrubber *)

(** Request envelope: the optional [RID]/[TTL]/[TOK] payload prefixes
    (in that order; 0 = absent).  [rid] is the trace id echoed on the
    response; [ttl_us] a deadline budget in microseconds after which the
    server sheds the still-queued request with [Timeout]; [tok] a client
    write token making PUT/DEL/MPUT retries exactly-once. *)
type env = { rid : int; ttl_us : int; tok : int }

type resp =
  | Ok
  | Ok_ms of float  (** CRASH acknowledgement carrying recovery milliseconds *)
  | Val of string
  | Nil
  | Vals of string option list  (** MGET results, in request order *)
  | Kvs of (string * string) list  (** SCAN results, key-sorted *)
  | Json of string  (** STATS payload: a JSON document *)
  | Text of string  (** METRICS payload: Prometheus text exposition *)
  | Overloaded  (** admission control rejected the request *)
  | Committed of { txid : int; epoch : int }
      (** MPUT ack: all-or-nothing across shards; [epoch] is the commit
          epoch ordering the transaction against snapshot reads ([txid]
          = 0 for the single-shard fast path, which has no 2PC record) *)
  | Unavail of string
      (** the request took no durable effect (engine crashing/crashed or
          the transaction definitely aborted) — safe to retry after
          recovery *)
  | In_doubt of int
      (** MPUT outcome unknown: the named transaction prepared durably
          but the decide result was lost; recovery completes or rolls it
          back, so the client must re-read before replaying *)
  | Timeout
      (** the request was shed before execution (its TTL expired while
          queued, or overload shedding dropped it): nothing ran, nothing
          durable happened — always safe to retry *)
  | Shard_unavailable of int
      (** the one shard this request needed is quarantined or
          rebuilding: nothing durable happened (a cross-shard MPUT is
          cleanly aborted, never a prefix commit), every other shard
          keeps serving — retry after the shard readmits *)
  | Txstat_committed of { txid : int; epoch : int; records : int }
      (** the token's write committed; [records] counts its outcome
          records — a correct engine writes exactly one, so [records >
          1] is proof of a duplicated (non-exactly-once) commit *)
  | Txstat_aborted  (** definitely rolled back; replaying is safe *)
  | Txstat_unknown
      (** still in flight (or the token was never seen and the engine
          cannot yet rule a verdict): poll again *)
  | Err of string

(** Payload encoding/decoding (framing excluded). Decoders return a
    human-readable reason on malformed input — the connection answers
    [Err reason] rather than dying.

    {b Trace context}: every payload may start with an optional
    [RID <n>] prefix (n > 0) carrying a client-assigned request id; the
    server echoes it on the matching response, which both links the
    request's spans in the trace export and is the frame-format
    groundwork for pipelining.  A payload without the prefix has id 0 —
    old clients and servers interoperate unchanged.  [encode_req]/
    [encode_resp] emit the prefix when [rid > 0]; [decode_req]/
    [decode_resp] accept and discard it, the [_rid] variants return it. *)

val encode_req : ?rid:int -> ?ttl_us:int -> ?tok:int -> req -> string
val decode_req : string -> (req, string) result
val decode_req_rid : string -> (int * req, string) result

(** Full envelope decode: RID, TTL and TOK prefixes. *)
val decode_req_env : string -> (env * req, string) result

val encode_resp : ?rid:int -> resp -> string
val decode_resp : string -> (resp, string) result
val decode_resp_rid : string -> (int * resp, string) result

(** Framed IO over a [Unix.file_descr].  The core is the incremental
    {!Io.Decoder}; the blocking [read_frame] below is a thin wrapper
    over it.  One [Io.t] per connection (reads); writes are stateless.
    Reads and writes retry [EINTR], and wait out [EAGAIN] through
    [Aio.wait_readable]/[Aio.wait_writable]: on an [Aio] fiber the wait
    parks the fiber and its loop keeps running; anywhere else it blocks
    in [select].  A signal or a full socket never desyncs the stream. *)
module Io : sig
  (** Raised out of {!read_frame} when the read deadline passes with the
      wanted bytes still missing.  The stream position is unspecified
      (the frame may be half-read): the only safe continuation is to
      close the connection. *)
  exception Read_timeout

  (** Incremental (resumable) frame decoder.  Feed it whatever bytes
      the socket had — dribbles, coalesced frames, half a header —
      and {!Decoder.next} either carves a complete frame or answers
      [`Need_more] without blocking.  The buffer is per-connection and
      growable; consumed frames are reclaimed by compaction, not
      per-frame allocation.  This is what lets one reactor domain
      interleave thousands of half-received connections. *)
  module Decoder : sig
    type t

    val create : ?initial:int -> unit -> t

    (** Append [n] bytes of [src] at [off] (copies; grows as needed). *)
    val feed : t -> Bytes.t -> int -> int -> unit

    val feed_string : t -> string -> unit

    (** [`Frame payload] consumes one complete frame; [`Need_more]
        means the buffered bytes end mid-header or mid-payload (never
        blocks); [`Error reason] poisons the stream — the position
        past a malformed header is unknowable, so answer once and
        close, exactly like the blocking path. *)
    val next : t -> [ `Frame of string | `Need_more | `Error of string ]

    (** Buffered-but-unconsumed byte count. *)
    val pending : t -> int

    (** Why an EOF at this point is dirty ([Some reason]), or [None]
        at a clean frame boundary. *)
    val eof_reason : t -> string option

    (** {2 Zero-copy fill} — reserve space with [ensure], read straight
        into [buffer] at [write_off] (at most [room] bytes), then
        account the bytes with [filled].  The reactor's read path. *)

    val ensure : t -> int -> unit
    val buffer : t -> Bytes.t
    val write_off : t -> int
    val room : t -> int
    val filled : t -> int -> unit
  end

  type t

  val of_fd : Unix.file_descr -> t

  (** The connection's decoder (shared with {!read_frame}). *)
  val decoder : t -> Decoder.t

  (** [set_deadline t d] arms an absolute wall-clock read deadline
      ([Unix.gettimeofday] scale): {!read_frame} waits for readability
      with it before reading, except right after a read that filled
      its buffer, and raises {!Read_timeout} when it passes.  [0.] (the
      initial state) waits forever.  On a blocking fd the deadline
      bounds each wait for bytes that have not arrived; a fd read from
      an [Aio] fiber must be non-blocking. *)
  val set_deadline : t -> float -> unit

  (** [Ok None] is a clean EOF at a frame boundary. *)
  val read_frame : t -> (string option, string) result

  (** One [Unix.write] when the socket has room; on [EAGAIN] it waits
      until the fd is writable (never spins), then writes the rest. *)
  val write_frame : t -> string -> unit
end
