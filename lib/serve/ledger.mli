(** The exactly-once outcome ledger.  A tokened write leaves one durable
    outcome record ({!Commit.outcome_op}) in the same PTM transaction as
    the write; the ledger answers retries and TXSTAT from those records,
    plus a volatile set of tokens with a write in flight. *)

(** Resolution of a client write token. *)
type tx_status =
  | Tx_committed of { txid : int; epoch : int; records : int }
      (** the token's write committed; [records] counts its durable
          outcome records across shards — a correct engine leaves
          exactly one, so [records > 1] is proof of a duplicated
          (non-exactly-once) commit *)
  | Tx_aborted  (** no durable outcome and not in flight: definitely
                    rolled back (presumed abort) — replaying is safe *)
  | Tx_unknown
      (** the token has a write in flight right now; poll again *)

type t

(** [mutants] is the engine's installed list, shared.  The lookups take
    [dbs], the instances serving the shards at the time of the call. *)
val create : mutants:Commit.mutant list ref -> t

(** Run [f] with the client tokens [toks] marked in flight (a token
    [<= 0] is no token). *)
val with_active : t -> tid:int -> int list -> (unit -> 'a) -> 'a

(** The ack of [tok]'s already-committed write, if the ledger holds one
    ([serve.retry.dedup_hits]); always [None] under {!Commit.No_dedup}. *)
val dedup : t -> tid:int -> dbs:Kv.Redodb.t array -> int -> Commit.ack option

(** {!dedup} for a single-key write (PUT, DEL) on shard [db], the shard
    of its key: one point read of its txid-0 outcome record instead of a
    prefix scan of every shard. *)
val dedup_key : t -> tid:int -> db:Kv.Redodb.t -> int -> Commit.ack option

(** The TXSTAT answer for [tok] ([serve.txstat.queries]).  [Tx_aborted]
    is presumed abort — sound provided the client never queries a token
    while also submitting it. *)
val status : t -> tid:int -> dbs:Kv.Redodb.t array -> int -> tx_status

(** [tid] holds the active-token lock. *)
val stall_hazard : t -> tid:int -> bool

(** Drop the volatile active set and its lock, as a crash would. *)
val reset : t -> unit
