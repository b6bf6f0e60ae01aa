(** The exactly-once write audit: one rule, run once the load has
    quiesced, that every serving harness (the chaos, quarantine and
    cross-shard crash sweeps, the kill-restart supervisor and
    bench_serve) applies to the writes it issued.

    A write is a group of keys committed all-or-nothing (one key for a
    PUT), optionally under a client token, plus what the client was
    told.  The audit reads every key back and, for a tokened write,
    resolves the token through TXSTAT:

    - every key present carries the exact value written;
    - a group is all-or-nothing: never a strict subset of its keys;
    - an acked write is present in full; an acked token is
      TXSTAT-committed;
    - a committed token has exactly one outcome record and its write is
      present in full;
    - an aborted token left no key behind;
    - no token is still UNKNOWN after the load quiesced;
    - an untokened write the client saw fail outright left no key
      behind (an ambiguous one may or may not have landed).

    A write with a key the audit could not read is reported
    [Unreadable] and skips the presence checks, but its token is still
    resolved through TXSTAT and checked against the ledger.

    The rule assumes each key is written by one write of the history,
    so a key's presence and value speak for that write alone. *)

(** What the client was told about a write. *)
type outcome =
  | Acked  (** the server acknowledged the commit *)
  | Ambiguous
      (** the outcome is unknown to the client: a timeout, a lost
          connection, an INDOUBT answer *)
  | Failed
      (** a definite refusal (OVERLOADED, SHARD_UNAVAILABLE, ...): the
          server promised nothing durable happened *)

type write = {
  tok : int;  (** client write token; 0 = untokened, no TXSTAT is sent *)
  kvs : (string * string) list;  (** the keys and the values written *)
  outcome : outcome;
}

(** One class per way a write can break the rule. *)
type violation =
  | Mangled  (** a key holds a value other than the one written *)
  | Half_applied  (** some but not all of a group's keys are present *)
  | Acked_missing
      (** an acked write (acked to the client, or COMMITTED in the
          ledger) is not present in full, or an acked token is not
          committed *)
  | Aborted_with_keys  (** TXSTAT ABORTED, yet keys are present *)
  | Duplicated_commit  (** a committed token with records <> 1 *)
  | Unknown_after_quiesce  (** TXSTAT UNKNOWN once the load is over *)
  | Unacked_present
      (** an untokened write refused outright ([Failed]) has keys
          present *)
  | Unreadable  (** the audit's own read or TXSTAT was refused *)

(** Every class, in report order. *)
val classes : violation list

(** [snake_case] name of a class, as report fields spell it. *)
val class_name : violation -> string

(** Where the audit reads the durable state from.  [read] returns one
    answer per key, in order; [txstat] resolves a token. *)
type reader = {
  read : string list -> (string option, string) result list;
  txstat : int -> (Ledger.tx_status, string) result;
}

(** The in-process engine ([Engine.get], [Engine.txstat]), called as
    thread 0, the harness thread. *)
val engine_reader : Engine.t -> reader

(** The wire: [Client.mget] in chunks of at most 64 keys (a refused
    chunk fails each of its keys), and [Client.txstat]. *)
val wire_reader : Client.t -> reader

type report = {
  acked : int;
  ambiguous : int;
  failed : int;  (** writes per client outcome *)
  applied_unacked : int;
      (** unacked writes found durably applied: legal, since an
          ambiguous write may have landed and a token resolves it *)
  counts : (violation * int) list;  (** every class, zero included *)
  messages : string list;  (** one per violation, in history order *)
}

(** Audit a quiesced history. *)
val check : reader -> write list -> report

(** Violations of one class. *)
val count : report -> violation -> int

(** Violations of every class. *)
val total : report -> int
