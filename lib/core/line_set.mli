(** A set of cache-line indices [0 .. lines-1]: the dirty-line set a
    replica accumulates between two flushes.

    A byte mark per line gives deduplication without hashing, and an
    array of the marked lines gives iteration in insertion order.  [add]
    is O(1); [iter] and [clear] cost O(lines marked), never O(lines).
    Not thread-safe: each set is only touched by the thread that holds
    its owner's exclusive lock (a replica's, or a PTM's writer lock or
    combiner register). *)

type t

(** An empty set over lines [0 .. lines-1]. *)
val create : lines:int -> t

(** Mark [line]; a no-op if it is already marked.
    @raise Invalid_argument if [line] is outside [0 .. lines-1]. *)
val add : t -> int -> unit

(** Whether [line] is marked. *)
val mem : t -> int -> bool

(** Number of distinct lines marked. *)
val length : t -> int

(** Every marked line exactly once, in the order it was first added. *)
val iter : (int -> unit) -> t -> unit

(** Unmark everything; the set is immediately reusable. *)
val clear : t -> unit
