(** Persistent memory allocator.

    A sequential segregated-free-list allocator whose metadata lives {e
    inside} the transactional region and is accessed through the same
    [get]/[set] callbacks as user data.  Running it under a PTM transaction
    therefore makes every allocator mutation logged, flushed and replicated
    exactly like user stores — this is the paper's recipe for failure-
    resilient, wait-free (de)allocation with null recovery.

    Block sizes are rounded up to powers of two (one extra header word per
    block), which reproduces the space overhead the paper reports for
    RedoDB's NVM usage (Figure 8).

    Logical region layout (word addresses):
    - word [0]: reserved; address 0 is the NULL pointer;
    - words [1 .. 63]: persistent root slots;
    - words [64 ..]: allocator metadata (bump pointer, live-word counter,
      per-class free-list heads);
    - first line-aligned word after the metadata: start of the heap.

    {b Unallocated words are unspecified.}  Only words
    [\[0, heap_base + used_words)] -- the metadata and every block ever
    carved from the heap -- carry defined contents.  A word above the
    bump pointer may hold anything: the universal constructions copy and
    flush a replica only up to that bound ([Curcomb.extent]), so a
    destination replica keeps whatever an older copy, a reverted
    transaction or an abandoned replica left above it.  Such a word is in
    the same position as a recycled block, which [alloc] already hands out
    without zeroing.  Hence the one rule every client keeps: {e never read
    an allocated word before writing it.}  Every [alloc] site in RedoDB
    and the persistent data structures initialises each word of its block
    in the allocating transaction (node fields, string length and payload,
    zeroed bucket arrays); the allocator itself reads only its metadata and
    the free-list link [dealloc] wrote. *)

(** Word accessors supplied by the enclosing transaction. *)
type mem = {
  get : int -> int64;
  set : int -> int64 -> unit;
}

exception Out_of_memory

(** Number of persistent root slots (addresses [1 .. root_slots]). *)
val root_slots : int

val root_addr : int -> int

(** First heap word; also the lowest address [alloc] can ever return - 1. *)
val heap_base : int

(** [format mem ~words] initialises allocator metadata for a region of
    [words] logical words.  Must run (inside a transaction) exactly once, on
    a fresh region. *)
val format : mem -> words:int -> unit

(** [alloc mem n] returns the address of [n] fresh user words (n >= 1).
    The block is {e not} zeroed: its words are unspecified until the
    caller writes them, whether the block was recycled or newly carved.
    @raise Out_of_memory when the heap is exhausted. *)
val alloc : mem -> int -> int

(** [dealloc mem addr] frees a block previously returned by [alloc]. *)
val dealloc : mem -> int -> unit

(** Size in words actually reserved for a request of [n] user words
    (power-of-two block including its header). *)
val block_words : int -> int

(** Region size in words, as recorded by [format]. *)
val heap_end : mem -> int

(** Words currently allocated to live blocks (headers included), as recorded
    in persistent metadata. *)
val live_words : mem -> int

(** High-water mark: words ever carved out of the heap.  It never
    decreases outside a reverted transaction. *)
val used_words : mem -> int
