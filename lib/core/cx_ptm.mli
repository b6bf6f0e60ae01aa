(** CX-PUC and CX-PTM: persistent variants of the CX wait-free universal
    construction (paper §4) — 2N replicas, wait-free turn queue of
    mutations, strong try reader-writer locks, and a PM-resident [curComb]
    word whose durable value never regresses.

    The two modes differ only in store interposition: CX-PUC flushes the
    whole live extent ({!Curcomb.extent}) per transition (no annotation of
    the sequential code); CX-PTM tracks and flushes only the mutated cache
    lines.  Replica copies, like those of Redo, cover the live extent only,
    as in CX for large objects (Correia, Ramalhete and Felber). *)

module type MODE = sig
  val name : string
  val interpose : bool
end

module Make (M : MODE) : Ptm_intf.S

(** The persistent universal construction: no load/store annotation,
    whole-extent flush per [curComb] transition. *)
module Puc : Ptm_intf.S

(** The PTM: interposed stores, per-line flushing. *)
module Ptm : Ptm_intf.S
