(** Redo-PTM (§5): the paper's new wait-free PTM construction, with its
    RedoTimed and RedoOpt variants.

    Structure (Algorithms 1–3):
    - {b Herlihy combining consensus}: threads publish their operation in
      [req]/[announce]; whoever commits a transition executes {e all}
      pending announced operations, so after two failed commit attempts a
      thread's operation is guaranteed to have been executed by a helper;
    - {b N+1 replicas} (Combined instances), each with a strong try
      reader-writer lock; [curComb] (a PM-resident word, CASed) always
      references the latest, fully persisted replica;
    - {b physical logging}: each transition's State carries a redo/undo
      write-set of (addr, old, new); lagging replicas catch up by {e
      replaying logs} from the ring instead of re-executing operations —
      the key advantage over CX for traversal-heavy structures;
    - {b bounded memory}: States are pre-allocated in an N×RSIZE matrix and
      recycled; the ring of committed transitions has RSIZE slots, so a
      replica more than RSIZE transitions behind is invalidated and must
      copy from [curComb] (optimistically, validating that [curComb] did
      not move).

    Variants (all sharing this module, selected by {!CONFIG}):
    - {b Redo}: no optimization — every store is flushed immediately.
    - {b RedoTimed}: update transactions are restricted to the first two
      Combined instances for a bounded time window (4× the last copy
      duration) with backoff, keeping those replicas hot and minimising
      copies.
    - {b RedoOpt}: RedoTimed plus store aggregation (hash write-set),
      flush aggregation (postponed, deduplicated pwbs with a whole-replica
      fallback past 1/10th of the object), and non-temporal-store replica
      copies.

    Replica copies and whole-replica flushes cover the live extent only
    ({!Curcomb.extent}: words below the allocator's high-water mark), so
    their cost follows the data stored, not the region's capacity.

    Each replica collects the lines it must flush in a {!Line_set} (a
    byte mark per line, no hashing): lines dirtied by log replay or undo,
    then, at flush time, the lines of the transaction's own write-set.
    The pwbs of a flush go out in the order the lines were first added. *)

module type CONFIG = sig
  val name : string
  val timed : bool
  val store_agg : bool
  val flush_agg : bool
  val deferred_pwb : bool
  val ntstore_copy : bool

  (** Fault-injection hook for the crash-point test suite: skip the pfence
      that makes the replica durable before the [curComb] transition.  Such
      a configuration is {e deliberately broken} — the crash-surface sweep
      must catch it.  Always [false] in real configurations. *)
  val omit_prepub_fence : bool
end

module type S_backed = sig
  include Ptm_intf.S

  val create_backed :
    num_threads:int -> words:int -> backing:string -> unit -> t

  val reopen : num_threads:int -> backing:string -> unit -> t
  val export_image : t -> tid:int -> int64 array

  val create_from_image :
    ?backing:string -> num_threads:int -> image:int64 array -> unit -> t

  val verify_meta : t -> (unit, string) result
  val corrupt_durable_meta : t -> seed:int -> count:int -> unit
end

(* Consensus/replica words are yield points under the deterministic
   scheduler. *)
module Atomic = Sched.Atomic

module Make (C : CONFIG) = struct
  let name = C.name
  let max_read_tries = 4
  let rsize = 32 (* pre-allocated States per thread; ring length *)

  type state = {
    ticket : int Atomic.t; (* SeqTidIdx *)
    applied : bool Atomic.t array;
    results : int64 Atomic.t array;
    log : Wset.t; (* physical redo+undo log *)
  }

  type combined = {
    rwlock : Sync_prims.Rwlock.t;
    head : int Atomic.t; (* SeqTidIdx of the last state applied here *)
    mutable valid : bool;
    extra_dirty : Line_set.t; (* logical lines needing flush *)
    mutable full_flush : bool;
    base : int;
  }

  type t = {
    cc : Curcomb.t;
    pm : Pmem.t;
    num_threads : int;
    words : int;
    nrep : int;
    combs : combined array;
    st_matrix : state array array; (* num_threads x rsize *)
    last_idx : int array; (* per-thread next state slot *)
    ring : int Atomic.t array; (* SeqTidIdx per committed seq mod rsize *)
    req : (tx -> int64) option Atomic.t array;
    announce : bool Atomic.t array;
    cur_comb : int Atomic.t; (* SeqTidIdx: seq | owner tid | comb index *)
    persisted : int Atomic.t; (* highest seq known durable in the header *)
    copy_ns : int Atomic.t; (* EWMA of replica copy duration, for Timed *)
    bd : Breakdown.t;
  }

  and tx = {
    p : t;
    c : combined;
    st : state option; (* logging target; None for replay/read contexts *)
    tid : int;
    ro : bool;
  }

  (* Volatile skeleton over an existing region: the [t] record, state
     matrix, ring and seq-0 sentinel — no durable writes, so it serves
     both [create] (which formats next) and [reopen] (which recovers). *)
  let build ~num_threads cc =
    let nrep = num_threads + 1 in
    let words = Curcomb.stride cc in
    let mk_state () =
      {
        ticket = Atomic.make (-1);
        applied = Array.init num_threads (fun _ -> Atomic.make false);
        results = Array.init num_threads (fun _ -> Atomic.make 0L);
        log = Wset.create ~aggregate:C.store_agg;
      }
    in
    let t =
      {
        cc;
        pm = Curcomb.pmem cc;
        num_threads;
        words;
        nrep;
        combs =
          Array.init nrep (fun i ->
              {
                rwlock = Sync_prims.Rwlock.create ();
                head = Atomic.make (Seqtid.pack ~seq:0 ~tid:num_threads ~idx:0);
                valid = i = 0;
                extra_dirty = Line_set.create ~lines:(words / Pmem.words_per_line);
                full_flush = false;
                base = Curcomb.base cc i;
              });
        st_matrix =
          (* one extra row: a dedicated owner for the seq-0 sentinel state,
             so no thread's working slot ever aliases it *)
          Array.init (num_threads + 1) (fun _ ->
              Array.init rsize (fun _ -> mk_state ()));
        last_idx = Array.make num_threads 0;
        ring = Array.init rsize (fun _ -> Atomic.make 0);
        req = Array.init num_threads (fun _ -> Atomic.make None);
        announce = Array.init num_threads (fun _ -> Atomic.make false);
        cur_comb = Atomic.make (Seqtid.pack ~seq:0 ~tid:num_threads ~idx:0);
        persisted = Atomic.make 0;
        copy_ns = Atomic.make (words * 2);
        bd = Breakdown.create ~num_threads;
      }
    in
    (* The sentinel transition (seq 0) lives in the dedicated extra row. *)
    let sentinel = Seqtid.pack ~seq:0 ~tid:num_threads ~idx:0 in
    Atomic.set t.st_matrix.(num_threads).(0).ticket sentinel;
    Atomic.set t.ring.(0) sentinel;
    t

  (* A fresh region whose replica 0 is an empty heap, or [image]. *)
  let create_impl ?backing ?image ~num_threads ~words () =
    let cc =
      Curcomb.create ?backing ~ptm:C.name ~max_threads:num_threads
        ~nrep:(num_threads + 1) ~words ()
    in
    let t = build ~num_threads cc in
    Curcomb.format ?image cc;
    t

  let create ~num_threads ~words () = create_impl ~num_threads ~words ()

  let create_backed ~num_threads ~words ~backing () =
    create_impl ~backing ~num_threads ~words ()

  let pmem t = t.pm
  let stats t = Pmem.stats t.pm
  let breakdown t = t.bd

  let[@inline] check_logical t a =
    if a < 0 || a >= t.words then invalid_arg (C.name ^ ": address out of region")

  let[@inline] state_of t sti = t.st_matrix.(Seqtid.tid sti).(Seqtid.idx sti)

  (* Transactional accesses: Redo applies stores in place on the exclusively
     held replica while recording (addr, old, new) in the State's physical
     log; reads are in-place (MAIN-relative offsets). *)

  let get tx a =
    check_logical tx.p a;
    Pmem.get_word tx.p.pm (tx.c.base + a)

  let set tx a v =
    check_logical tx.p a;
    if tx.ro then invalid_arg (C.name ^ ": store in read-only operation");
    let st =
      match tx.st with
      | Some st -> st
      | None -> invalid_arg (C.name ^ ": store outside an update simulation")
    in
    let oldv = Pmem.get_word tx.p.pm (tx.c.base + a) in
    Wset.record st.log a ~oldv ~newv:v;
    Pmem.set_word tx.p.pm ~tid:tx.tid (tx.c.base + a) v;
    if not C.deferred_pwb then Pmem.pwb tx.p.pm ~tid:tx.tid (tx.c.base + a)

  let mem_of_tx tx = { Palloc.get = get tx; set = set tx }
  let alloc tx n = Palloc.alloc (mem_of_tx tx) n
  let dealloc tx a = Palloc.dealloc (mem_of_tx tx) a

  let ensure_persisted t ~tid seq =
    if Atomic.get t.persisted < seq then begin
      let rec bump () =
        let cur = Atomic.get t.cur_comb in
        if Seqtid.seq cur < seq then bump ()
        else begin
          let now = Curcomb.advance t.cc ~tid cur in
          if now < seq then bump ()
          else begin
            Curcomb.persist_header t.cc ~tid;
            let rec raise_mark () =
              let p = Atomic.get t.persisted in
              if p < now && not (Atomic.compare_and_set t.persisted p now) then
                raise_mark ()
            in
            raise_mark ()
          end
        end
      in
      bump ()
    end

  (* Replay the physical logs of states (c.head.seq, tail.seq] onto replica
     [c].  Fails (returning false and invalidating the replica if partially
     applied) when the ring has wrapped or a State was recycled mid-read. *)
  let apply_redo_logs t ~tid c tail =
    let ok = ref true in
    let s = ref (Seqtid.seq (Atomic.get c.head) + 1) in
    let target = Seqtid.seq tail in
    while !ok && !s <= target do
      let e = Atomic.get t.ring.(!s mod rsize) in
      if Seqtid.seq e <> !s then ok := false
      else begin
        let st = state_of t e in
        if Atomic.get st.ticket <> e then ok := false
        else begin
          let applied_any = ref false in
          Wset.iter_redo st.log (fun addr v ->
              if addr >= 0 && addr < t.words then begin
                Pmem.set_word t.pm ~tid (c.base + addr) v;
                applied_any := true;
                if C.deferred_pwb then
                  Line_set.add c.extra_dirty (addr / Pmem.words_per_line)
                else Pmem.pwb t.pm ~tid (c.base + addr)
              end);
          (* Recycled mid-replay?  The replica now holds garbage. *)
          if Atomic.get st.ticket <> e then begin
            if !applied_any then c.valid <- false;
            ok := false
          end
          else begin
            Atomic.set c.head e;
            incr s
          end
        end
      end
    done;
    !ok

  (* Time source for the timed-window optimization, in seconds.  Park's
     clock is the step counter under the deterministic scheduler (1 step
     = 1 us), so wall time never leaks into a scheduled replay. *)
  let clock () = Park.now_us () *. 1e-6

  (* Optimistic copy from curComb's replica (no lock: validated by curComb
     staying put).  With ntstore_copy the copied lines are staged for the
     commit fence instead of needing a full-extent pwb sweep. *)
  let try_copy t ~tid c =
    let cur = Atomic.get t.cur_comb in
    let src = t.combs.(Seqtid.idx cur) in
    if src == c then false
    else begin
      let t0 = clock () in
      let head0 = Atomic.get src.head in
      (* Only the source's live extent: words above it are unallocated
         in the source, so whatever the destination holds there is as
         good (Palloc's rule: no word is read before it is written). *)
      let n = Curcomb.extent t.cc (Seqtid.idx cur) in
      Breakdown.timed t.bd ~tid Copy (fun () ->
          if C.ntstore_copy then
            Pmem.ntcopy_words t.pm ~tid ~src:src.base ~dst:c.base n
          else Pmem.blit_words t.pm ~tid ~src:src.base ~dst:c.base n);
      if Atomic.get t.cur_comb <> cur then false
      else begin
        Atomic.set c.head head0;
        c.valid <- true;
        c.full_flush <- not C.ntstore_copy;
        Line_set.clear c.extra_dirty;
        let ns = int_of_float ((clock () -. t0) *. 1e9) in
        Atomic.set t.copy_ns ns;
        Obs.replica_copied ~tid;
        true
      end
    end

  (* Acquire an exclusive replica.  The Timed variants restrict the search
     to the first two instances for ~4 copy-durations, backing off, which
     keeps those replicas current (§5, RedoTimed). *)
  let acquire_comb t ~tid ~give_up =
    let deadline =
      (* 4x the last copy duration, as in the paper; floored at an OS
         scheduling quantum because on a single-core host the holder of a
         hot replica can be descheduled for that long, and falling through
         to a cold replica would force the very copy the window avoids. *)
      if C.timed then
        clock ()
        +. max (4. *. float_of_int (Atomic.get t.copy_ns) *. 1e-9) 2e-2
      else 0.
    in
    let b = Sync_prims.Backoff.create () in
    let rec go () =
      if give_up () then None
      else begin
        let cur_idx = Seqtid.idx (Atomic.get t.cur_comb) in
        let limit =
          if C.timed && clock () < deadline then min 2 t.nrep
          else t.nrep
        in
        let rec scan i =
          if i = limit then None
          else
            let ci = if limit = t.nrep then (tid + i) mod t.nrep else i in
            if
              ci <> cur_idx
              && Sync_prims.Rwlock.exclusive_try_lock t.combs.(ci).rwlock ~tid
            then Some ci
            else scan (i + 1)
        in
        match scan 0 with
        | Some ci -> Some ci
        | None ->
            Breakdown.timed t.bd ~tid Sleep (fun () ->
                ignore (Sync_prims.Backoff.once b));
            go ()
      end
    in
    go ()

  (* Flush everything this session modified on replica [c] (simulation log
     [st], replayed lines in [extra_dirty], or the whole extent after a
     plain copy), then fence: the replica is durable before we try to make
     it [curComb]. *)
  let flush_before_transition t ~tid c st ~tkt =
    let ci = Curcomb.index t.cc c.base in
    Breakdown.timed t.bd ~tid Flush (fun () ->
        if c.full_flush then begin
          Curcomb.pwb_extent t.cc ~tid ci c.extra_dirty;
          c.full_flush <- false;
          Line_set.clear c.extra_dirty
        end
        else if C.deferred_pwb then begin
          let lines = c.extra_dirty in
          Wset.iter_redo st.log (fun addr _ ->
              Line_set.add lines (addr / Pmem.words_per_line));
          if
            C.flush_agg
            && Line_set.length lines > t.words / Pmem.words_per_line / 10
          then Curcomb.pwb_extent t.cc ~tid ci lines
          else
            Line_set.iter
              (fun line ->
                Pmem.pwb t.pm ~tid (c.base + (line * Pmem.words_per_line)))
              lines;
          Line_set.clear lines
        end
        else begin
          (* immediate-pwb mode: stores already flushed; only undo residue *)
          Line_set.iter
            (fun line ->
              Pmem.pwb t.pm ~tid (c.base + (line * Pmem.words_per_line)))
            c.extra_dirty;
          Line_set.clear c.extra_dirty
        end;
        (* Refresh this replica's fallback record under the same fence that
           proves the replica consistent: no extra fence.  [tkt] is the
           ticket the replica is about to carry ([c.head] is only advanced
           after this flush). *)
        Curcomb.write_record t.cc ~tid ci ~seq:(Seqtid.seq tkt);
        if not C.omit_prepub_fence then Pmem.pfence t.pm ~tid)

  (* Revert the simulated mutations after a lost transition race. *)
  let apply_undo_log t ~tid c st =
    Wset.iter_undo st.log (fun addr oldv ->
        Pmem.set_word t.pm ~tid (c.base + addr) oldv;
        if C.deferred_pwb then
          Line_set.add c.extra_dirty (addr / Pmem.words_per_line)
        else Pmem.pwb t.pm ~tid (c.base + addr))

  (* Copy applied/results from the state at the queue tail into our fresh
     state (Algorithm 3, step {3}). *)
  let copy_state dst src tkt =
    if dst != src then begin
      Array.iteri (fun i a -> Atomic.set dst.applied.(i) (Atomic.get a)) src.applied;
      Array.iteri (fun i r -> Atomic.set dst.results.(i) (Atomic.get r)) src.results
    end;
    Wset.reset dst.log;
    Atomic.set dst.ticket tkt

  (* Help publish [tail] in the ring (Algorithm 3, step {4}). *)
  let help_ring t tail =
    let slot = t.ring.(Seqtid.seq tail mod rsize) in
    let e = Atomic.get slot in
    if Seqtid.seq e < Seqtid.seq tail then
      ignore (Atomic.compare_and_set slot e tail)

  (* Has this thread's latest announced operation been executed in the state
     designated by curComb?  Used for the helped-completion fallback. *)
  let my_op_applied t ~tid =
    let cur = Atomic.get t.cur_comb in
    let comb = t.combs.(Seqtid.idx cur) in
    let tail = Atomic.get comb.head in
    let st = state_of t tail in
    if Atomic.get st.ticket <> tail then None
    else if Atomic.get st.applied.(tid) = Atomic.get t.announce.(tid) then begin
      let r = Atomic.get st.results.(tid) in
      if Atomic.get st.ticket = tail then Some (Seqtid.seq tail, r) else None
    end
    else None

  let update_impl t ~tid f =
    let t0 = Unix.gettimeofday () in
    (* {1} publish the operation *)
    Atomic.set t.req.(tid) (Some f);
    let my_ann = not (Atomic.get t.announce.(tid)) in
    Atomic.set t.announce.(tid) my_ann;
    let pool = t.st_matrix.(tid) in
    let new_st = pool.(t.last_idx.(tid)) in
    let locked = ref None in
    let outcome = ref None in
    let iter = ref 0 in
    try
      while !outcome = None && !iter <= 1 do
        (* {2} read curComb *)
        let cur_c = Atomic.get t.cur_comb in
        let comb = t.combs.(Seqtid.idx cur_c) in
        let tail = Atomic.get comb.head in
        let tkt =
          Seqtid.pack ~seq:(Seqtid.seq tail + 1) ~tid ~idx:t.last_idx.(tid)
        in
        (* {3} inherit applied/results from the tail state *)
        copy_state new_st (state_of t tail) tkt;
        if Atomic.get t.cur_comb <> cur_c then incr iter
        else begin
          (* {4} help the ring catch up with the tail *)
          let ring_tail = Atomic.get t.ring.(Seqtid.seq tail mod rsize) in
          if Seqtid.seq ring_tail > Seqtid.seq tail then incr iter
          else begin
            if ring_tail <> tail then help_ring t tail;
            (* {5} acquire a Combined instance *)
            (match !locked with
            | Some _ -> ()
            | None -> (
                locked :=
                  acquire_comb t ~tid ~give_up:(fun () ->
                      my_op_applied t ~tid <> None);
                (* Best-effort: retire the fallback record before the
                   replica can become inconsistent under us. *)
                match !locked with
                | Some ci -> Curcomb.retire_record t.cc ~tid ci
                | None -> ()));
            match !locked with
            | None -> iter := 2 (* helped: fall through to completion *)
            | Some ci ->
                let c = t.combs.(ci) in
                (* {6} bring the replica up to [tail], replaying physical
                   logs; copy from curComb if impossible *)
                let ready =
                  (c.valid
                  && Breakdown.timed t.bd ~tid Apply (fun () ->
                         apply_redo_logs t ~tid c tail))
                  || (try_copy t ~tid c
                     && Seqtid.seq (Atomic.get c.head) >= Seqtid.seq tail)
                in
                if not ready then incr iter
                else if Seqtid.seq (Atomic.get c.head) > Seqtid.seq tail then
                  (* the copy overshot my snapshot; retry with a fresh one *)
                  incr iter
                else begin
                  (* {7} simulate all announced, not-yet-applied operations *)
                  Obs.Trace.span Obs.Trace.Combine ~tid (fun () ->
                      for i = 0 to t.num_threads - 1 do
                        let a = Atomic.get new_st.applied.(i) in
                        let ann = Atomic.get t.announce.(i) in
                        if a <> ann then
                          match Atomic.get t.req.(i) with
                          | None -> ()
                          | Some g ->
                              let tx =
                                { p = t; c; st = Some new_st; tid; ro = false }
                              in
                              let res =
                                Breakdown.timed t.bd ~tid Lambda (fun () -> g tx)
                              in
                              if i <> tid then Obs.helped ~tid;
                              Atomic.set new_st.results.(i) res;
                              Atomic.set new_st.applied.(i) ann
                      done);
                  (* flush deferred pwbs; replica durable before publication *)
                  flush_before_transition t ~tid c new_st ~tkt;
                  Atomic.set c.head tkt;
                  (* {8} downgrade so readers may enter when we win *)
                  Sync_prims.Rwlock.downgrade c.rwlock ~tid;
                  (* {9} attempt the transition *)
                  let mine = Seqtid.pack ~seq:(Seqtid.seq tkt) ~tid ~idx:ci in
                  if Atomic.compare_and_set t.cur_comb cur_c mine then begin
                    Sync_prims.Rwlock.downgrade_unlock c.rwlock ~tid;
                    locked := None;
                    help_ring t tkt;
                    ensure_persisted t ~tid (Seqtid.seq tkt);
                    t.last_idx.(tid) <- (t.last_idx.(tid) + 1) mod rsize;
                    outcome := Some (Atomic.get new_st.results.(tid))
                  end
                  else begin
                    (* lost the race: revert the simulation and retry once.
                       The upgrade is bounded — a reader parked inside the
                       replica (a stalled thread that entered during our
                       downgrade window) must not be able to block us. *)
                    (if Sync_prims.Rwlock.try_upgrade c.rwlock ~tid then begin
                       Atomic.set c.head tail;
                       apply_undo_log t ~tid c new_st
                     end
                     else
                       (* Abandon the replica instead of reverting it in
                          place: mark it invalid so the next exclusive
                          acquirer recopies it from curComb, and release
                          our hold below. *)
                       c.valid <- false);
                    (* The record written under the pre-publication fence
                       overstates this reverted replica: retire it. *)
                    Curcomb.retire_record t.cc ~tid ci;
                    Wset.reset new_st.log;
                    if not c.valid then begin
                      Sync_prims.Rwlock.downgrade_unlock c.rwlock ~tid;
                      locked := None
                    end;
                    incr iter
                  end
                end
          end
        end
      done;
      (match !locked with
      | Some ci -> Sync_prims.Rwlock.exclusive_unlock t.combs.(ci).rwlock ~tid
      | None -> ());
      let result =
        match !outcome with
        | Some r -> r
        | None ->
            (* Helped completion: the combining consensus guarantees some
               committer executed our operation; wait for it to surface in
               curComb's state, then make sure it is durable. *)
            let b = Sync_prims.Backoff.create () in
            let rec wait () =
              match my_op_applied t ~tid with
              | Some (seq, r) ->
                  ensure_persisted t ~tid seq;
                  r
              | None ->
                  Breakdown.timed t.bd ~tid Sleep (fun () ->
                      ignore (Sync_prims.Backoff.once b));
                  wait ()
            in
            wait ()
      in
      Atomic.set t.req.(tid) None;
      Breakdown.add_total t.bd ~tid (Unix.gettimeofday () -. t0);
      Obs.tx_committed ~tid ~t0;
      result
    with e ->
      (* Unwind (an injected crash, or a user lambda raising mid-combining):
         the replica we held may be half simulated — never trust it again —
         and the exclusive/downgraded hold must not leak.  The published
         request is retracted so no helper re-executes it later. *)
      (match !locked with
      | Some ci ->
          let c = t.combs.(ci) in
          c.valid <- false;
          (match Sync_prims.Rwlock.owner c.rwlock with
          | Some o when o = tid ->
              Sync_prims.Rwlock.exclusive_unlock c.rwlock ~tid
          | Some _ | None -> ())
      | None -> ());
      Atomic.set t.req.(tid) None;
      Obs.tx_aborted ~tid;
      raise e

  let rec read_only t ~tid f =
    let fast_path () =
      let cur = Atomic.get t.cur_comb in
      let c = t.combs.(Seqtid.idx cur) in
      if Sync_prims.Rwlock.shared_try_lock c.rwlock ~tid then begin
        if Atomic.get t.cur_comb = cur then begin
          let res =
            match f { p = t; c; st = None; tid; ro = true } with
            | r -> r
            | exception e ->
                Sync_prims.Rwlock.shared_unlock c.rwlock ~tid;
                raise e
          in
          Sync_prims.Rwlock.shared_unlock c.rwlock ~tid;
          ensure_persisted t ~tid (Seqtid.seq cur);
          Some res
        end
        else begin
          Sync_prims.Rwlock.shared_unlock c.rwlock ~tid;
          None
        end
      end
      else None
    in
    let rec attempt tries =
      if tries = 0 then
        (* Publish the read through the consensus: an updater (or we, as a
           no-write committer) executes it with bounded retries, exactly the
           applyRead fallback of Algorithm 2. *)
        update t ~tid (fun tx -> f { tx with ro = true })
      else
        match fast_path () with
        | Some r -> r
        | None -> attempt (tries - 1)
    in
    attempt max_read_tries

  and update t ~tid f = update_impl t ~tid f

  (* Null recovery: reload the consistent replica designated by the durable
     header (or, failing it, the newest replica record) and rebuild the
     volatile consensus skeleton. *)
  let recover t =
    Obs.Trace.span Obs.Trace.Recovery ~tid:0 @@ fun () ->
    let ci = Curcomb.recover_replica t.cc in
    Array.iteri
      (fun i c ->
        (* Lock state is volatile: reset owner word and reader count. *)
        Sync_prims.Rwlock.reset c.rwlock;
        Atomic.set c.head (Seqtid.pack ~seq:0 ~tid:t.num_threads ~idx:0);
        c.valid <- i = ci;
        c.full_flush <- false;
        Line_set.clear c.extra_dirty)
      t.combs;
    Array.iter
      (fun row ->
        Array.iter
          (fun st ->
            Atomic.set st.ticket (-1);
            Wset.reset st.log;
            Array.iter (fun a -> Atomic.set a false) st.applied)
          row)
      t.st_matrix;
    Array.fill t.last_idx 0 t.num_threads 0;
    Array.iter (fun slot -> Atomic.set slot 0) t.ring;
    let sentinel = Seqtid.pack ~seq:0 ~tid:t.num_threads ~idx:0 in
    Atomic.set t.st_matrix.(t.num_threads).(0).ticket sentinel;
    Atomic.set t.ring.(0) sentinel;
    Array.iter (fun r -> Atomic.set r None) t.req;
    Array.iter (fun a -> Atomic.set a false) t.announce;
    (* The recovered epoch restarts at seq 0 on the recovered replica. *)
    Atomic.set t.cur_comb (Seqtid.pack ~seq:0 ~tid:t.num_threads ~idx:ci);
    Atomic.set t.persisted 0;
    Curcomb.reset_epoch t.cc (Seqtid.pack ~seq:0 ~tid:t.num_threads ~idx:ci)

  (* Map an existing region file and recover it: the file's size fixes
     the geometry ([64 + (num_threads + 1) * words] total words), and
     the normal null-recovery path rebuilds all volatile state from the
     durable image alone — the same code that runs after a simulated
     power failure runs here after a real process death. *)
  let reopen ~num_threads ~backing () =
    let cc =
      Curcomb.reopen ~ptm:C.name ~max_threads:num_threads ~nrep:(num_threads + 1)
        ~backing ()
    in
    let t = build ~num_threads cc in
    recover t;
    t

  let meta_ranges t = Curcomb.meta_ranges t.cc

  include Ptm_intf.Crash (struct
    type nonrec t = t

    let pmem = pmem
    let recover = recover
    let meta_ranges = meta_ranges
  end)

  (* ---- Relocatable snapshots and online metadata verification --------

     A snapshot is the logical word image of one consistent replica:
     every pointer the allocator and the data structures store is a
     region-relative offset (replica-base-relative at the physical
     layer), so the image carries no absolute addresses and can be
     imported into a brand-new region at any base — the "relocatable
     region" property the serving layer's shard rebuild relies on. *)

  (* Consistent logical image of the live extent [0, Curcomb.extent):
     one read-only transaction over the current replica, so the copy can
     never observe a half-applied update.  The words above the extent are
     unallocated, so the image leaves them out; the region's size is in
     the image, in the allocator header. *)
  let export_image t ~tid =
    let img = ref [||] in
    ignore
      (read_only t ~tid (fun tx ->
           img := Array.init (Curcomb.extent t.cc (Curcomb.index t.cc tx.c.base)) (get tx);
           0L));
    !img

  (* The image already holds a formatted heap, of the size its allocator
     header records; it becomes replica 0, the one the seq-0 header
     names.  The words above the image stay zero. *)
  let create_from_image ?backing ~num_threads ~image () =
    let n = Array.length image in
    if n <= Palloc.heap_base then
      invalid_arg (C.name ^ ".create_from_image: image too small");
    let words = Palloc.heap_end { Palloc.get = Array.get image; set = (fun _ _ -> ()) } in
    if n > words then invalid_arg (C.name ^ ".create_from_image: image larger than region");
    if n mod Pmem.words_per_line <> 0 || words mod Pmem.words_per_line <> 0 then
      invalid_arg (C.name ^ ".create_from_image: image not line-aligned");
    create_impl ?backing ~image ~num_threads ~words ()

  (* Online scrub check over the DURABLE image ({!Pmem.durable_word}),
     never the volatile one a live read sees. *)
  let verify_meta t = Curcomb.verify t.cc

  (* Silent-corruption injection for the scrub/quarantine harnesses. *)
  let corrupt_durable_meta t ~seed ~count =
    Curcomb.corrupt_durable t.cc ~seed ~count

  let nvm_usage_words t =
    Curcomb.used_words t.cc (Seqtid.idx (Atomic.get t.cur_comb))
    + (t.nrep * t.words)

  let volatile_usage_words t =
    (* States (logs + applied/results) dominate volatile usage. *)
    Array.fold_left
      (fun acc row ->
        Array.fold_left
          (fun acc st -> acc + (3 * Wset.length st.log) + (2 * t.num_threads))
          acc row)
      0 t.st_matrix

  (* Progress surface: the combining consensus makes updates wait-free —
     a stalled thread at any yield point is helped (its announced request
     is executed by the next committer; replicas it holds are skipped or
     abandoned thanks to the bounded try-locks). *)
  let wait_free = true
  let stall_hazard _t ~tid:_ = false

  (* Pending iff the operation is published ([req] is set before the
     [announce] flag flips, so a thread stalled in between is not yet
     announced and reads as applied) and curComb's tail state has not
     executed it. *)
  let announced_pending t ~tid =
    match Atomic.get t.req.(tid) with
    | None -> false
    | Some _ -> my_op_applied t ~tid = None
end

module Base = Make (struct
  let name = "Redo"
  let timed = false
  let store_agg = false
  let flush_agg = false
  let deferred_pwb = false
  let ntstore_copy = false
  let omit_prepub_fence = false
end)

module Timed = Make (struct
  let name = "RedoTimed"
  let timed = true
  let store_agg = false
  let flush_agg = false
  let deferred_pwb = false
  let ntstore_copy = false
  let omit_prepub_fence = false
end)

module Opt = Make (struct
  let name = "RedoOpt"
  let timed = true
  let store_agg = true
  let flush_agg = true
  let deferred_pwb = true
  let ntstore_copy = true
  let omit_prepub_fence = false
end)
