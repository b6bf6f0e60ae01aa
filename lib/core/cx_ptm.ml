(** CX-PUC and CX-PTM: the paper's two persistent variants of the CX
    wait-free universal construction (§4).

    Shared skeleton (from CX, PPoPP '20):
    - 2N replicas ("Combined" instances) of the logical region, each guarded
      by a strong try reader-writer lock;
    - a wait-free turn queue of mutations establishing the linearization
      order; every replica holds a cursor ([head]) into that queue;
    - [curComb] designates the replica whose state is both up to date and
      persisted; it is a PM-resident word updated by CAS, so its durable
      value can never regress;
    - updaters enqueue their mutation, grab any replica exclusively, replay
      the queue from the replica's cursor up to their own node (re-executing
      the logical operations — CX is {e logical logging}), flush, downgrade
      the lock and try to CAS [curComb];
    - readers take a shared lock on [curComb]'s replica, falling back to the
      queue after [max_read_tries] failures.

    The two modes differ only in store interposition (§4):
    - {b CX-PUC} does not interpose loads or stores, so it cannot know which
      cache lines changed and must flush the {e whole live extent} before
      every [curComb] transition — efficient only for small objects;
    - {b CX-PTM} interposes stores and flushes only the mutated lines
      (replica copies still require a full-extent flush, since the copy
      makes every durable line of the destination stale).  Each replica
      collects its mutated lines in a {!Line_set} (a byte mark per line,
      no hashing), and its flush issues their pwbs in the order the lines
      were first stored to.

    Queue-node reclamation: the original tracks nodes with wait-free hazard
    pointers + reference counting; here the GC frees unreachable nodes and
    we keep CX's algorithmic behaviour — replicas whose cursor falls more
    than [window] tickets behind are invalidated (forcing the copy path) and
    the stale chain is released. *)

module type MODE = sig
  val name : string

  (** Whether stores are interposed (CX-PTM) or the whole extent is flushed
      per transition (CX-PUC). *)
  val interpose : bool
end

module Atomic = Sched.Atomic

module Make (M : MODE) = struct
  let name = M.name
  let max_read_tries = 4
  let window = 512

  type payload = {
    f : tx -> int64;
    read_only_op : bool;
    result : int64 Atomic.t;
    done_ : bool Atomic.t;
  }

  and combined = {
    rwlock : Sync_prims.Rwlock.t;
    mutable head : payload Sync_prims.Turn_queue.node;
    head_ticket : int Atomic.t; (* lock-free mirror of [head]'s ticket *)
    mutable valid : bool;
    dirty : Line_set.t; (* logical lines awaiting flush *)
    mutable full_flush : bool; (* after a copy, flush everything *)
    base : int; (* physical address of this replica's region *)
  }

  and t = {
    cc : Curcomb.t;
    pm : Pmem.t;
    num_threads : int;
    words : int;
    nrep : int;
    combs : combined array;
    mutable queue : payload Sync_prims.Turn_queue.t;
    cur_comb : int Atomic.t; (* index into [combs] *)
    persisted : int Atomic.t; (* highest ticket known durable in the header *)
    bd : Breakdown.t;
    (* Last node each thread enqueued, for [announced_pending]: the turn
       queue clears its announce slot once the node is linked, so a probe
       needs this to keep seeing an op that is linked but not yet
       executed.  Plain (non-atomic) stores are fine — it is only read by
       the scheduler harness between fiber steps, and a miss is
       conservative. *)
    inflight : payload Sync_prims.Turn_queue.node option array;
  }

  and tx = { p : t; c : combined; ro : bool; tid : int }

  let dummy_payload =
    {
      f = (fun _ -> 0L);
      read_only_op = true;
      result = Atomic.make 0L;
      done_ = Atomic.make true;
    }

  let create ~num_threads ~words () =
    let nrep = 2 * num_threads in
    let cc =
      Curcomb.create ~ptm:M.name ~max_threads:num_threads ~nrep ~words ()
    in
    let words = Curcomb.stride cc in
    let queue = Sync_prims.Turn_queue.create ~num_threads dummy_payload in
    let sentinel = Sync_prims.Turn_queue.sentinel queue in
    let combs =
      Array.init nrep (fun i ->
          {
            rwlock = Sync_prims.Rwlock.create ();
            head = sentinel;
            head_ticket = Atomic.make 0;
            valid = i = 0;
            dirty = Line_set.create ~lines:(words / Pmem.words_per_line);
            full_flush = false;
            base = Curcomb.base cc i;
          })
    in
    let t =
      {
        cc;
        pm = Curcomb.pmem cc;
        num_threads;
        words;
        nrep;
        combs;
        queue;
        cur_comb = Atomic.make 0;
        persisted = Atomic.make 0;
        bd = Breakdown.create ~num_threads;
        inflight = Array.make num_threads None;
      }
    in
    Curcomb.format cc;
    t

  let pmem t = t.pm
  let stats t = Pmem.stats t.pm
  let breakdown t = t.bd

  let[@inline] check_logical t a =
    if a < 0 || a >= t.words then invalid_arg (M.name ^ ": address out of region")

  let get tx a =
    check_logical tx.p a;
    Pmem.get_word tx.p.pm (tx.c.base + a)

  let set tx a v =
    check_logical tx.p a;
    if tx.ro then invalid_arg (M.name ^ ": store in read-only operation");
    Pmem.set_word tx.p.pm ~tid:tx.tid (tx.c.base + a) v;
    if M.interpose then Line_set.add tx.c.dirty (a / Pmem.words_per_line)

  let mem_of_tx tx = { Palloc.get = get tx; set = set tx }
  let alloc tx n = Palloc.alloc (mem_of_tx tx) n
  let dealloc tx a = Palloc.dealloc (mem_of_tx tx) a

  (* Persist the header so that its durable ticket is at least [tk].  The
     header word is only mutated by CAS with increasing tickets, so a flush
     can never regress the durable state. *)
  let ensure_persisted t ~tid tk =
    if Atomic.get t.persisted < tk then begin
      let rec bump () =
        let ci = Atomic.get t.cur_comb in
        let ht = Atomic.get t.combs.(ci).head_ticket in
        if ht < tk then bump () (* transition in flight; retry *)
        else begin
          let now_tk =
            Curcomb.advance t.cc ~tid (Seqtid.pack ~seq:ht ~tid:0 ~idx:ci)
          in
          if now_tk < tk then bump ()
          else begin
            Curcomb.persist_header t.cc ~tid;
            (* Raise the volatile high-water mark. *)
            let rec raise_mark () =
              let p = Atomic.get t.persisted in
              if p < now_tk && not (Atomic.compare_and_set t.persisted p now_tk)
              then raise_mark ()
            in
            raise_mark ()
          end
        end
      in
      bump ()
    end

  (* Copy the region of [curComb]'s replica into [c] (which we hold
     exclusively).  Optimistic: valid only if curComb does not change while
     we read its replica under a shared lock.  Returns true on success. *)
  let try_copy t ~tid c =
    let ci = Atomic.get t.cur_comb in
    let src = t.combs.(ci) in
    if src == c then false
    else if not (Sync_prims.Rwlock.shared_try_lock src.rwlock ~tid) then false
    else begin
      match
        if Atomic.get t.cur_comb <> ci then false
        else begin
          (* Only the source's live extent (see Redo_ptm.try_copy). *)
          let n = Curcomb.extent t.cc ci in
          Breakdown.timed t.bd ~tid Copy (fun () ->
              Pmem.blit_words t.pm ~tid ~src:src.base ~dst:c.base n);
          c.head <- src.head;
          Atomic.set c.head_ticket (Atomic.get src.head_ticket);
          c.valid <- true;
          c.full_flush <- true;
          Line_set.clear c.dirty;
          Obs.replica_copied ~tid;
          true
        end
      with
      | result ->
          Sync_prims.Rwlock.shared_unlock src.rwlock ~tid;
          result
      | exception e ->
          (* An unwind mid-copy (e.g. an injected crash) leaves [c] half
             copied: drop the shared hold on the source and make sure nobody
             trusts the destination. *)
          c.valid <- false;
          Sync_prims.Rwlock.shared_unlock src.rwlock ~tid;
          raise e
    end

  (* Replay queue nodes on replica [c] from its cursor up to [target]
     (inclusive).  Re-executes each mutation (logical logging); records the
     result the first time a node is executed anywhere. *)
  let apply_up_to t ~tid c target =
    let target_tk = Sync_prims.Turn_queue.ticket target in
    while Atomic.get c.head_ticket < target_tk do
      match Sync_prims.Turn_queue.next c.head with
      | None -> assert false (* target is linked after head *)
      | Some node ->
          let pl = Sync_prims.Turn_queue.payload node in
          let tx = { p = t; c; ro = pl.read_only_op; tid } in
          let res = Breakdown.timed t.bd ~tid Lambda (fun () -> pl.f tx) in
          if not (Atomic.get pl.done_) then begin
            if node != target then Obs.helped ~tid;
            Atomic.set pl.result res;
            Atomic.set pl.done_ true
          end;
          c.head <- node;
          Atomic.set c.head_ticket (Sync_prims.Turn_queue.ticket node)
    done

  let flush_replica t ~tid c =
    let ci = Curcomb.index t.cc c.base in
    Breakdown.timed t.bd ~tid Flush (fun () ->
        if (not M.interpose) || c.full_flush then begin
          Curcomb.pwb_extent t.cc ~tid ci c.dirty;
          c.full_flush <- false
        end
        else
          Line_set.iter
            (fun line ->
              Pmem.pwb t.pm ~tid (c.base + (line * Pmem.words_per_line)))
            c.dirty;
        Line_set.clear c.dirty;
        (* Refresh this replica's fallback record under the same fence that
           proves the replica consistent: no extra fence. *)
        Curcomb.write_record t.cc ~tid ci ~seq:(Atomic.get c.head_ticket);
        Pmem.pfence t.pm ~tid)

  (* After winning a transition, opportunistically invalidate replicas whose
     cursor is hopelessly stale, releasing their chain of queue nodes (the
     GC-based rendering of CX's node reclamation). *)
  let housekeep t ~tid my_ticket =
    let sentinel = Sync_prims.Turn_queue.sentinel t.queue in
    Array.iteri
      (fun i c ->
        if
          i <> Atomic.get t.cur_comb
          && Atomic.get c.head_ticket < my_ticket - window
          && Sync_prims.Rwlock.exclusive_try_lock c.rwlock ~tid
        then begin
          c.valid <- false;
          c.head <- sentinel;
          Line_set.clear c.dirty;
          Sync_prims.Rwlock.exclusive_unlock c.rwlock ~tid
        end)
      t.combs

  (* CAS curComb to replica index [ci] (volatile), then persist the header. *)
  let try_transition t ~tid ci my_ticket =
    let c = t.combs.(ci) in
    let rec go () =
      let cur = Atomic.get t.cur_comb in
      if Atomic.get t.combs.(cur).head_ticket >= my_ticket then false
      else if Atomic.compare_and_set t.cur_comb cur ci then begin
        (* Persist header: durable CAS with our (ticket, idx). *)
        let rec pm_cas () =
          let old = Curcomb.header_word t.cc in
          if Seqtid.seq (Curcomb.decode t.cc old) >= Atomic.get c.head_ticket
          then ()
          else if
            not
              (Curcomb.cas_header t.cc ~tid ~expected:old
                 (Seqtid.pack ~seq:(Atomic.get c.head_ticket) ~tid:0 ~idx:ci))
          then pm_cas ()
        in
        pm_cas ();
        Curcomb.persist_header t.cc ~tid;
        let rec raise_mark () =
          let p = Atomic.get t.persisted in
          let ht = Atomic.get c.head_ticket in
          if p < ht && not (Atomic.compare_and_set t.persisted p ht) then
            raise_mark ()
        in
        raise_mark ();
        true
      end
      else go ()
    in
    go ()

  let enqueue_op t ~tid f ~read_only_op =
    let pl =
      { f; read_only_op; result = Atomic.make 0L; done_ = Atomic.make false }
    in
    let node = Sync_prims.Turn_queue.enqueue t.queue ~tid pl in
    (* No yield point between [enqueue] returning and this store, so the
       probe window where neither the announce slot nor [inflight] names
       the op is unobservable to the scheduler. *)
    t.inflight.(tid) <- Some node;
    node

  (* The updater path: §4's applyUpdate, steps (1)-(6). *)
  let run_update t ~tid node =
    let pl = Sync_prims.Turn_queue.payload node in
    let my_ticket = Sync_prims.Turn_queue.ticket node in
    let finished () =
      Atomic.get pl.done_
      && Atomic.get t.combs.(Atomic.get t.cur_comb).head_ticket >= my_ticket
    in
    let b = Sync_prims.Backoff.create () in
    let rec acquire () =
      if finished () then None
      else begin
        let cur = Atomic.get t.cur_comb in
        let rec scan i =
          if i = t.nrep then None
          else
            let ci = (tid + i) mod t.nrep in
            if ci <> cur
               && Sync_prims.Rwlock.exclusive_try_lock t.combs.(ci).rwlock ~tid
            then Some ci
            else scan (i + 1)
        in
        match scan 0 with
        | Some ci -> Some ci
        | None ->
            Breakdown.timed t.bd ~tid Sleep (fun () ->
                ignore (Sync_prims.Backoff.once b));
            acquire ()
      end
    in
    match acquire () with
    | None -> ensure_persisted t ~tid my_ticket
    | Some ci -> (
        let c = t.combs.(ci) in
        (* Best-effort: retire this replica's fallback record before the
           replica can become inconsistent under us (copy or apply). *)
        Curcomb.retire_record t.cc ~tid ci;
        try
          (* Validity: lagging or invalidated replicas are refreshed by
             copying from curComb. *)
          let rec ensure_valid () =
          if finished () then false
          else if
            c.valid
            && Atomic.get t.cur_comb |> fun cc ->
               Atomic.get t.combs.(cc).head_ticket - Atomic.get c.head_ticket
               <= window
            then true
            else if try_copy t ~tid c then true
            else begin
              Breakdown.timed t.bd ~tid Sleep (fun () ->
                  ignore (Sync_prims.Backoff.once b));
              ensure_valid ()
            end
          in
          if not (ensure_valid ()) then begin
            Sync_prims.Rwlock.exclusive_unlock c.rwlock ~tid;
            ensure_persisted t ~tid my_ticket
          end
          else begin
            Breakdown.timed t.bd ~tid Apply (fun () -> apply_up_to t ~tid c node);
            flush_replica t ~tid c;
            Sync_prims.Rwlock.downgrade c.rwlock ~tid;
            let won = try_transition t ~tid ci my_ticket in
            Sync_prims.Rwlock.downgrade_unlock c.rwlock ~tid;
            if won then housekeep t ~tid my_ticket
            else ensure_persisted t ~tid my_ticket
          end
        with e ->
          (* Unwind (user lambda raised, or an injected crash): the replica
             may be half applied and our exclusive/downgraded hold must not
             leak.  [exclusive_unlock] accepts a downgraded hold. *)
          c.valid <- false;
          (match Sync_prims.Rwlock.owner c.rwlock with
          | Some o when o = tid -> Sync_prims.Rwlock.exclusive_unlock c.rwlock ~tid
          | Some _ | None -> ());
          raise e)

  let update t ~tid f =
    let t0 = Unix.gettimeofday () in
    let node = enqueue_op t ~tid f ~read_only_op:false in
    let pl = Sync_prims.Turn_queue.payload node in
    let my_ticket = Sync_prims.Turn_queue.ticket node in
    let b = Sync_prims.Backoff.create () in
    match
      while
        not
          (Atomic.get pl.done_
          && Atomic.get t.combs.(Atomic.get t.cur_comb).head_ticket >= my_ticket
          && Atomic.get t.persisted >= my_ticket)
      do
        run_update t ~tid node;
        if not (Atomic.get pl.done_) then
          Breakdown.timed t.bd ~tid Sleep (fun () ->
              ignore (Sync_prims.Backoff.once b))
      done
    with
    | () ->
        Breakdown.add_total t.bd ~tid (Unix.gettimeofday () -. t0);
        Obs.tx_committed ~tid ~t0;
        Atomic.get pl.result
    | exception e ->
        Obs.tx_aborted ~tid;
        raise e

  (* §4's applyRead: try shared access to curComb's replica; after
     [max_read_tries] failures enqueue the read as an operation. *)
  let read_only t ~tid f =
    let rec attempt tries =
      if tries = 0 then begin
        let node = enqueue_op t ~tid f ~read_only_op:true in
        let pl = Sync_prims.Turn_queue.payload node in
        (* An updater will execute it within bounded steps; help by running
           the update machinery on our own node. *)
        let b = Sync_prims.Backoff.create () in
        while not (Atomic.get pl.done_) do
          run_update t ~tid node;
          if not (Atomic.get pl.done_) then
            Breakdown.timed t.bd ~tid Sleep (fun () ->
                ignore (Sync_prims.Backoff.once b))
        done;
        ensure_persisted t ~tid (Sync_prims.Turn_queue.ticket node);
        Atomic.get pl.result
      end
      else begin
        let ci = Atomic.get t.cur_comb in
        let c = t.combs.(ci) in
        if Sync_prims.Rwlock.shared_try_lock c.rwlock ~tid then begin
          if Atomic.get t.cur_comb = ci && c.valid then begin
            let ht = Atomic.get c.head_ticket in
            let res =
              match f { p = t; c; ro = true; tid } with
              | r -> r
              | exception e ->
                  Sync_prims.Rwlock.shared_unlock c.rwlock ~tid;
                  raise e
            in
            Sync_prims.Rwlock.shared_unlock c.rwlock ~tid;
            (* The observed state must be durable before we return. *)
            ensure_persisted t ~tid ht;
            res
          end
          else begin
            Sync_prims.Rwlock.shared_unlock c.rwlock ~tid;
            attempt (tries - 1)
          end
        end
        else attempt (tries - 1)
      end
    in
    attempt max_read_tries

  (* Null recovery: the durable header (or, failing it, the newest replica
     record) designates the consistent replica; rebuild the volatile
     skeleton around it. *)
  let recover t =
    Obs.Trace.span Obs.Trace.Recovery ~tid:0 @@ fun () ->
    let ci = Curcomb.recover_replica t.cc in
    t.queue <- Sync_prims.Turn_queue.create ~num_threads:t.num_threads dummy_payload;
    Array.fill t.inflight 0 t.num_threads None;
    let sentinel = Sync_prims.Turn_queue.sentinel t.queue in
    Array.iteri
      (fun i c ->
        c.head <- sentinel;
        Atomic.set c.head_ticket 0;
        c.valid <- i = ci;
        c.full_flush <- false;
        Line_set.clear c.dirty)
      t.combs;
    (* Lock state is volatile and does not survive a crash; reset every
       lock outright (owner word and reader ingress count — dying readers
       may have left the count raised). *)
    Array.iter (fun c -> Sync_prims.Rwlock.reset c.rwlock) t.combs;
    Atomic.set t.cur_comb ci;
    Atomic.set t.persisted 0;
    Curcomb.reset_epoch t.cc (Seqtid.pack ~seq:0 ~tid:0 ~idx:ci)

  let meta_ranges t = Curcomb.meta_ranges t.cc

  include Ptm_intf.Crash (struct
    type nonrec t = t

    let pmem = pmem
    let recover = recover
    let meta_ranges = meta_ranges
  end)

  let nvm_usage_words t =
    Curcomb.used_words t.cc (Atomic.get t.cur_comb) + (t.nrep * t.words)

  let volatile_usage_words t =
    (* queue nodes between the oldest cursor and the tail *)
    let oldest =
      Array.fold_left
        (fun acc c -> min acc (Atomic.get c.head_ticket))
        max_int t.combs
    in
    let newest =
      Sync_prims.Turn_queue.ticket (Sync_prims.Turn_queue.tail t.queue)
    in
    8 * (newest - oldest)

  (* Progress probes (deterministic-scheduler harness).  CX is wait-free:
     any updater replays the queue past every announced node, so a
     stalled announcer's op is finished by helpers and no yield point is
     a hazard.  An op is pending from the announce-slot store until a
     helper sets [done_]; the announce slot covers the publish window and
     [inflight] covers the linked-but-unexecuted window. *)
  let wait_free = true
  let stall_hazard _t ~tid:_ = false

  let announced_pending t ~tid =
    let pending n =
      not (Atomic.get (Sync_prims.Turn_queue.payload n).done_)
    in
    match Sync_prims.Turn_queue.announced t.queue ~tid with
    | Some n -> pending n
    | None -> (
        match t.inflight.(tid) with Some n -> pending n | None -> false)
end

module Puc = Make (struct
  let name = "CX-PUC"
  let interpose = false
end)

module Ptm = Make (struct
  let name = "CX-PTM"
  let interpose = true
end)
