(** Blocking undo-log PTM modelling Intel PMDK's libpmemobj.

    Cost/behaviour profile reproduced from the paper (§2 table):
    - persistent {e physical undo log}: before the first in-place store to a
      cache line in a transaction, the line's pre-image is appended to a log
      in PM and made durable, then the log count is persisted behind its own
      fence (two fences per new range — the "2+2R fences" of §2's table);
    - in-place stores, flushed at commit;
    - blocking progress: one global transaction lock (libpmemobj leaves
      concurrency to the user; the paper runs it the same way);
    - single replica; recovery rolls the undo log back.

    Durable-metadata hardening (media-fault model): the log count is a
    sealed word ({!Pmem.Checksum.seal}) and every log entry carries a 64-bit
    digest of its contents.  A named entry is always fully durable (it is
    fenced before the count names it), so validation failures during
    recovery can only come from injected bit flips; they raise
    {!Ptm_intf.Unrecoverable}.  The [Make] functor's [checksum_log = false]
    builds a de-checksummed mutant that trusts raw metadata — the
    fault-injection sweeps must catch it. *)

module type CONFIG = sig
  val name : string

  (** When false, the log count is a raw integer word and entries are not
      validated at recovery: a deliberately fault-oblivious mutant. *)
  val checksum_log : bool
end

module Make (C : CONFIG) = struct
  let name = C.name

  (* Physical layout:
     [0..63]                      header (reserved)
     [log_base ..]                undo log: count word, then entries of
                                  2 + words_per_line words
                                  (line addr + image + digest)
     [region_base ..]             the single logical region *)

  let log_base = 64
  let entry_words = 2 + Pmem.words_per_line

  type t = {
    pm : Pmem.t;
    num_threads : int;
    words : int; (* logical region size *)
    log_cap : int; (* max undo entries *)
    region_base : int;
    lock : Sched.Mutex.t;
    touched : Line_set.t; (* logical lines undo-logged by the current tx *)
    bd : Breakdown.t;
  }

  type tx = { p : t; tid : int }

  let log_count_addr _t = log_base
  let log_entry_addr _t i = log_base + 1 + (i * entry_words)

  let unrecoverable detail =
    Obs.recovery_unrecoverable ();
    raise (Ptm_intf.Unrecoverable { ptm = C.name; detail })

  (* Log-count codec: sealed when hardened, raw when de-checksummed. *)
  let encode_count c =
    if C.checksum_log then Pmem.Checksum.seal c else Int64.of_int c

  let decode_count_exn w =
    if C.checksum_log then
      match Pmem.Checksum.unseal w with
      | Some c -> c
      | None ->
          unrecoverable (Printf.sprintf "undo-log count corrupt (%Lx)" w)
    else Int64.to_int w

  let entry_digest t e =
    Pmem.Checksum.digest
      (Array.init (entry_words - 1) (fun i -> Pmem.get_word t.pm (e + i)))

  let mem_of_raw t =
    (* Raw accessors over the logical region, bypassing transactions; used
       only during format and recovery (single-threaded phases). *)
    {
      Palloc.get = (fun a -> Pmem.get_word t.pm (t.region_base + a));
      set = (fun a v -> Pmem.set_word t.pm ~tid:0 (t.region_base + a) v);
    }

  let create ~num_threads ~words () =
    if words <= Palloc.heap_base then invalid_arg "Pmdk_sim.create: words";
    let log_cap = max 4096 (words / 8) in
    let region_base =
      let b = log_base + 1 + (log_cap * entry_words) in
      (b + 7) / 8 * 8
    in
    let pm =
      Pmem.create ~max_threads:num_threads ~words:(region_base + words) ()
    in
    let t =
      {
        pm;
        num_threads;
        words;
        log_cap;
        region_base;
        lock = Sched.Mutex.create ();
        touched =
          Line_set.create
            ~lines:((words + Pmem.words_per_line - 1) / Pmem.words_per_line);
        bd = Breakdown.create ~num_threads;
      }
    in
    Pmem.set_word pm ~tid:0 (log_count_addr t) (encode_count 0);
    Palloc.format (mem_of_raw t) ~words;
    (* Make the freshly formatted region durable. *)
    Pmem.pwb_range pm ~tid:0 0 (region_base + Palloc.heap_base - 1);
    Pmem.psync pm ~tid:0;
    t

  let pmem t = t.pm
  let stats t = Pmem.stats t.pm
  let breakdown t = t.bd

  let[@inline] check_logical t a =
    if a < 0 || a >= t.words then invalid_arg "Pmdk_sim: address out of region"

  let get tx a =
    check_logical tx.p a;
    Pmem.get_word tx.p.pm (tx.p.region_base + a)

  (* Append the pre-image of logical line [line] to the undo log and make the
     log durable before any store of this transaction to that line can reach
     PM: this is the per-range "pwb + pfence" of undo logging. *)
  let log_line tx line =
    let t = tx.p in
    let count = decode_count_exn (Pmem.get_word t.pm (log_count_addr t)) in
    if count >= t.log_cap then failwith "Pmdk_sim: undo log overflow";
    let e = log_entry_addr t count in
    Pmem.set_word t.pm ~tid:tx.tid e (Int64.of_int line);
    let base = line * Pmem.words_per_line in
    for i = 0 to Pmem.words_per_line - 1 do
      Pmem.set_word t.pm ~tid:tx.tid (e + 1 + i)
        (Pmem.get_word t.pm (t.region_base + base + i))
    done;
    Pmem.set_word t.pm ~tid:tx.tid (e + entry_words - 1) (entry_digest t e);
    Pmem.pwb_range t.pm ~tid:tx.tid e (e + entry_words - 1);
    (* The entry must be durable before the count names it: without this
       fence, an eviction of the count line could publish an entry whose
       pre-image is still garbage, and recovery would roll back from it. *)
    Pmem.pfence t.pm ~tid:tx.tid;
    Pmem.set_word t.pm ~tid:tx.tid (log_count_addr t) (encode_count (count + 1));
    Pmem.pwb t.pm ~tid:tx.tid (log_count_addr t);
    Pmem.pfence t.pm ~tid:tx.tid

  let set tx a v =
    check_logical tx.p a;
    let line = a / Pmem.words_per_line in
    if not (Line_set.mem tx.p.touched line) then begin
      log_line tx line;
      Line_set.add tx.p.touched line
    end;
    Pmem.set_word tx.p.pm ~tid:tx.tid (tx.p.region_base + a) v

  let mem_of_tx tx = { Palloc.get = get tx; set = set tx }
  let alloc tx n = Palloc.alloc (mem_of_tx tx) n
  let dealloc tx a = Palloc.dealloc (mem_of_tx tx) a

  let commit tx =
    let t = tx.p in
    (* Flush all modified lines, then truncate the log: 2 more fences. *)
    Breakdown.timed t.bd ~tid:tx.tid Flush (fun () ->
        Line_set.iter
          (fun line ->
            Pmem.pwb t.pm ~tid:tx.tid
              (t.region_base + (line * Pmem.words_per_line)))
          t.touched;
        Pmem.pfence t.pm ~tid:tx.tid;
        Pmem.set_word t.pm ~tid:tx.tid (log_count_addr t) (encode_count 0);
        Pmem.pwb t.pm ~tid:tx.tid (log_count_addr t);
        Pmem.psync t.pm ~tid:tx.tid)

  let update t ~tid f =
    Sched.Mutex.lock t.lock ~tid;
    let t0 = Unix.gettimeofday () in
    (* A line marked by a transaction that unwound (abort or injected
       crash) must not let this one skip its undo-log entry. *)
    Line_set.clear t.touched;
    let tx = { p = t; tid } in
    let finish () =
      Breakdown.add_total t.bd ~tid (Unix.gettimeofday () -. t0);
      Sched.Mutex.unlock t.lock ~tid
    in
    (* The exception branch must also cover [commit] (an injected crash can
       fire inside it), or the global lock would leak on unwind. *)
    match
      let r = Breakdown.timed t.bd ~tid Lambda (fun () -> f tx) in
      commit tx;
      r
    with
    | r ->
        Obs.tx_committed ~tid ~t0;
        finish ();
        r
    | exception e ->
        Obs.tx_aborted ~tid;
        (* Abort: roll back in volatile memory from the log, then truncate. *)
        let count = decode_count_exn (Pmem.get_word t.pm (log_count_addr t)) in
        for i = count - 1 downto 0 do
          let e = log_entry_addr t i in
          let line = Int64.to_int (Pmem.get_word t.pm e) in
          let base = line * Pmem.words_per_line in
          for j = 0 to Pmem.words_per_line - 1 do
            Pmem.set_word t.pm ~tid (t.region_base + base + j)
              (Pmem.get_word t.pm (e + 1 + j))
          done
        done;
        Pmem.set_word t.pm ~tid (log_count_addr t) (encode_count 0);
        Pmem.pwb t.pm ~tid (log_count_addr t);
        Pmem.psync t.pm ~tid;
        finish ();
        raise e

  let read_only t ~tid f =
    Sched.Mutex.lock t.lock ~tid;
    Line_set.clear t.touched;
    let tx = { p = t; tid } in
    Fun.protect
      ~finally:(fun () -> Sched.Mutex.unlock t.lock ~tid)
      (fun () -> f tx)

  let recover t =
    Obs.Trace.span Obs.Trace.Recovery ~tid:0 @@ fun () ->
    (* Lock state is volatile: a thread that died inside the critical
       section (scheduler crash composition) must not leave it held. *)
    Sched.Mutex.reset t.lock;
    (* Null-ish recovery: if the durable log is non-empty, the crash hit a
       transaction in flight; roll its pre-images back.  Hardened: the count
       must unseal and stay in range, and every named entry must match its
       digest — a named entry was fenced before the count could name it, so
       only a media fault can invalidate it. *)
    let count = decode_count_exn (Pmem.get_word t.pm (log_count_addr t)) in
    if C.checksum_log && (count < 0 || count > t.log_cap) then
      unrecoverable (Printf.sprintf "undo-log count %d out of range" count);
    if count > 0 then begin
      if C.checksum_log then
        for i = 0 to count - 1 do
          let e = log_entry_addr t i in
          if not (Int64.equal (entry_digest t e)
                    (Pmem.get_word t.pm (e + entry_words - 1)))
          then unrecoverable (Printf.sprintf "undo-log entry %d corrupt" i);
          let line = Int64.to_int (Pmem.get_word t.pm e) in
          if line < 0 || line * Pmem.words_per_line >= t.words then
            unrecoverable
              (Printf.sprintf "undo-log entry %d: line %d out of range" i line)
        done;
      for i = count - 1 downto 0 do
        let e = log_entry_addr t i in
        let line = Int64.to_int (Pmem.get_word t.pm e) in
        let base = t.region_base + (line * Pmem.words_per_line) in
        for j = 0 to Pmem.words_per_line - 1 do
          Pmem.set_word t.pm ~tid:0 (base + j) (Pmem.get_word t.pm (e + 1 + j))
        done;
        Pmem.pwb t.pm ~tid:0 base
      done;
      Pmem.set_word t.pm ~tid:0 (log_count_addr t) (encode_count 0);
      Pmem.pwb t.pm ~tid:0 (log_count_addr t);
      Pmem.psync t.pm ~tid:0
    end

  (* Durable metadata: the count word, plus the entries the durable count
     names (computed from the durable image, so call post-crash). *)
  let meta_ranges t =
    let cw = Pmem.durable_word t.pm (log_count_addr t) in
    let count =
      if C.checksum_log then
        match Pmem.Checksum.unseal cw with Some c -> c | None -> 0
      else Int64.to_int cw
    in
    let count = if count < 0 || count > t.log_cap then 0 else count in
    (log_count_addr t, log_count_addr t)
    ::
    (if count > 0 then
       [ (log_entry_addr t 0, log_entry_addr t 0 + (count * entry_words) - 1) ]
     else [])

  include Ptm_intf.Crash (struct
    type nonrec t = t

    let pmem = pmem
    let recover = recover
    let meta_ranges = meta_ranges
  end)

  let nvm_usage_words t =
    let mem = mem_of_raw t in
    Palloc.used_words mem + t.region_base

  let volatile_usage_words _t = 0

  (* Progress surface: one global lock, no helping.  Stalling the holder
     blocks everyone — which is exactly what the blocked-detection round
     of the scheduler sweep targets. *)
  let wait_free = false

  let stall_hazard t ~tid =
    match Sched.Mutex.holder t.lock with Some o -> o = tid | None -> false

  let announced_pending _t ~tid:_ = false
end

include Make (struct
  let name = "PMDK"
  let checksum_log = true
end)
