(** OneFile-style wait-free PTM baseline (Ramalhete et al., DSN '19).

    Cost/behaviour profile reproduced from the paper:
    - single replica; every transactional store eventually writes {e two} PM
      words (the value and its sequence tag — OneFile's double-word CAS);
    - mutative transactions are serialized through an announce array with
      combining (a loser's transaction is taken over and executed by the
      winning combiner, which is what gives wait-freedom);
    - the write-set is persisted as a redo log {e before} the commit point,
      and applied to the in-place words only {e after} it, so a crash during
      application is repaired by re-applying logs at recovery;
    - read-only transactions are optimistic with per-word sequence
      validation and execute no fence; after [max_read_tries] failures they
      fall back to the announce array.

    Divergence noted for EXPERIMENTS.md: our simulated CLWB staging is
    per-thread, so the post-commit application flush needs its own fence;
    this OneFile executes 3 fences per update transaction where the original
    needs 2.  Relative ordering versus the other PTMs is unaffected.

    Durable-metadata hardening (media-fault model): the commit header and
    each log slot's header are sealed words ({!Pmem.Checksum.seal} — a slot
    header packs [seq] and [n] into one atomically-persisting word), and
    every log entry carries a digest of its (seq, addr, val) triple.  Log
    slots are double-buffered per thread: a combiner alternates between two
    slots, flipping only after a successful commit, so the slot named by the
    durable commit header is never under concurrent overwrite — recovery can
    therefore insist on finding it intact and blame any validation failure
    on media corruption ({!Ptm_intf.Unrecoverable}).  Logs older than the
    committed one were fully applied and flushed before the commit header
    could advance past them (combining is serialized), so recovery replays
    only the committed log. *)

let name = "OneFile"

(* Announce/combining words are yield points under the deterministic
   scheduler. *)
module Atomic = Sched.Atomic

let max_read_tries = 8
let entry_words = 4 (* seq, addr, val, digest *)

(* Slot-header payload: [seq lsl n_bits lor n] in a 48-bit sealed payload. *)
let n_bits = 24
let n_mask = (1 lsl n_bits) - 1

type request = {
  f : tx -> int64;
  result : int64 Atomic.t;
  done_ : bool Atomic.t;
}

and t = {
  pm : Pmem.t;
  num_threads : int;
  words : int;
  log_cap : int;
  log_base : int; (* per-thread redo-log slots *)
  slot_words : int;
  val_base : int; (* in-place values *)
  seq_base : int; (* per-word sequence tags *)
  cur_tx : int Atomic.t; (* last committed seq *)
  applied_seq : int Atomic.t; (* last fully applied seq *)
  combining : int Atomic.t; (* 0 = free, else combiner tid + 1 *)
  announce : request option Atomic.t array;
  parity : int array; (* which of the two log slots each tid writes next *)
  dirty : Line_set.t; (* val/seq lines, from [val_base], the round applied to *)
  bd : Breakdown.t;
}

and tx = {
  p : t;
  ctid : int; (* combiner thread performing the accesses *)
  wset : Wset.t;
  read_snapshot : int; (* for optimistic read-only txs; -1 inside updates *)
}

exception Read_conflict

let header_seq = 0

let create ~num_threads ~words () =
  if words <= Palloc.heap_base then invalid_arg "Onefile.create: words";
  (* Line-align the val/seq areas so a torn line never straddles them. *)
  let words =
    (words + Pmem.words_per_line - 1) / Pmem.words_per_line * Pmem.words_per_line
  in
  let log_cap = max 4096 words in
  if log_cap > n_mask then invalid_arg "Onefile.create: words too large";
  let slot_words = ((1 + (log_cap * entry_words)) + 7) / 8 * 8 in
  let log_base = 64 in
  (* Two slots per thread (double buffering, see the header comment). *)
  let val_base = log_base + (2 * num_threads * slot_words) in
  let seq_base = val_base + words in
  let pm =
    Pmem.create ~max_threads:num_threads ~words:(seq_base + words) ()
  in
  let t =
    {
      pm;
      num_threads;
      words;
      log_cap;
      log_base;
      slot_words;
      val_base;
      seq_base;
      cur_tx = Atomic.make 0;
      applied_seq = Atomic.make 0;
      combining = Atomic.make 0;
      announce = Array.init num_threads (fun _ -> Atomic.make None);
      parity = Array.make num_threads 0;
      dirty = Line_set.create ~lines:(2 * words / Pmem.words_per_line);
      bd = Breakdown.create ~num_threads;
    }
  in
  let mem =
    {
      Palloc.get = (fun a -> Pmem.get_word pm (val_base + a));
      set = (fun a v -> Pmem.set_word pm ~tid:0 (val_base + a) v);
    }
  in
  Palloc.format mem ~words;
  (* Sealed commit header for sequence 0: an all-zero word would read as
     corrupt, and every later recovery unseals this word. *)
  Pmem.set_word pm ~tid:0 header_seq (Pmem.Checksum.seal 0);
  Pmem.pwb_range pm ~tid:0 val_base (val_base + Palloc.heap_base - 1);
  Pmem.pwb pm ~tid:0 header_seq;
  Pmem.psync pm ~tid:0;
  t

let pmem t = t.pm
let stats t = Pmem.stats t.pm
let breakdown t = t.bd

let[@inline] check_logical t a =
  if a < 0 || a >= t.words then invalid_arg "Onefile: address out of region"

let get tx a =
  check_logical tx.p a;
  match Wset.find tx.wset a with
  | Some v -> v
  | None ->
      if tx.read_snapshot >= 0 then begin
        (* Optimistic read: seq tag checked around the value read. *)
        let t = tx.p in
        let sq1 = Int64.to_int (Pmem.get_word t.pm (t.seq_base + a)) in
        if sq1 > tx.read_snapshot then raise Read_conflict;
        let v = Pmem.get_word t.pm (t.val_base + a) in
        let sq2 = Int64.to_int (Pmem.get_word t.pm (t.seq_base + a)) in
        if sq2 <> sq1 then raise Read_conflict;
        v
      end
      else Pmem.get_word tx.p.pm (tx.p.val_base + a)

let set tx a v =
  check_logical tx.p a;
  if tx.read_snapshot >= 0 then invalid_arg "Onefile: store in read-only tx";
  let oldv = Pmem.get_word tx.p.pm (tx.p.val_base + a) in
  Wset.record tx.wset a ~oldv ~newv:v

let mem_of_tx tx = { Palloc.get = get tx; set = set tx }
let alloc tx n = Palloc.alloc (mem_of_tx tx) n
let dealloc tx a = Palloc.dealloc (mem_of_tx tx) a

let slot_base t tid pbit = t.log_base + (((2 * tid) + pbit) * t.slot_words)

let entry_digest seq addr v =
  Pmem.Checksum.digest [| Int64.of_int seq; Int64.of_int addr; v |]

(* One combining round: execute every pending announced request inside a
   single serialized transaction, persist its redo log, commit, apply. *)
let combine t ~tid =
  let pending = ref [] in
  Array.iteri
    (fun i slot ->
      match Atomic.get slot with
      | Some r when not (Atomic.get r.done_) -> pending := (i, r) :: !pending
      | Some _ | None -> ())
    t.announce;
  match !pending with
  | [] -> ()
  | reqs ->
      Obs.Trace.span Obs.Trace.Combine ~tid ~arg:(List.length reqs)
      @@ fun () ->
      let reqs = List.rev reqs in
      Line_set.clear t.dirty;
      List.iter (fun (i, _) -> if i <> tid then Obs.helped ~tid) reqs;
      let tx = { p = t; ctid = tid; wset = Wset.create ~aggregate:true; read_snapshot = -1 } in
      let results =
        Breakdown.timed t.bd ~tid Lambda (fun () ->
            List.map (fun (_, r) -> r.f tx) reqs)
      in
      let seq = Atomic.get t.cur_tx + 1 in
      let n = Wset.length tx.wset in
      if n > t.log_cap then failwith "Onefile: redo log overflow";
      if seq >= 1 lsl (Pmem.Checksum.payload_bits - n_bits) then
        failwith "Onefile: sequence overflow";
      let pbit = t.parity.(tid) in
      (* 1. Persist the redo log, fence. *)
      Breakdown.timed t.bd ~tid Flush (fun () ->
          let base = slot_base t tid pbit in
          Pmem.set_word t.pm ~tid base
            (Pmem.Checksum.seal ((seq lsl n_bits) lor n));
          let k = ref (base + 1) in
          Wset.iter_redo tx.wset (fun addr v ->
              Pmem.set_word t.pm ~tid !k (Int64.of_int seq);
              Pmem.set_word t.pm ~tid (!k + 1) (Int64.of_int addr);
              Pmem.set_word t.pm ~tid (!k + 2) v;
              Pmem.set_word t.pm ~tid (!k + 3) (entry_digest seq addr v);
              k := !k + entry_words);
          if n > 0 then Pmem.pwb_range t.pm ~tid base (!k - 1)
          else Pmem.pwb t.pm ~tid base;
          Pmem.pfence t.pm ~tid;
          (* 2. Commit point: persist the sealed header sequence. *)
          Pmem.set_word t.pm ~tid header_seq (Pmem.Checksum.seal seq);
          Pmem.pwb t.pm ~tid header_seq;
          Pmem.psync t.pm ~tid);
      Atomic.set t.cur_tx seq;
      (* Only now may this thread's *other* slot be reused: the slot named
         by the durable commit header is never concurrently overwritten. *)
      t.parity.(tid) <- 1 - pbit;
      (* 3. Apply in place: seq tag first, then the value, so optimistic
         readers always detect a word in flux; one double word per store. *)
      Breakdown.timed t.bd ~tid Apply (fun () ->
          Wset.iter_redo tx.wset (fun addr v ->
              Pmem.set_word t.pm ~tid (t.seq_base + addr) (Int64.of_int seq);
              Pmem.set_word t.pm ~tid (t.val_base + addr) v));
      Breakdown.timed t.bd ~tid Flush (fun () ->
          Wset.iter_redo tx.wset (fun addr _ ->
              Line_set.add t.dirty (addr / Pmem.words_per_line);
              Line_set.add t.dirty ((t.words + addr) / Pmem.words_per_line));
          Line_set.iter
            (fun line ->
              Pmem.pwb t.pm ~tid (t.val_base + (line * Pmem.words_per_line)))
            t.dirty;
          Pmem.psync t.pm ~tid);
      Atomic.set t.applied_seq seq;
      List.iter2
        (fun (_, r) res ->
          Atomic.set r.result res;
          Atomic.set r.done_ true)
        reqs results

(* Publish a request and drive combining rounds until it completes. *)
let run_request t ~tid r =
  Atomic.set t.announce.(tid) (Some r);
  let b = Sync_prims.Backoff.create () in
  (* The announce slot must be retired even when the request's lambda raises
     out of a combining round (e.g. an injected crash). *)
  Fun.protect
    ~finally:(fun () -> Atomic.set t.announce.(tid) None)
    (fun () ->
      while not (Atomic.get r.done_) do
        if Atomic.compare_and_set t.combining 0 (tid + 1) then
          Fun.protect
            ~finally:(fun () -> Atomic.set t.combining 0)
            (fun () -> if not (Atomic.get r.done_) then combine t ~tid)
        else
          Breakdown.timed t.bd ~tid Sleep (fun () ->
              ignore (Sync_prims.Backoff.once b))
      done);
  Atomic.get r.result

let update t ~tid f =
  let t0 = Unix.gettimeofday () in
  let r = { f; result = Atomic.make 0L; done_ = Atomic.make false } in
  match run_request t ~tid r with
  | res ->
      Breakdown.add_total t.bd ~tid (Unix.gettimeofday () -. t0);
      Obs.tx_committed ~tid ~t0;
      res
  | exception e ->
      Obs.tx_aborted ~tid;
      raise e

let read_only t ~tid f =
  let rec attempt tries =
    if tries = 0 then
      (* Fall back to the serialized path: executed by a combiner. *)
      run_request t ~tid
        { f; result = Atomic.make 0L; done_ = Atomic.make false }
    else begin
      let snap = Atomic.get t.applied_seq in
      let tx =
        { p = t; ctid = tid; wset = Wset.create ~aggregate:true; read_snapshot = snap }
      in
      match f tx with
      | v -> if Atomic.get t.applied_seq = snap then v else attempt (tries - 1)
      | exception Read_conflict -> attempt (tries - 1)
    end
  in
  attempt max_read_tries

let unrecoverable detail =
  Obs.recovery_unrecoverable ();
  raise (Ptm_intf.Unrecoverable { ptm = name; detail })

(* Decode a slot's durable sealed header: (seq, n), or None if the slot was
   never written / belongs to an uncommitted combine torn mid-write / was
   corrupted. *)
let slot_header t base =
  match Pmem.Checksum.unseal (Pmem.get_word t.pm base) with
  | None -> None
  | Some payload -> Some (payload lsr n_bits, payload land n_mask)

let recover t =
  Obs.Trace.span Obs.Trace.Recovery ~tid:0 @@ fun () ->
  (* Re-apply the redo log the sealed commit header names.  Older logs were
     fully applied and flushed before the header could advance past them
     (combining is serialized), and newer slots were never committed, so the
     committed log is the only one recovery may replay.  Double buffering
     guarantees its slot was not under overwrite at crash time: the sealed
     commit header vouches for it, so any validation failure is media
     corruption, not a torn crash. *)
  let committed =
    match Pmem.Checksum.unseal (Pmem.get_word t.pm header_seq) with
    | Some c -> c
    | None ->
        unrecoverable
          (Printf.sprintf "commit header corrupt (%Lx)"
             (Pmem.get_word t.pm header_seq))
  in
  (if committed > 0 then
     let found = ref None in
     for tid = 0 to t.num_threads - 1 do
       for pbit = 0 to 1 do
         let base = slot_base t tid pbit in
         match slot_header t base with
         | Some (seq, n) when seq = committed -> found := Some (tid, pbit, base, n)
         | Some _ | None -> ()
       done
     done;
     match !found with
     | None ->
         unrecoverable
           (Printf.sprintf "log slot for committed seq %d missing or corrupt"
              committed)
     | Some (tid_c, pbit_c, base, n) ->
         if n > t.log_cap then
           unrecoverable (Printf.sprintf "committed log length %d corrupt" n);
         for i = 0 to n - 1 do
           let e = base + 1 + (i * entry_words) in
           let seq = Int64.to_int (Pmem.get_word t.pm e) in
           let addr = Int64.to_int (Pmem.get_word t.pm (e + 1)) in
           let v = Pmem.get_word t.pm (e + 2) in
           if
             seq <> committed
             || not (Int64.equal (entry_digest seq addr v)
                       (Pmem.get_word t.pm (e + 3)))
           then
             unrecoverable
               (Printf.sprintf "committed log entry %d corrupt" i);
           if addr < 0 || addr >= t.words then
             unrecoverable
               (Printf.sprintf "committed log entry %d: address %d out of \
                                region" i addr)
         done;
         for i = 0 to n - 1 do
           let e = base + 1 + (i * entry_words) in
           let addr = Int64.to_int (Pmem.get_word t.pm (e + 1)) in
           let v = Pmem.get_word t.pm (e + 2) in
           (* Only repair words whose durable tag is not newer: a replayed
              log must never clobber a later flushed value (idempotent
              across double crashes). *)
           if Int64.to_int (Pmem.get_word t.pm (t.seq_base + addr)) <= committed
           then begin
             Pmem.set_word t.pm ~tid:0 (t.seq_base + addr)
               (Int64.of_int committed);
             Pmem.set_word t.pm ~tid:0 (t.val_base + addr) v;
             Pmem.pwb t.pm ~tid:0 (t.val_base + addr);
             Pmem.pwb t.pm ~tid:0 (t.seq_base + addr)
           end
         done;
         (* The committed slot must stay intact until the next commit:
            resume its owner's alternation on the other slot. *)
         t.parity.(tid_c) <- 1 - pbit_c);
  Pmem.psync t.pm ~tid:0;
  Atomic.set t.cur_tx committed;
  Atomic.set t.applied_seq committed;
  Atomic.set t.combining 0;
  Array.iter (fun slot -> Atomic.set slot None) t.announce

(* Durable metadata: the commit header plus every log slot with a valid
   durable header (its header word and the entries it names).  Slots whose
   header does not unseal are skipped by recovery, so flips there would be
   no-ops; the header word itself is still a target. *)
let meta_ranges t =
  let acc = ref [ (header_seq, header_seq) ] in
  for tid = t.num_threads - 1 downto 0 do
    for pbit = 1 downto 0 do
      let base = slot_base t tid pbit in
      match
        Pmem.Checksum.unseal (Pmem.durable_word t.pm base)
      with
      | Some payload ->
          let n = min (payload land n_mask) t.log_cap in
          acc := (base, base + (n * entry_words)) :: !acc
      | None -> acc := (base, base) :: !acc
    done
  done;
  !acc

include Ptm_intf.Crash (struct
  type nonrec t = t

  let pmem = pmem
  let recover = recover
  let meta_ranges = meta_ranges
end)

let nvm_usage_words t =
  let mem = { Palloc.get = (fun a -> Pmem.get_word t.pm (t.val_base + a)); set = (fun _ _ -> ()) } in
  Palloc.used_words mem + t.words (* seq-tag shadow words *) + (2 * t.num_threads * t.slot_words)

let volatile_usage_words _t = 0

(* Progress surface: combining gives wait-freedom on real hardware — the
   combiner finishes its round in bounded time and every announced request
   is executed by whichever thread wins [combining].  In the simulation
   the [combining] register is the stand-in for that bounded round, so the
   stall adversary must not park a thread while it holds it (an OS never
   preempts a thread forever; see EXPERIMENTS.md).  Anywhere else a
   stalled announcer's request is completed by the next combiner. *)
let wait_free = true
let stall_hazard t ~tid = Stdlib.Atomic.get t.combining = tid + 1

let announced_pending t ~tid =
  match Stdlib.Atomic.get t.announce.(tid) with
  | Some r -> not (Stdlib.Atomic.get r.done_)
  | None -> false
