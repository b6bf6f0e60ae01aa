(** ONLL (Cohen, Guerraoui, Zablotchi, SPAA '18): the lock-free,
    single-fence generic construction of the paper's §2 table.

    Faithful structural properties:
    - {b persistent logical log}: each update appends an operation
      descriptor (opcode + arguments) to a log in PM — not its effects;
    - {b one fence per update}: the appender flushes its entry (helping
      flush any complete predecessors) and issues a single pfence; no
      fence on the read path;
    - {b per-thread volatile instances}: every thread holds its own
      volatile replica of the object and catches up by replaying the
      logical log (hence N replicas and no load/store interposition of
      shared state);
    - {b no dynamic transactions}: operations must be pre-registered and
      are addressed by opcode, because — as the paper puts it — "no
      programming language provides support for function code to be copied
      to persistent memory".  Registration order must be identical across
      restarts.

    Recovery replays the longest contiguous valid prefix of the log onto a
    fresh instance; every operation that returned lies inside that prefix
    because its appender fenced a contiguous range.

    Media-fault hardening: entries span cache lines, so a torn write-back
    can persist an entry's tag line without its argument line.  The tag
    word is therefore {e content-sealed} — {!Pmem.Checksum.seal} over the
    global sequence number with the digest of the entry body as cover —
    and written last; recovery truncates the log at the first entry whose
    seal does not validate (torn line, bit flip, or stale epoch alike) and
    durably wipes the suffix.  The superblock (snapshot selector + folded
    sequence) is one sealed word, so it can neither tear nor silently
    flip; if its seal is broken nothing designates a consistent snapshot
    and recovery raises {!Ptm_intf.Unrecoverable}.

    Simplification (documented in DESIGN.md): when the log fills up, a
    checkpoint (snapshot of a caught-up instance + log truncation) runs
    under a global lock; ONLL's published construction amortizes this
    lock-free.  The steady-state cost profile (1 fence, few pwbs per
    update) is unaffected. *)

let name = "ONLL"

let max_args = 4
let entry_words = 2 + max_args (* tag(seq); opcode|argc; args *)

type op = tx -> int64 array -> int64

and t = {
  pm : Pmem.t;
  num_threads : int;
  words : int; (* object size in words *)
  log_cap : int; (* entries *)
  log_base : int;
  snap_base : int array; (* two snapshot areas *)
  mutable ops : op array;
  replicas : Bytes.t array; (* per-thread volatile instances *)
  applied : int array; (* per-thread: entries replayed into the replica *)
  tail : int Atomic.t; (* next log slot (volatile) *)
  ready : bool Atomic.t array; (* per-slot: entry fully written *)
  fenced : int Atomic.t; (* slots known durable (contiguous prefix) *)
  checkpoint_lock : Mutex.t;
  mutable base_seq : int; (* ops folded into the active snapshot *)
  bd : Breakdown.t;
}

and tx = { p : t; replica : Bytes.t; tid : int; ro : bool }

(* Persistent superblock: one sealed word packing [(base_seq lsl 1) lor
   snap_sel].  A single word persists atomically, so selector and sequence
   can never be split by a torn write-back. *)
let sb_addr = 0
let sb_seal ~base_seq ~sel = Pmem.Checksum.seal ((base_seq lsl 1) lor sel)

let log_entry t i = t.log_base + (i * entry_words)

(* Digest of an entry's body (opcode word + argument slots), the cover for
   its sealed tag.  Unused argument slots are zeroed by the appender so the
   cover is a pure function of the logical operation. *)
let entry_cover t e =
  Pmem.Checksum.digest
    (Array.init (entry_words - 1) (fun k -> Pmem.get_word t.pm (e + 1 + k)))

let unrecoverable detail =
  Obs.recovery_unrecoverable ();
  raise (Ptm_intf.Unrecoverable { ptm = name; detail })

(* (base_seq, sel); raises when the superblock's seal is broken. *)
let sb_decode_exn w =
  match Pmem.Checksum.unseal w with
  | Some p -> (p lsr 1, p land 1)
  | None -> unrecoverable "superblock corrupt: snapshot selector/sequence lost"

let create ~num_threads ~words () =
  if words <= Palloc.heap_base then invalid_arg "Onll.create: words";
  let log_cap = 4096 in
  let log_base = 64 in
  let snap0 = log_base + (log_cap * entry_words) in
  let snap0 = (snap0 + 7) / 8 * 8 in
  let snap1 = snap0 + words in
  let pm =
    Pmem.create ~max_threads:num_threads ~words:(snap1 + words) ()
  in
  let t =
    {
      pm;
      num_threads;
      words;
      log_cap;
      log_base;
      snap_base = [| snap0; snap1 |];
      ops = [||];
      replicas = Array.init num_threads (fun _ -> Bytes.make (words * 8) '\000');
      applied = Array.make num_threads 0;
      tail = Atomic.make 0;
      ready = Array.init log_cap (fun _ -> Atomic.make false);
      fenced = Atomic.make 0;
      checkpoint_lock = Mutex.create ();
      base_seq = 0;
      bd = Breakdown.create ~num_threads;
    }
  in
  (* format the object image inside snapshot area 0 and adopt it *)
  let mem =
    {
      Palloc.get = (fun a -> Pmem.get_word pm (snap0 + a));
      set = (fun a v -> Pmem.set_word pm ~tid:0 (snap0 + a) v);
    }
  in
  Palloc.format mem ~words;
  Pmem.pwb_range pm ~tid:0 snap0 (snap0 + words - 1);
  Pmem.set_word pm ~tid:0 sb_addr (sb_seal ~base_seq:0 ~sel:0);
  Pmem.pwb pm ~tid:0 sb_addr;
  Pmem.psync pm ~tid:0;
  (* load every volatile replica from the snapshot *)
  Array.iter
    (fun r ->
      for w = 0 to words - 1 do
        Bytes.set_int64_le r (w * 8) (Pmem.get_word pm (snap0 + w))
      done)
    t.replicas;
  t

(** Register an operation; returns its opcode.  Must be called in the same
    order on every (re)start, before any [invoke]. *)
let register t (f : op) =
  t.ops <- Array.append t.ops [| f |];
  Array.length t.ops - 1

let pmem t = t.pm
let stats t = Pmem.stats t.pm
let breakdown t = t.bd

(* --- volatile instance accessors (no interposition of shared state) --- *)

let[@inline] check_logical t a =
  if a < 0 || a >= t.words then invalid_arg "Onll: address out of region"

let get tx a =
  check_logical tx.p a;
  Bytes.get_int64_le tx.replica (a * 8)

let set tx a v =
  check_logical tx.p a;
  if tx.ro then invalid_arg "Onll: store in read-only operation";
  Bytes.set_int64_le tx.replica (a * 8) v

let mem_of_tx tx = { Palloc.get = get tx; set = set tx }
let alloc tx n = Palloc.alloc (mem_of_tx tx) n
let dealloc tx a = Palloc.dealloc (mem_of_tx tx) a

(* Replay committed log entries [applied(tid) .. upto) on tid's replica;
   returns the result of the last entry applied (the caller's own entry on
   the invoke path). *)
let catch_up t ~tid upto =
  let r = t.replicas.(tid) in
  let b = Sync_prims.Backoff.create () in
  let last = ref 0L in
  while t.applied.(tid) < upto do
    let i = t.applied.(tid) in
    while not (Atomic.get t.ready.(i)) do
      ignore (Sync_prims.Backoff.once b)
    done;
    let e = log_entry t i in
    let word1 = Int64.to_int (Pmem.get_word t.pm (e + 1)) in
    let opcode = word1 lsr 8 and argc = word1 land 0xff in
    let args = Array.init argc (fun k -> Pmem.get_word t.pm (e + 2 + k)) in
    let tx = { p = t; replica = r; tid; ro = false } in
    last := t.ops.(opcode) tx args;
    t.applied.(tid) <- i + 1
  done;
  !last

(* Snapshot a caught-up replica into the inactive area and truncate the
   log.  Runs with the world stopped at a full log (simplified; see
   module doc). *)
let checkpoint t ~tid =
  Obs.Trace.span Obs.Trace.Checkpoint ~tid @@ fun () ->
  Mutex.lock t.checkpoint_lock;
  if Atomic.get t.tail >= t.log_cap then begin
    (* wait until every produced entry is durable *)
    let n = Atomic.get t.tail in
    let b = Sync_prims.Backoff.create () in
    while Atomic.get t.fenced < n do
      ignore (Sync_prims.Backoff.once b)
    done;
    ignore (catch_up t ~tid n);
    let _, cur_sel = sb_decode_exn (Pmem.get_word t.pm sb_addr) in
    let sel = 1 - cur_sel in
    let base = t.snap_base.(sel) in
    let r = t.replicas.(tid) in
    for w = 0 to t.words - 1 do
      Pmem.set_word t.pm ~tid (base + w) (Bytes.get_int64_le r (w * 8))
    done;
    Pmem.pwb_range t.pm ~tid base (base + t.words - 1);
    Pmem.pfence t.pm ~tid;
    t.base_seq <- t.base_seq + n;
    Pmem.set_word t.pm ~tid sb_addr (sb_seal ~base_seq:t.base_seq ~sel);
    Pmem.pwb t.pm ~tid sb_addr;
    Pmem.psync t.pm ~tid;
    (* restart the log; replicas other than ours are now "behind zero" and
       resynchronize from our image *)
    Array.iteri
      (fun i r' ->
        if i <> tid then Bytes.blit r 0 r' 0 (Bytes.length r);
        t.applied.(i) <- 0)
      t.replicas;
    Array.iter (fun rd -> Atomic.set rd false) t.ready;
    Atomic.set t.fenced 0;
    Atomic.set t.tail 0
  end;
  Mutex.unlock t.checkpoint_lock

(** Invoke a registered operation as a durable update. *)
let rec invoke t ~tid opcode args =
  if opcode < 0 || opcode >= Array.length t.ops then
    invalid_arg "Onll.invoke: unknown opcode";
  if Array.length args > max_args then invalid_arg "Onll.invoke: too many args";
  (* reserve a slot *)
  let rec reserve () =
    let i = Atomic.get t.tail in
    if i >= t.log_cap then begin
      checkpoint t ~tid;
      reserve ()
    end
    else if Atomic.compare_and_set t.tail i (i + 1) then i
    else reserve ()
  in
  let i = reserve () in
  if i >= t.log_cap then invoke t ~tid opcode args
  else begin
    let t0 = if Obs.is_active () then Unix.gettimeofday () else 0. in
    (* write the logical entry: arguments are persisted, the function is
       not (it is registered code) *)
    let e = log_entry t i in
    Pmem.set_word t.pm ~tid (e + 1)
      (Int64.of_int ((opcode lsl 8) lor Array.length args));
    Array.iteri (fun k v -> Pmem.set_word t.pm ~tid (e + 2 + k) v) args;
    for k = Array.length args to max_args - 1 do
      Pmem.set_word t.pm ~tid (e + 2 + k) 0L
    done;
    (* content-sealed global-sequence tag, written last: it validates the
       entry body it covers, so recovery rejects the entry if its lines
       persisted only partially (torn write-back), a word was flipped, or
       it belongs to a previous log epoch after a checkpoint truncation *)
    Pmem.set_word t.pm ~tid e
      (Pmem.Checksum.seal ~cover:(entry_cover t e) (t.base_seq + i + 1));
    Atomic.set t.ready.(i) true;
    (* single fence: flush my entry and any complete predecessors so the
       durable prefix is contiguous up to me *)
    Breakdown.timed t.bd ~tid Flush (fun () ->
        let b = Sync_prims.Backoff.create () in
        let from = Atomic.get t.fenced in
        for j = from to i do
          while not (Atomic.get t.ready.(j)) do
            ignore (Sync_prims.Backoff.once b)
          done;
          Pmem.pwb_range t.pm ~tid (log_entry t j)
            (log_entry t j + entry_words - 1)
        done;
        Pmem.pfence t.pm ~tid;
        let rec raise_mark () =
          let f = Atomic.get t.fenced in
          if f < i + 1 && not (Atomic.compare_and_set t.fenced f (i + 1)) then
            raise_mark ()
        in
        raise_mark ());
    (* execute locally: replay everything up to and including my entry;
       the replay of my own entry yields my result *)
    let res = Breakdown.timed t.bd ~tid Apply (fun () -> catch_up t ~tid (i + 1)) in
    if Obs.is_active () then Obs.tx_committed ~tid ~t0;
    res
  end

(* Read-only: catch up to the committed tail on the local replica and read;
   no fence is executed (the paper's headline ONLL property). *)
let read_only t ~tid f =
  ignore (catch_up t ~tid (Atomic.get t.fenced));
  f { p = t; replica = t.replicas.(tid); tid; ro = true }

let recover t =
  Obs.Trace.span Obs.Trace.Recovery ~tid:0 @@ fun () ->
  let base_seq, sel = sb_decode_exn (Pmem.get_word t.pm sb_addr) in
  let base = t.snap_base.(sel) in
  t.base_seq <- base_seq;
  (* Longest contiguous valid prefix of the current log epoch: an entry
     whose content-sealed tag does not validate — torn write-back, bit
     flip, or a stale tag from a previous epoch — ends the log.  A benign
     eviction hole and a corrupted entry are indistinguishable here, so
     both truncate; every operation that {e returned} fenced a contiguous
     prefix covering itself and is therefore retained. *)
  let n = ref 0 in
  (try
     for i = 0 to t.log_cap - 1 do
       let e = log_entry t i in
       (match
          Pmem.Checksum.unseal ~cover:(entry_cover t e) (Pmem.get_word t.pm e)
        with
       | Some p when p = t.base_seq + i + 1 -> ()
       | Some _ | None -> raise Exit);
       incr n
     done
   with Exit -> ());
  Array.iteri
    (fun tid r ->
      for w = 0 to t.words - 1 do
        Bytes.set_int64_le r (w * 8) (Pmem.get_word t.pm (base + w))
      done;
      t.applied.(tid) <- 0;
      ignore tid)
    t.replicas;
  Array.iteri (fun i rd -> Atomic.set rd (i < !n)) t.ready;
  Atomic.set t.tail !n;
  Atomic.set t.fenced !n;
  (* wipe any invalid suffix — durably, so a later crash cannot resurrect
     it — and record whether real residue (not just empty slots) was cut *)
  let cut = ref false in
  for i = !n to t.log_cap - 1 do
    let e = log_entry t i in
    if not (Int64.equal (Pmem.get_word t.pm e) 0L) then cut := true;
    for k = 0 to entry_words - 1 do
      Pmem.set_word t.pm ~tid:0 (e + k) 0L
    done
  done;
  if !n < t.log_cap then begin
    Pmem.pwb_range t.pm ~tid:0 (log_entry t !n)
      (log_entry t t.log_cap - 1);
    Pmem.psync t.pm ~tid:0
  end;
  if !cut then Obs.recovery_truncated_log ();
  ignore (catch_up t ~tid:0 !n)

(* Durable metadata: the superblock word and the tags/bodies of the valid
   durable log prefix (at least one entry slot, so a flip lands somewhere
   detectable even when the log is empty).  Call after a crash, on the
   durable image. *)
let meta_ranges t =
  let n =
    match Pmem.Checksum.unseal (Pmem.durable_word t.pm sb_addr) with
    | None -> 1
    | Some p ->
        let bseq = p lsr 1 in
        let n = ref 0 in
        (try
           for i = 0 to t.log_cap - 1 do
             let e = log_entry t i in
             let cover =
               Pmem.Checksum.digest
                 (Array.init (entry_words - 1) (fun k ->
                      Pmem.durable_word t.pm (e + 1 + k)))
             in
             (match
                Pmem.Checksum.unseal ~cover (Pmem.durable_word t.pm e)
              with
             | Some q when q = bseq + i + 1 -> ()
             | Some _ | None -> raise Exit);
             incr n
           done
         with Exit -> ());
        max 1 !n
  in
  [ (sb_addr, sb_addr); (t.log_base, t.log_base + (n * entry_words) - 1) ]

include Ptm_intf.Crash (struct
  type nonrec t = t

  let pmem = pmem
  let recover = recover
  let meta_ranges = meta_ranges
end)
