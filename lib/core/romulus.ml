(** RomulusLR (Correia, Felber, Ramalhete, SPAA '18): the authors' earlier
    PTM, part of the paper's design space (Figure 1: efficient but
    blocking).  Included as the blocking-but-fast reference point.

    Design (from the Romulus paper, summarised in §2):
    - two replicas in PM, [main] and [back]; at least one is always
      consistent, and a persistent [state] word says which;
    - update transactions execute in place on [main] under a writer lock
      (blocking, starvation-free), flush the modified lines, then replay
      the volatile log onto [back] — four fences per transaction;
    - the LR (left-right) mechanism gives read-only transactions wait-free
      progress: readers announce themselves on one of two read indicators
      and read the replica the writer is not mutating;
    - recovery copies from whichever replica the [state] word proves
      consistent. *)

let name = "RomulusLR"

(* Every access to the left-right words is a yield point under the
   deterministic scheduler. *)
module Atomic = Sched.Atomic

(* Persistent state word values, sealed (Checksum.seal): the word embeds a
   16-bit validity tag, so recovery can tell the three legitimate states
   from a bit-flipped one.  A single 64-bit word persists atomically, so the
   seal can never be torn off its payload. *)
let st_idle = Pmem.Checksum.seal 0
let st_mutating = Pmem.Checksum.seal 1
let st_copying = Pmem.Checksum.seal 2

type t = {
  pm : Pmem.t;
  words : int;
  main_base : int;
  back_base : int;
  writer : Sched.Mutex.t;
  (* left-right: which replica read-only transactions currently use *)
  read_view : int Atomic.t; (* 0 = main, 1 = back *)
  ingress : int Atomic.t array; (* per-view read indicators *)
  dirty : Line_set.t; (* main's lines stored to by the current update *)
  bd : Breakdown.t;
}

and tx = {
  p : t;
  base : int;
  log : Wset.t option; (* Some for updates: modified words, for back replay *)
  tid : int;
}

let state_addr = 0

let create ~num_threads ~words () =
  if words <= Palloc.heap_base then invalid_arg "Romulus.create: words";
  (* Line-align main/back: a mid-line replica boundary would let one torn
     write-back corrupt both replicas at once. *)
  let words =
    (words + Pmem.words_per_line - 1) / Pmem.words_per_line * Pmem.words_per_line
  in
  let main_base = 64 in
  let back_base = main_base + words in
  let pm = Pmem.create ~max_threads:num_threads ~words:(back_base + words) () in
  let t =
    {
      pm;
      words;
      main_base;
      back_base;
      writer = Sched.Mutex.create ();
      read_view = Atomic.make 0;
      ingress = [| Atomic.make 0; Atomic.make 0 |];
      dirty = Line_set.create ~lines:(words / Pmem.words_per_line);
      bd = Breakdown.create ~num_threads;
    }
  in
  let mem =
    {
      Palloc.get = (fun a -> Pmem.get_word pm (main_base + a));
      set = (fun a v -> Pmem.set_word pm ~tid:0 (main_base + a) v);
    }
  in
  Palloc.format mem ~words;
  Pmem.blit_words pm ~tid:0 ~src:main_base ~dst:back_base words;
  Pmem.pwb_range pm ~tid:0 0 (back_base + words - 1);
  Pmem.set_word pm ~tid:0 state_addr st_idle;
  Pmem.pwb pm ~tid:0 state_addr;
  Pmem.psync pm ~tid:0;
  t

let pmem t = t.pm
let stats t = Pmem.stats t.pm
let breakdown t = t.bd

let[@inline] check_logical t a =
  if a < 0 || a >= t.words then invalid_arg "Romulus: address out of region"

let get tx a =
  check_logical tx.p a;
  Pmem.get_word tx.p.pm (tx.base + a)

let set tx a v =
  check_logical tx.p a;
  match tx.log with
  | None -> invalid_arg "Romulus: store in read-only transaction"
  | Some log ->
      Wset.record log a ~oldv:0L ~newv:v;
      Pmem.set_word tx.p.pm ~tid:tx.tid (tx.p.main_base + a) v

let mem_of_tx tx = { Palloc.get = get tx; set = set tx }
let alloc tx n = Palloc.alloc (mem_of_tx tx) n
let dealloc tx a = Palloc.dealloc (mem_of_tx tx) a

let drain t view =
  let b = Sync_prims.Backoff.create () in
  while Atomic.get t.ingress.(view) > 0 do
    ignore (Sync_prims.Backoff.once b)
  done

(* Abort after an exception unwound out of [update] (user lambda raised, or
   an injected crash): restore whichever replica the volatile state word
   says may be torn, exactly like recovery, then release readers back onto
   main.  After an injected crash every Pmem mutator is a no-op, which is
   fine — the harness follows up with [crash_and_recover]. *)
let abort_update t ~tid =
  let st = Pmem.get_word t.pm state_addr in
  if Int64.equal st st_mutating then
    Pmem.blit_words t.pm ~tid ~src:t.back_base ~dst:t.main_base t.words
  else if Int64.equal st st_copying then
    Pmem.blit_words t.pm ~tid ~src:t.main_base ~dst:t.back_base t.words;
  Pmem.pwb_range t.pm ~tid t.main_base (t.back_base + t.words - 1);
  Pmem.pfence t.pm ~tid;
  Pmem.set_word t.pm ~tid state_addr st_idle;
  Pmem.pwb t.pm ~tid state_addr;
  Pmem.psync t.pm ~tid;
  Atomic.set t.read_view 0

let update t ~tid f =
  Sched.Mutex.lock t.writer ~tid;
  let t0 = Unix.gettimeofday () in
  Line_set.clear t.dirty;
  let log = Wset.create ~aggregate:true in
  let tx = { p = t; base = t.main_base; log = Some log; tid } in
  match
    (* Readers must not see main while it is inconsistent. *)
    Atomic.set t.read_view 1;
    drain t 0;
    (* [1] announce the mutation durably *)
    Pmem.set_word t.pm ~tid state_addr st_mutating;
    Pmem.pwb t.pm ~tid state_addr;
    Pmem.pfence t.pm ~tid;
    let result = Breakdown.timed t.bd ~tid Lambda (fun () -> f tx) in
    (* [2] flush the modified lines of main *)
    Breakdown.timed t.bd ~tid Flush (fun () ->
        Wset.iter_redo log (fun a _ ->
            Line_set.add t.dirty (a / Pmem.words_per_line));
        Line_set.iter
          (fun line ->
            Pmem.pwb t.pm ~tid (t.main_base + (line * Pmem.words_per_line)))
          t.dirty;
        Pmem.pfence t.pm ~tid);
    (* [3] commit: main is now the consistent replica *)
    Pmem.set_word t.pm ~tid state_addr st_copying;
    Pmem.pwb t.pm ~tid state_addr;
    Pmem.psync t.pm ~tid;
    (* readers may use main again; replay the log onto back *)
    Atomic.set t.read_view 0;
    drain t 1;
    Breakdown.timed t.bd ~tid Apply (fun () ->
        Wset.iter_redo log (fun a v ->
            Pmem.set_word t.pm ~tid (t.back_base + a) v;
            Pmem.pwb t.pm ~tid (t.back_base + a)));
    (* [4] back consistent again *)
    Pmem.set_word t.pm ~tid state_addr st_idle;
    Pmem.pwb t.pm ~tid state_addr;
    Pmem.psync t.pm ~tid;
    result
  with
  | result ->
      Breakdown.add_total t.bd ~tid (Unix.gettimeofday () -. t0);
      Obs.tx_committed ~tid ~t0;
      Sched.Mutex.unlock t.writer ~tid;
      result
  | exception e ->
      Obs.tx_aborted ~tid;
      abort_update t ~tid;
      Sched.Mutex.unlock t.writer ~tid;
      raise e

(* Wait-free reads: announce on the current view's indicator, validate the
   view, read that replica.  The writer toggles the view before making a
   replica inconsistent and drains the indicator, so a validated reader is
   always on a consistent replica. *)
let read_only t ~tid f =
  let rec attempt () =
    let view = Atomic.get t.read_view in
    ignore (Atomic.fetch_and_add t.ingress.(view) 1);
    if Atomic.get t.read_view <> view then begin
      ignore (Atomic.fetch_and_add t.ingress.(view) (-1));
      attempt ()
    end
    else begin
      let base = if view = 0 then t.main_base else t.back_base in
      match f { p = t; base; log = None; tid } with
      | r ->
          ignore (Atomic.fetch_and_add t.ingress.(view) (-1));
          r
      | exception e ->
          ignore (Atomic.fetch_and_add t.ingress.(view) (-1));
          raise e
    end
  in
  attempt ()

let recover t =
  Obs.Trace.span Obs.Trace.Recovery ~tid:0 @@ fun () ->
  let st = Pmem.get_word t.pm state_addr in
  if
    not
      (Int64.equal st st_idle || Int64.equal st st_mutating
      || Int64.equal st st_copying)
  then begin
    (* The state word is the only arbiter of which replica is whole; with
       its seal broken neither replica can be trusted. *)
    Obs.recovery_unrecoverable ();
    raise
      (Ptm_intf.Unrecoverable
         {
           ptm = name;
           detail =
             Printf.sprintf "state word corrupt (durable value %Lx)" st;
         })
  end;
  if Int64.equal st st_mutating then
    (* main may be torn: restore it from back *)
    Pmem.blit_words t.pm ~tid:0 ~src:t.back_base ~dst:t.main_base t.words
  else
    (* [st_copying]: back may be torn, refresh it from main.  Also done for
       [st_idle]: a cache eviction may have made the idle state durable
       before the back-replay lines of the same transaction, so an idle
       durable image does not prove back is whole — main, whose flush is
       fenced before the state word can ever read idle, always is. *)
    Pmem.blit_words t.pm ~tid:0 ~src:t.main_base ~dst:t.back_base t.words;
  Pmem.pwb_range t.pm ~tid:0 t.main_base (t.back_base + t.words - 1);
  Pmem.set_word t.pm ~tid:0 state_addr st_idle;
  Pmem.pwb t.pm ~tid:0 state_addr;
  Pmem.psync t.pm ~tid:0;
  (* Volatile lock/indicator state does not survive the crash. *)
  Sched.Mutex.reset t.writer;
  Atomic.set t.read_view 0;
  Atomic.set t.ingress.(0) 0;
  Atomic.set t.ingress.(1) 0

let meta_ranges _t = [ (state_addr, state_addr) ]

include Ptm_intf.Crash (struct
  type nonrec t = t

  let pmem = pmem
  let recover = recover
  let meta_ranges = meta_ranges
end)

let nvm_usage_words t =
  let mem =
    {
      Palloc.get = (fun a -> Pmem.get_word t.pm (t.main_base + a));
      set = (fun _ _ -> ());
    }
  in
  Palloc.used_words mem + (2 * t.words)

let volatile_usage_words _t = 0

(* Progress surface: updates serialize on the writer lock (blocking);
   reads are wait-free left-right but a reader parked inside its critical
   section blocks the writer's indicator drain.  The blocked-detection
   round stalls the lock holder. *)
let wait_free = false

let stall_hazard t ~tid =
  match Sched.Mutex.holder t.writer with Some o -> o = tid | None -> false

let announced_pending _t ~tid:_ = false
