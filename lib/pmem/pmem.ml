module Checksum = Checksum

let words_per_line = 8 (* 64-byte cache lines of 64-bit words *)

exception Crash_injected

(* Per-thread staging buffer: cache lines pwb'ed but not yet fenced. *)
type staging = {
  mutable lines : int array;
  mutable count : int;
}

(* Per-thread counters, kept apart to avoid cross-thread contention. Indices
   into the [counters] array: *)
let c_pwb = 0
let c_pfence = 1
let c_psync = 2
let c_ntstore = 3
let n_counters = 4

(* Crash-injection plan: when armed, one persistence-relevant event (a
   "step") eventually fires the crash. *)
type plan =
  | No_plan
  | At_step of int (* absolute step number at which to fire *)
  | Probabilistic of { rng : Random.State.t; prob : float }

(* Both images are arrays of 64-bit words behind a mmap.  The volatile
   image, and the durable one of a region without a file, are private
   maps of /dev/zero: the OS commits a page on its first store, so a
   region costs resident memory for the lines it touched, not for its
   capacity.  A file-backed durable image is a MAP_SHARED map of the
   region file, which is what makes a real [kill -9] an honest power
   failure: words written back through [writeback_line*] land in the
   kernel page cache and survive the process, while the volatile image,
   staging buffers and dirty set die with it — exactly the split the
   simulated [crash] models.  All accesses are aligned 64-bit words. *)
type image = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

let map_fd fd kind ~shared n =
  Bigarray.array1_of_genarray
    (Unix.map_file fd kind Bigarray.c_layout shared [| n |])

let zero_map kind n =
  let fd = Unix.openfile "/dev/zero" [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () -> map_fd fd kind ~shared:false n)

type t = {
  words : int;
  nlines : int;
  data : image; (* volatile (cache) image *)
  durable : image; (* what survives a crash *)
  dirty : (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t;
      (* one byte per line: written since last made durable *)
  staging : staging array; (* per tid *)
  counters : int array array; (* per tid *)
  rmw_lock : Mutex.t; (* simulation-level atomicity for [cas_word] *)
  mutable flush_cost : int; (* cpu_relax iterations per written-back line *)
  (* Fault injection (see .mli).  [tracking] turns the step counter on;
     [steps] is the monotone event counter; [frozen] latches after an
     injected crash so that the region ignores every store/flush until the
     harness calls [crash]/[crash_with_evictions]. *)
  mutable tracking : bool;
  steps : int Atomic.t;
  mutable plan : plan;
  mutable frozen : bool;
  injected : int Atomic.t;
  (* Media-fault counters (see crash_with_faults / corrupt_words). *)
  torn_lines : int Atomic.t;
  bit_flips : int Atomic.t;
}

(* Device model: approximate per-line write-back latency (see .mli). *)
let default_flush_cost = Atomic.make 0
let set_default_flush_cost n = Atomic.set default_flush_cost n
let set_flush_cost t n = t.flush_cost <- n

let size_words t = t.words

(* Map [words] 64-bit words of [path] as a shared Int64 bigarray.  The
   file is created/truncated when [truncate]; otherwise it must already
   hold exactly [words * 8] bytes. *)
let map_backing ~path ~words ~truncate =
  let flags =
    if truncate then Unix.[ O_RDWR; O_CREAT; O_TRUNC ] else Unix.[ O_RDWR ]
  in
  let fd = Unix.openfile path flags 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      if truncate then Unix.ftruncate fd (words * 8);
      map_fd fd Bigarray.int64 ~shared:true words)

let mk ~max_threads ~words ~durable =
  let nlines = words / words_per_line in
  {
    words;
    nlines;
    data = zero_map Bigarray.int64 words;
    durable;
    dirty = zero_map Bigarray.char nlines;
    staging =
      Array.init max_threads (fun _ -> { lines = Array.make 64 0; count = 0 });
    counters = Array.init max_threads (fun _ -> Array.make n_counters 0);
    rmw_lock = Mutex.create ();
    flush_cost = Atomic.get default_flush_cost;
    tracking = false;
    steps = Atomic.make 0;
    plan = No_plan;
    frozen = false;
    injected = Atomic.make 0;
    torn_lines = Atomic.make 0;
    bit_flips = Atomic.make 0;
  }

(* Make the volatile image equal the durable one by compare-and-write:
   a word is stored only where the two differ, so pages neither image
   has touched stay uncommitted, while every durable word — rot on a
   line nobody dirtied included — still reaches the volatile image. *)
let reload t =
  for addr = 0 to t.words - 1 do
    let d = Bigarray.Array1.unsafe_get t.durable addr in
    if not (Int64.equal (Bigarray.Array1.unsafe_get t.data addr) d) then
      Bigarray.Array1.unsafe_set t.data addr d
  done

let create ?backing ~max_threads ~words () =
  if max_threads < 1 then invalid_arg "Pmem.create: max_threads < 1";
  if words < words_per_line then invalid_arg "Pmem.create: words too small";
  let words = (words + words_per_line - 1) / words_per_line * words_per_line in
  let durable =
    match backing with
    | None -> zero_map Bigarray.int64 words
    | Some path -> map_backing ~path ~words ~truncate:true
  in
  mk ~max_threads ~words ~durable

let reopen ~max_threads ~backing () =
  if max_threads < 1 then invalid_arg "Pmem.reopen: max_threads < 1";
  let st = Unix.stat backing in
  let bytes = st.Unix.st_size in
  if bytes < words_per_line * 8 || bytes mod (words_per_line * 8) <> 0 then
    invalid_arg
      (Printf.sprintf "Pmem.reopen: %s has %d bytes, not a positive line \
                       multiple" backing bytes);
  let words = bytes / 8 in
  let durable = map_backing ~path:backing ~words ~truncate:false in
  let t = mk ~max_threads ~words ~durable in
  (* The volatile image of a freshly restarted machine is whatever the
     durable medium holds — same as post-[crash]. *)
  reload t;
  t

let[@inline] check_addr t addr =
  if addr < 0 || addr >= t.words then
    invalid_arg (Printf.sprintf "Pmem: address %d out of bounds" addr)

let[@inline] line_of addr = addr / words_per_line

(* The crash fires *after* the triggering event took its volatile effect
   (the store landed, the line got staged, the fence drained): the machine
   dies between this instruction and the next one.  [frozen] then turns all
   subsequent mutators into no-ops — the CPU is gone — while keeping the
   dirty-line set intact so that a later [crash_with_evictions] can still
   model arbitrary cache evictions of the at-crash dirty lines. *)
let fire t =
  t.plan <- No_plan;
  t.frozen <- true;
  Atomic.incr t.injected;
  Obs.Trace.instant Obs.Trace.Crash ~tid:0 ~arg:(Atomic.get t.steps);
  raise Crash_injected

let[@inline never] step_slow t =
  let n = 1 + Atomic.fetch_and_add t.steps 1 in
  match t.plan with
  | No_plan -> ()
  | At_step k -> if n >= k then fire t
  | Probabilistic { rng; prob } ->
      if Random.State.float rng 1.0 < prob then fire t

let[@inline] step t = if t.tracking then step_slow t

let[@inline] get_word t addr =
  Sched.yield ();
  check_addr t addr;
  Bigarray.Array1.unsafe_get t.data addr

let[@inline] mark_line t line = Bigarray.Array1.unsafe_set t.dirty line '\001'
let[@inline] mark_dirty t addr = mark_line t (line_of addr)

let[@inline] set_word t ~tid:_ addr v =
  Sched.yield ();
  check_addr t addr;
  if not t.frozen then begin
    Bigarray.Array1.unsafe_set t.data addr v;
    mark_dirty t addr;
    step t
  end

(* Word-by-word copy using aligned 64-bit accesses so that concurrent
   readers of the destination never observe torn words (a memmove could
   interleave at byte granularity). *)
let copy_words_raw (img : image) ~src_off ~dst_off len =
  for i = 0 to len - 1 do
    Bigarray.Array1.unsafe_set img (dst_off + i)
      (Bigarray.Array1.unsafe_get img (src_off + i))
  done

let blit_words t ~tid:_ ~src ~dst len =
  if len < 0 then invalid_arg "Pmem.blit_words: negative length";
  if len > 0 then begin
    check_addr t src;
    check_addr t (src + len - 1);
    check_addr t dst;
    check_addr t (dst + len - 1);
    if not t.frozen then begin
      (* Line by line, one step each: an injected crash can land with the
         copy half done, exactly like a real replica copy interrupted by a
         power failure. *)
      for line = line_of dst to line_of (dst + len - 1) do
        Sched.yield ();
        let lo = max dst (line * words_per_line) in
        let hi = min (dst + len - 1) (((line + 1) * words_per_line) - 1) in
        copy_words_raw t.data
          ~src_off:(src + (lo - dst))
          ~dst_off:lo
          (hi - lo + 1);
        mark_line t line;
        step t
      done
    end
  end

let cas_word t ~tid:_ addr ~expected ~desired =
  (* Yield point before the lock: the rmw critical section itself never
     yields, so a fiber can never be suspended holding [rmw_lock]. *)
  Sched.yield ();
  check_addr t addr;
  (* A frozen region cannot return a meaningful success/failure — and CAS
     retry loops (e.g. CX's [curComb] transition) would spin forever on a
     dead machine — so re-raise instead of no-op'ing. *)
  if t.frozen then raise Crash_injected;
  Mutex.lock t.rmw_lock;
  let cur = Bigarray.Array1.unsafe_get t.data addr in
  let ok = Int64.equal cur expected in
  if ok then begin
    Bigarray.Array1.unsafe_set t.data addr desired;
    mark_dirty t addr
  end;
  Mutex.unlock t.rmw_lock;
  (* Step (and possibly raise) only after the lock is released, so an
     injected crash can never leave [rmw_lock] held. *)
  if ok then step t;
  ok

let stage_line t ~tid line =
  let s = t.staging.(tid) in
  if s.count = Array.length s.lines then begin
    let bigger = Array.make (2 * s.count) 0 in
    Array.blit s.lines 0 bigger 0 s.count;
    s.lines <- bigger
  end;
  s.lines.(s.count) <- line;
  s.count <- s.count + 1

let pwb t ~tid addr =
  check_addr t addr;
  if not t.frozen then begin
    stage_line t ~tid (line_of addr);
    let c = t.counters.(tid) in
    c.(c_pwb) <- c.(c_pwb) + 1;
    step t
  end

let pwb_range t ~tid lo hi =
  (* An empty range is a legitimate no-op (e.g. flushing a zero-length
     write-set). *)
  if lo <= hi then begin
    check_addr t lo;
    check_addr t hi;
    if not t.frozen then begin
      let c = t.counters.(tid) in
      for line = line_of lo to line_of hi do
        stage_line t ~tid line;
        c.(c_pwb) <- c.(c_pwb) + 1;
        step t
      done
    end
  end

(* Write a line back to the durable image without the device-latency model
   (used by simulated crashes, which should not pay it). *)
(* Persist [len] words starting at [off] from the volatile image, one
   aligned 64-bit store each — on a mapped image each word hits the
   shared page individually, so a process killed mid-copy leaves a
   prefix of whole words (a torn line, never a torn word). *)
let persist_words t ~off len =
  for i = 0 to len - 1 do
    Bigarray.Array1.unsafe_set t.durable (off + i)
      (Bigarray.Array1.unsafe_get t.data (off + i))
  done

let writeback_line_raw t line =
  let off = line * words_per_line in
  persist_words t ~off words_per_line;
  Bigarray.Array1.unsafe_set t.dirty line '\000'

(* Write a staged line back to the durable image.  The line contents are the
   ones current at fence time, which is a legal CLWB/SFENCE behaviour. *)
let writeback_line t line =
  writeback_line_raw t line;
  for _ = 1 to t.flush_cost do
    Domain.cpu_relax ()
  done

let drain t ~tid =
  let s = t.staging.(tid) in
  for i = 0 to s.count - 1 do
    writeback_line t s.lines.(i)
  done;
  s.count <- 0

let pfence t ~tid =
  if not t.frozen then begin
    let staged = t.staging.(tid).count in
    drain t ~tid;
    let c = t.counters.(tid) in
    c.(c_pfence) <- c.(c_pfence) + 1;
    Obs.Trace.instant Obs.Trace.Fence ~tid ~arg:staged;
    step t
  end

let psync t ~tid =
  if not t.frozen then begin
    let staged = t.staging.(tid).count in
    drain t ~tid;
    let c = t.counters.(tid) in
    c.(c_psync) <- c.(c_psync) + 1;
    Obs.Trace.instant Obs.Trace.Fence ~tid ~arg:staged;
    step t
  end

let ntstore_word t ~tid addr v =
  check_addr t addr;
  if not t.frozen then begin
    Bigarray.Array1.unsafe_set t.data addr v;
    mark_dirty t addr;
    stage_line t ~tid (line_of addr);
    let c = t.counters.(tid) in
    c.(c_ntstore) <- c.(c_ntstore) + 1;
    step t
  end

let ntcopy_words t ~tid ~src ~dst len =
  if len < 0 then invalid_arg "Pmem.ntcopy_words: negative length";
  if len > 0 then begin
    check_addr t src;
    check_addr t (src + len - 1);
    check_addr t dst;
    check_addr t (dst + len - 1);
    if not t.frozen then begin
      let c = t.counters.(tid) in
      for line = line_of dst to line_of (dst + len - 1) do
        Sched.yield ();
        let lo = max dst (line * words_per_line) in
        let hi = min (dst + len - 1) (((line + 1) * words_per_line) - 1) in
        copy_words_raw t.data
          ~src_off:(src + (lo - dst))
          ~dst_off:lo
          (hi - lo + 1);
        mark_line t line;
        stage_line t ~tid line;
        c.(c_ntstore) <- c.(c_ntstore) + 1;
        step t
      done
    end
  end

let crash t =
  Obs.Trace.instant Obs.Trace.Crash ~tid:0;
  reload t;
  (* Clear only the set marks, for the same reason as [reload]. *)
  for line = 0 to t.nlines - 1 do
    if Bigarray.Array1.unsafe_get t.dirty line <> '\000' then
      Bigarray.Array1.unsafe_set t.dirty line '\000'
  done;
  Array.iter (fun s -> s.count <- 0) t.staging;
  t.frozen <- false;
  t.plan <- No_plan

let crash_with_evictions t ~seed ~prob =
  let rng = Random.State.make [| seed |] in
  for line = 0 to t.nlines - 1 do
    if t.dirty.{line} = '\001' && Random.State.float rng 1.0 < prob
    then writeback_line_raw t line
  done;
  crash t

(* Torn write-back: persist only some of the line's 8 words.  Half the time
   a prefix (a write-back interrupted mid-line), half the time an arbitrary
   proper subset (word-granularity store reordering inside the line).  Every
   single word still persists atomically — 8-byte atomic persists are the
   model's baseline — so a torn line can never yield a torn word. *)
let writeback_line_torn t rng line =
  let off = line * words_per_line in
  (if Random.State.bool rng then begin
     let k = 1 + Random.State.int rng (words_per_line - 1) in
     persist_words t ~off k
   end
   else begin
     (* nonempty proper subset: mask in [1, 2^8 - 2] *)
     let mask = 1 + Random.State.int rng ((1 lsl words_per_line) - 2) in
     for i = 0 to words_per_line - 1 do
       if mask land (1 lsl i) <> 0 then persist_words t ~off:(off + i) 1
     done
   end);
  Atomic.incr t.torn_lines;
  Obs.torn_line_persisted ()

let crash_with_faults t ~seed ~evict_prob ~torn_prob =
  if not (evict_prob >= 0.0 && evict_prob <= 1.0) then
    invalid_arg "Pmem.crash_with_faults: evict_prob not in [0, 1]";
  if not (torn_prob >= 0.0 && torn_prob <= 1.0) then
    invalid_arg "Pmem.crash_with_faults: torn_prob not in [0, 1]";
  let rng = Random.State.make [| seed; 0xfa17 |] in
  for line = 0 to t.nlines - 1 do
    if t.dirty.{line} = '\001' && Random.State.float rng 1.0 < evict_prob
    then
      if Random.State.float rng 1.0 < torn_prob then
        writeback_line_torn t rng line
      else writeback_line_raw t line
  done;
  crash t

let corrupt_words_in t ~seed ~count ~ranges =
  if count < 0 then invalid_arg "Pmem.corrupt_words_in: count < 0";
  let ranges =
    List.filter
      (fun (lo, hi) ->
        check_addr t lo;
        check_addr t hi;
        lo <= hi)
      ranges
  in
  let total = List.fold_left (fun n (lo, hi) -> n + hi - lo + 1) 0 ranges in
  if total > 0 then begin
    let rng = Random.State.make [| seed; 0xb17f |] in
    for _ = 1 to count do
      let i = Random.State.int rng total in
      let rec pick i = function
        | [] -> assert false
        | (lo, hi) :: tl -> if i <= hi - lo then lo + i else pick (i - (hi - lo + 1)) tl
      in
      let addr = pick i ranges in
      let bit = Random.State.int rng 64 in
      let mask = Int64.shift_left 1L bit in
      (* A media error corrupts the durable copy; mirror it into the
         volatile image too so that this can be called on a quiesced,
         post-crash region without racing the cache model. *)
      t.durable.{addr} <- Int64.logxor t.durable.{addr} mask;
      t.data.{addr} <- Int64.logxor t.data.{addr} mask;
      Atomic.incr t.bit_flips;
      Obs.bit_flip_injected ()
    done
  end

let corrupt_words t ~seed ~count =
  corrupt_words_in t ~seed ~count ~ranges:[ (0, t.words - 1) ]

let corrupt_durable_words_in t ~seed ~count ~ranges =
  if count < 0 then invalid_arg "Pmem.corrupt_durable_words_in: count < 0";
  let ranges =
    List.filter
      (fun (lo, hi) ->
        check_addr t lo;
        check_addr t hi;
        lo <= hi)
      ranges
  in
  let total = List.fold_left (fun n (lo, hi) -> n + hi - lo + 1) 0 ranges in
  if total > 0 then begin
    let rng = Random.State.make [| seed; 0xb17f |] in
    for _ = 1 to count do
      let i = Random.State.int rng total in
      let rec pick i = function
        | [] -> assert false
        | (lo, hi) :: tl -> if i <= hi - lo then lo + i else pick (i - (hi - lo + 1)) tl
      in
      let addr = pick i ranges in
      let bit = Random.State.int rng 64 in
      let mask = Int64.shift_left 1L bit in
      (* Silent media corruption: ONLY the durable image is damaged.  The
         volatile copy the running process reads stays intact, so live
         operations cannot observe the rot — only a scrub that re-reads
         [durable_word], or the next crash (which reloads the volatile
         image from the durable one), surfaces it. *)
      t.durable.{addr} <- Int64.logxor t.durable.{addr} mask;
      Atomic.incr t.bit_flips;
      Obs.bit_flip_injected ()
    done
  end

let durable_word t addr =
  check_addr t addr;
  t.durable.{addr}

(* ---- Fault injection API ---------------------------------------------- *)

let set_step_tracking t on =
  t.tracking <- on;
  if on then Atomic.set t.steps 0

let steps t = Atomic.get t.steps
let crash_pending t = t.plan <> No_plan
let crash_fired t = t.frozen

let inject_crash_after_step t n =
  if n < 1 then invalid_arg "Pmem.inject_crash_after_step: n < 1";
  if not t.tracking then t.tracking <- true;
  t.plan <- At_step (Atomic.get t.steps + n)

let inject_crash_probabilistic t ~seed ~prob =
  if not (prob >= 0.0 && prob <= 1.0) then
    invalid_arg "Pmem.inject_crash_probabilistic: prob not in [0, 1]";
  if not t.tracking then t.tracking <- true;
  t.plan <- Probabilistic { rng = Random.State.make [| seed |]; prob }

let clear_injection t = t.plan <- No_plan

module Stats = struct
  type snapshot = {
    pwb : int;
    pfence : int;
    psync : int;
    ntstore : int;
    steps : int;
    crashes_injected : int;
    torn_lines : int;
    bit_flips : int;
  }

  let zero =
    {
      pwb = 0;
      pfence = 0;
      psync = 0;
      ntstore = 0;
      steps = 0;
      crashes_injected = 0;
      torn_lines = 0;
      bit_flips = 0;
    }

  let add a b =
    {
      pwb = a.pwb + b.pwb;
      pfence = a.pfence + b.pfence;
      psync = a.psync + b.psync;
      ntstore = a.ntstore + b.ntstore;
      steps = a.steps + b.steps;
      crashes_injected = a.crashes_injected + b.crashes_injected;
      torn_lines = a.torn_lines + b.torn_lines;
      bit_flips = a.bit_flips + b.bit_flips;
    }

  let diff a b =
    {
      pwb = a.pwb - b.pwb;
      pfence = a.pfence - b.pfence;
      psync = a.psync - b.psync;
      ntstore = a.ntstore - b.ntstore;
      steps = a.steps - b.steps;
      crashes_injected = a.crashes_injected - b.crashes_injected;
      torn_lines = a.torn_lines - b.torn_lines;
      bit_flips = a.bit_flips - b.bit_flips;
    }

  let fences s = s.pfence + s.psync

  let pp ppf s =
    Format.fprintf ppf
      "pwb=%d pfence=%d psync=%d ntstore=%d steps=%d injected=%d torn=%d \
       flips=%d"
      s.pwb s.pfence s.psync s.ntstore s.steps
      s.crashes_injected s.torn_lines s.bit_flips
end

let snapshot_of_counters c =
  {
    Stats.pwb = c.(c_pwb);
    pfence = c.(c_pfence);
    psync = c.(c_psync);
    ntstore = c.(c_ntstore);
    steps = 0;
    crashes_injected = 0;
    torn_lines = 0;
    bit_flips = 0;
  }

let stats_of_tid t ~tid = snapshot_of_counters t.counters.(tid)
let stats_per_thread t = Array.map snapshot_of_counters t.counters

let stats t =
  let base =
    Array.fold_left
      (fun acc c -> Stats.add acc (snapshot_of_counters c))
      Stats.zero t.counters
  in
  {
    base with
    Stats.steps = Atomic.get t.steps;
    crashes_injected = Atomic.get t.injected;
    torn_lines = Atomic.get t.torn_lines;
    bit_flips = Atomic.get t.bit_flips;
  }

let reset_stats t =
  Array.iter (fun c -> Array.fill c 0 n_counters 0) t.counters
