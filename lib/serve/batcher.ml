(* Per-shard group commit: queued write requests coalesce into one
   RedoDB write_batch (one PTM transaction) per batch window.

   There is no dedicated commit thread.  The queue is leader-based, like
   classic WAL group commit: a submitter that finds the leader slot free
   claims it, drains up to [max_batch] requests (waiting out the
   configurable linger window first, so followers can pile in), runs the
   combined transaction, acks every drained request, and repeats until
   all of its own requests are final.

   A submission is a GROUP of requests, not one.  The reactor hands the
   engine every single-key write queued at its ingress in one pass, and
   the engine gives each shard's slice to that shard's batcher in one
   [submit] (chunks of at most [min max_batch queue_cap], so a group
   never overloads against its own size).  At zero linger on one event
   loop that is where batches form: the leader's own group fills its
   batch.  Followers — submitters that wait while someone else leads —
   exist only across reactor domains or while a leader lingers.  Each
   request keeps its own state, rid, enqueue time and deadline, and so
   its own result, queue-wait span and TTL shedding.

   Admission control is a bounded queue: a request that finds it full is
   rejected immediately (`Overloaded) instead of buffering without
   bound, so overload surfaces as explicit backpressure at the protocol
   layer.

   Every wait and the linger clock go through Park, so the same code
   runs under the scheduler (where the window counts steps), on an event
   loop and on plain Domains.

   An acknowledged request is durable: the ack is written only after the
   PTM transaction that contains it has committed (write_batch returned,
   two fences retired).  A crash may lose unacknowledged requests —
   whole batches at a time, never a batch prefix — which is exactly
   durable linearizability at the serving boundary. *)

module A = Sched.Atomic

let window = 1024

(* The last [window] entries of an append-only log, and how many were
   ever appended. *)
module Recent = struct
  type 'a t = { slots : 'a option array; mutable total : int }

  let make () = { slots = Array.make window None; total = 0 }

  let push r x =
    r.slots.(r.total mod window) <- Some x;
    r.total <- r.total + 1

  let to_list r =
    let n = min r.total window in
    List.init n (fun i -> Option.get r.slots.((r.total - n + i) mod window))
end

type write = {
  ops : (string * string option) list;
  rid : int;  (* wire request id (0 = none), carried into trace spans *)
  deadline : float;  (* absolute gettimeofday deadline; 0. = none *)
}

type request = {
  w : write;
  state : int A.t;
      (* 0 = Pending, 1 = Acked, 2 = Rejected, 3 = Shed,
         4 = Quarantined (shard health admission reject),
         5 = Overloaded (never enqueued) *)
  t_enq : float;  (* gettimeofday at enqueue, 0. when obs is inactive *)
}

type t = {
  db : Kv.Redodb.t;
  shard : int;
  max_batch : int;
  linger_us : float;  (* linger of a non-full batch, on Park's clock *)
  queue_cap : int;
  lock : Sched.Mutex.t;  (* protects q, sizes, attempts *)
  q : request Queue.t;
  qlen : int A.t;  (* mirrors Queue.length q for lock-free peeks *)
  leader : int A.t;  (* committing tid, or -1 *)
  crashing : bool A.t;
  quarantined : bool A.t;
      (* shard health admission: reject new and queued requests with
         `Quarantined (distinct from crashing — the rest of the engine
         keeps serving, and the reply names the one dead shard) *)
  ack_early : bool A.t;
      (* ack-before-commit mutant: acknowledge drained requests BEFORE
         their batch transaction commits.  Deliberately unsound — the
         supervised kill-restart audit must catch the acked-write loss a
         kill in the ack-to-commit window produces. *)
  sizes : int Recent.t;  (* committed batch sizes *)
  attempts : string list Recent.t;
      (* keys of each drained batch, logged BEFORE its commit: the
         mid-batch crash oracle checks all-or-nothing against this *)
  c_overload : Obs.Metrics.counter;
  c_shed : Obs.Metrics.counter;  (* requests dropped on TTL expiry *)
  c_batches : Obs.Metrics.counter;
  h_batch : Obs.Metrics.histogram;
  h_qdepth : Obs.Metrics.histogram;
  h_queue : Obs.Metrics.histogram;  (* enqueue -> drain wait, ns *)
  h_linger : Obs.Metrics.histogram;  (* leader batch-fill window, ns *)
  h_drain : Obs.Metrics.histogram;  (* queue drain under the lock, ns *)
  h_txn : Obs.Metrics.histogram;  (* combined write_batch transaction, ns *)
}

let create ~db ~shard ~max_batch ~linger_us ~queue_cap =
  if max_batch < 1 then invalid_arg "Batcher.create: max_batch";
  if queue_cap < 1 then invalid_arg "Batcher.create: queue_cap";
  {
    db;
    shard;
    max_batch;
    linger_us;
    queue_cap;
    lock = Sched.Mutex.create ();
    q = Queue.create ();
    qlen = A.make 0;
    leader = A.make (-1);
    crashing = A.make false;
    quarantined = A.make false;
    ack_early = A.make false;
    sizes = Recent.make ();
    attempts = Recent.make ();
    c_overload = Obs.Metrics.counter "serve.overload_rejections";
    c_shed = Obs.Metrics.counter "serve.shed.expired";
    c_batches = Obs.Metrics.counter "serve.batches";
    h_batch = Obs.Metrics.histogram "serve.batch_size";
    h_qdepth = Obs.Metrics.histogram (Printf.sprintf "serve.shard%d.queue_depth" shard);
    h_queue = Obs.Metrics.histogram "serve.stage.queue";
    h_linger = Obs.Metrics.histogram "serve.stage.linger";
    h_drain = Obs.Metrics.histogram "serve.stage.drain";
    h_txn = Obs.Metrics.histogram "serve.stage.txn";
  }

(* Drain up to max_batch requests.  Must run with the lock held. *)
let drain_locked t =
  let n = min t.max_batch (Queue.length t.q) in
  let batch = List.init n (fun _ -> Queue.pop t.q) in
  A.set t.qlen (Queue.length t.q);
  batch

(* Queue wait ends when the leader drains the request into a batch: one
   Queue_wait span per request (linked by its rid) plus the
   serve.stage.queue distribution. *)
let note_drained t ~tid batch =
  if Obs.is_active () then begin
    let now = Unix.gettimeofday () in
    let on = Obs.Metrics.is_on () in
    List.iter
      (fun r ->
        if r.t_enq > 0. then begin
          Obs.Trace.complete Obs.Trace.Queue_wait ~tid ~rid:r.w.rid ~t0:r.t_enq;
          if on then
            Obs.Metrics.record_ns t.h_queue ~tid
              (int_of_float ((now -. r.t_enq) *. 1e9))
        end)
      batch
  end

(* Deadline shedding: requests whose TTL ran out while they queued are
   dropped at drain time, before any engine work is spent on them.  The
   clock is wall time only — requests submitted under the deterministic
   scheduler carry no deadline, so scheduled-mode replay determinism is
   untouched. *)
let split_expired batch =
  if List.for_all (fun r -> r.w.deadline = 0.) batch then (batch, [])
  else
    let now = Unix.gettimeofday () in
    List.partition (fun r -> r.w.deadline = 0. || now <= r.w.deadline) batch

let shed t ~tid expired =
  List.iter (fun r -> A.set r.state 3) expired;
  if expired <> [] && Obs.Metrics.is_on () then
    List.iter (fun _ -> Obs.Metrics.incr t.c_shed ~tid) expired

let commit_batch t ~tid batch =
  let keys = List.concat_map (fun r -> List.map fst r.w.ops) batch in
  Sched.Mutex.lock t.lock ~tid;
  Recent.push t.attempts keys;
  Sched.Mutex.unlock t.lock ~tid;
  let size = List.length batch in
  let t_txn = if Obs.Metrics.is_on () then Unix.gettimeofday () else 0. in
  (* Mutant: release every waiter (their TCP acks go out) BEFORE the
     batch transaction commits, then park a beat so a process kill
     reliably lands inside the window — the unsoundness the supervised
     kill-restart audit exists to catch.  On an event loop the park lets
     the loop write those acks meanwhile.  Real mode only (ack_early is
     never set under the deterministic scheduler). *)
  if A.get t.ack_early then begin
    List.iter (fun r -> A.set r.state 1) batch;
    Park.sleep 0.005
  end;
  (* If the transaction dies (e.g. allocator exhaustion), the drained
     requests must not hang their clients: reject them and let the
     exception surface through the leader's own submit. *)
  (try
     Obs.Trace.span Obs.Trace.Batch ~tid ~arg:size @@ fun () ->
     Kv.Redodb.write_batch t.db ~tid (List.concat_map (fun r -> r.w.ops) batch)
   with e ->
     List.iter (fun r -> A.set r.state 2) batch;
     raise e);
  if Obs.Metrics.is_on () then begin
    Obs.Metrics.incr t.c_batches ~tid;
    Obs.Metrics.record_ns t.h_batch ~tid size;
    if t_txn > 0. then
      Obs.Metrics.record_ns t.h_txn ~tid
        (int_of_float ((Unix.gettimeofday () -. t_txn) *. 1e9))
  end;
  Sched.Mutex.lock t.lock ~tid;
  Recent.push t.sizes size;
  Sched.Mutex.unlock t.lock ~tid;
  List.iter (fun r -> A.set r.state 1) batch

let run_leader t ~tid ~pending =
  while pending () do
    if A.get t.crashing || A.get t.quarantined then begin
      (* Reject everything still queued (unacknowledged by construction);
         the engine's quiesce loop waits for this drain.  Quarantine
         drains identically but with its own terminal state, so waiters
         learn WHICH failure they hit (retry after recovery vs. retry
         after the shard is readmitted). *)
      let st = if A.get t.crashing then 2 else 4 in
      Sched.Mutex.lock t.lock ~tid;
      let batch = ref [] in
      Queue.iter (fun r -> batch := r :: !batch) t.q;
      Queue.clear t.q;
      A.set t.qlen 0;
      Sched.Mutex.unlock t.lock ~tid;
      List.iter (fun r -> A.set r.state st) !batch
    end
    else begin
      (* Linger: give followers a window to fill the batch, bounded by
         the flush deadline.  A zero window commits what is queued.
         (Observability timestamps are wall clock even under the
         scheduler — recording never yields, so determinism holds; only
         the linger logic itself uses Park's clock.) *)
      let obs = Obs.is_active () in
      let t_linger = if obs then Unix.gettimeofday () else 0. in
      let opened = Park.now_us () in
      Park.await (fun () ->
          if
            A.get t.qlen < t.max_batch
            && Park.now_us () -. opened < t.linger_us
            && (not (A.get t.crashing))
            && not (A.get t.quarantined)
          then None
          else Some ());
      let t_drain = if obs then Unix.gettimeofday () else 0. in
      Sched.Mutex.lock t.lock ~tid;
      let batch = drain_locked t in
      Sched.Mutex.unlock t.lock ~tid;
      let size = List.length batch in
      if obs then begin
        Obs.Trace.complete Obs.Trace.Linger ~tid ~arg:size ~t0:t_linger;
        Obs.Trace.complete Obs.Trace.Drain ~tid ~arg:size ~t0:t_drain;
        if Obs.Metrics.is_on () then begin
          let now = Unix.gettimeofday () in
          Obs.Metrics.record_ns t.h_linger ~tid
            (int_of_float ((t_drain -. t_linger) *. 1e9));
          Obs.Metrics.record_ns t.h_drain ~tid
            (int_of_float ((now -. t_drain) *. 1e9))
        end
      end;
      note_drained t ~tid batch;
      if batch <> [] then
        if A.get t.crashing then List.iter (fun r -> A.set r.state 2) batch
        else if A.get t.quarantined then
          List.iter (fun r -> A.set r.state 4) batch
        else begin
          let live, expired = split_expired batch in
          shed t ~tid expired;
          if live <> [] then commit_batch t ~tid live
        end
    end
  done

let result_of_state = function
  | 1 -> Result.Ok ()
  | 2 -> Error `Rejected
  | 3 -> Error `Shed
  | 4 -> Error `Quarantined
  | _ -> Error `Overloaded

(* Admit a group in order: a request whose deadline already passed is
   shed without touching the queue, and once the queue is full every
   later request of the group is rejected (never enqueued). *)
let admit t ~tid group =
  let t_enq = if Obs.is_active () then Unix.gettimeofday () else 0. in
  let now =
    if List.exists (fun w -> w.deadline > 0.) group then Unix.gettimeofday ()
    else 0.
  in
  let shed = ref 0 and over = ref 0 in
  Sched.Mutex.lock t.lock ~tid;
  let mine =
    List.map
      (fun w ->
        let st =
          if w.deadline > 0. && now > w.deadline then (incr shed; 3)
          else if !over = 0 && Queue.length t.q < t.queue_cap then 0
          else (incr over; 5)
        in
        let r = { w; state = A.make st; t_enq } in
        if st = 0 then Queue.push r t.q;
        r)
      group
  in
  A.set t.qlen (Queue.length t.q);
  Sched.Mutex.unlock t.lock ~tid;
  for _ = 1 to !over do
    Obs.Metrics.incr t.c_overload ~tid
  done;
  if Obs.Metrics.is_on () then begin
    for _ = 1 to !shed do
      Obs.Metrics.incr t.c_shed ~tid
    done;
    if !shed + !over < List.length group then
      Obs.Metrics.record_ns t.h_qdepth ~tid (A.get t.qlen)
  end;
  mine

let submit t ~tid group =
  if A.get t.quarantined then List.map (fun _ -> Error `Quarantined) group
  else if A.get t.crashing then List.map (fun _ -> Error `Rejected) group
  else begin
    let mine = admit t ~tid group in
    let pending () = List.exists (fun r -> A.get r.state = 0) mine in
    (* Lead whenever the leader slot is free, then look again at once;
       only a follower's failed look pauses. *)
    let rec poll () =
      if not (pending ()) then Some ()
      else if A.get t.leader = -1 && A.compare_and_set t.leader (-1) tid then begin
        Fun.protect
          ~finally:(fun () -> A.set t.leader (-1))
          (fun () -> run_leader t ~tid ~pending);
        poll ()
      end
      else None
    in
    Park.await poll;
    List.map (fun r -> result_of_state (A.get r.state)) mine
  end

(* ---- crash plumbing (engine-driven) ---- *)

let set_crashing t v = A.set t.crashing v
let set_quarantined t v = A.set t.quarantined v
let set_ack_early t v = A.set t.ack_early v
let quiesced t = A.get t.leader = -1 && A.get t.qlen = 0

(* Power-failure reset: the queue and every request in it are volatile.
   Only sound when no live thread is inside submit (fibers suspended
   forever by a scheduler stop, or the engine's quiesce wait).  The
   quarantine flag stays: quarantine survives a power failure (the
   shard's region is still bad) and only a rebuild, with a fresh stage,
   lifts it. *)
let reset t =
  Queue.clear t.q;
  A.set t.qlen 0;
  A.set t.leader (-1);
  A.set t.crashing false;
  Sched.Mutex.reset t.lock

(* ---- introspection ---- *)

let stall_hazard t ~tid =
  A.get t.leader = tid || Sched.Mutex.holder t.lock = Some tid

let queue_depth t = A.get t.qlen
let batch_sizes t = Recent.to_list t.sizes
let attempted_batches t = Recent.to_list t.attempts
let batches_committed t = t.sizes.total
