(* Sharded RedoDB serving engine: hash-partitions the keyspace over N
   independent RedoDB instances (each backed by its own RedoOpt-PTM
   region) and, when batching is on, funnels each shard's writes through
   a group-commit stage (Batcher).

   Single-shard ops (GET/PUT/DEL) route to one shard.  Cross-shard
   multi_put runs a two-phase commit over the per-shard PTM
   transactions (see Commit for the durable record formats): prepare
   records staged on every participating shard, one decision record on
   the coordinator shard (the lowest participating index) whose commit
   is the commit point, then guarded idempotent applies that fold the
   staged writes into the user keyspace and raise the per-shard
   epoch/txid high-water marks.  multi_get/scan are epoch-validated
   snapshot reads: they first help any decided-but-unapplied commit to
   completion, then validate that no cross-shard commit decided during
   the read — so they can never observe a half-applied multi_put.

   User keys are escaped ('u' prefix) at this boundary so the commit
   metadata ('m' prefix) shares the shards' keyspace — and thereby the
   PTM's durability and media-fault hardening — without collisions.

   Shards are always visited in index order — operations never hold one
   shard while waiting on a lower-numbered one, so the deterministic
   order keeps the engine deadlock-free by construction.

   Crashes route through the per-shard media-fault path
   (Redodb.crash_with_faults) with distinct derived seeds, then through
   commit recovery, which completes or rolls back in-doubt cross-shard
   transactions from the durable records alone. *)

module A = Sched.Atomic

type config = {
  shards : int;
  num_threads : int;  (* accepted tids are 0 .. num_threads - 1 *)
  capacity_bytes : int;  (* total user-data budget, split across shards *)
  batch : bool;
  max_batch : int;
  linger_us : float;
  linger_steps : int;
  queue_cap : int;
  backing_dir : string option;
      (* when set, each shard's durable image is a MAP_SHARED region
         file <dir>/shard-<i>.region: acked writes survive a kill -9 of
         this process, and a fresh engine over the same directory
         reopens the files and recovers instead of formatting *)
  isolate : bool;
      (* per-shard fault isolation: an Unrecoverable shard is
         quarantined (other shards keep serving) instead of taking the
         whole engine down, each shard keeps a commit journal plus a
         sealed relocatable snapshot export, and quarantined shards can
         be rebuilt online from snapshot + journal replay.  Off by
         default: the legacy engine-fatal behavior is exactly preserved
         (and the journal/export overhead is not paid). *)
}

let default_config =
  {
    shards = 4;
    num_threads = 9;
    capacity_bytes = 1 lsl 20;
    batch = true;
    max_batch = 16;
    linger_us = 0.;
    linger_steps = 0;
    queue_cap = 64;
    backing_dir = None;
    isolate = false;
  }

(* A decided-but-not-yet-forgotten cross-shard transaction, published so
   that any reader (or the recovery path) can drive it to completion. *)
type pending = {
  p_epoch : int;
  p_parts : int list;  (* participating shards, ascending; head = coordinator *)
  p_ops : (int * (string * string option) list) list;  (* per-shard slices *)
}

type t = {
  cfg : config;
  dbs : Kv.Redodb.t array;
  batchers : Batcher.t array;  (* empty when cfg.batch = false *)
  inflight : int A.t;  (* ops currently inside a shard (reads + commits) *)
  crashing : bool A.t;
  (* per-shard health machine (see [shard_admits]):
     0 Healthy -> 1 Suspect -> 2 Quarantined -> 3 Rebuilding -> 0 *)
  health : int A.t array;
  health_lock : Sched.Mutex.t;  (* serializes transitions and rebuilds *)
  hreason : string array;  (* why the shard left Healthy; "" when healthy *)
  exports : string option array;  (* last good sealed snapshot per shard *)
  scrub_pass : int A.t array;  (* completed scrub verifications per shard *)
  hc_suspects : int A.t;
  hc_quarantines : int A.t;
  hc_rebuilds : int A.t;
  hc_readmissions : int A.t;
  hc_scrub_anomalies : int A.t;
  mutable flush_cost : int option;  (* re-applied to rebuilt shards *)
  crash_gate : Sched.Mutex.t;  (* serializes whole-engine crashes *)
  (* cross-shard commit state (volatile; rebuilt by recover_commit) *)
  next_txid : int A.t;
  epoch_src : int A.t;  (* last granted commit epoch; gaps are harmless *)
  decided : int A.t;  (* cross-shard txns whose decision record committed *)
  applied : int A.t;  (* of those, fully applied on every shard *)
  reg_lock : Sched.Mutex.t;
  registry : (int, pending) Hashtbl.t;  (* guarded by reg_lock *)
  active_toks : (int, unit) Hashtbl.t;
      (* client tokens with a write in flight, guarded by reg_lock: a
         concurrent TXSTAT answers UNKNOWN for them instead of the
         presumed-abort a missing outcome record would imply *)
  commit_window : bool array;  (* per tid: between decide commit and publish *)
  mutable mutants : Commit.mutant list;
  mutable crash_after : Commit.phase option;
  c_reqs : Obs.Metrics.counter;
  c_multi : Obs.Metrics.counter;
  c_prep : Obs.Metrics.counter;
  c_dec : Obs.Metrics.counter;
  c_apply : Obs.Metrics.counter;
  c_helped : Obs.Metrics.counter;
  c_rollf : Obs.Metrics.counter;
  c_rollb : Obs.Metrics.counter;
  c_retry : Obs.Metrics.counter;
  c_dedup : Obs.Metrics.counter;  (* tokened retries answered from the ledger *)
  c_txstat : Obs.Metrics.counter;
  c_suspect : Obs.Metrics.counter;
  c_quar : Obs.Metrics.counter;
  c_rebuild : Obs.Metrics.counter;
  c_readmit : Obs.Metrics.counter;
  c_scrub_anom : Obs.Metrics.counter;
  h_prep : Obs.Metrics.histogram;
  h_dec : Obs.Metrics.histogram;
  h_app : Obs.Metrics.histogram;
  heat : int array array;  (* per-shard key-popularity sketch *)
}

type ack = { txid : int; epoch : int }

type error =
  | Overloaded
  | Unavailable of string
  | In_doubt of int
  | Timed_out
  | Shard_down of int
      (* the one shard this request needed is quarantined or rebuilding;
         every other shard keeps serving — retry after readmission *)

type tx_status =
  | Tx_committed of { txid : int; epoch : int; records : int }
  | Tx_aborted
  | Tx_unknown

let pp_error = function
  | Overloaded -> "overloaded"
  | Unavailable d -> "unavailable: " ^ d
  | In_doubt txid -> Printf.sprintf "in doubt: txn %d" txid
  | Timed_out -> "timed out (shed before execution)"
  | Shard_down s -> Printf.sprintf "shard %d unavailable (quarantined)" s

let shard_file dir s = Filename.concat dir (Printf.sprintf "shard-%d.region" s)

(* A formatted region always carries a sealed (nonzero) header word, and
   the header is made durable before [create_backed] returns — so a
   region file whose first word is still zero is one whose creation was
   cut down (killed between ftruncate and the format's psync).  It holds
   no data; reopening it would refuse forever ("header corrupt and no
   replica record validates"), turning one unlucky kill into a permanent
   crash loop.  Detect it and recreate instead. *)
let region_formatted f =
  let ic = open_in_bin f in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      match really_input_string ic 8 with
      | s -> String.exists (fun c -> c <> '\000') s
      | exception End_of_file -> false)

(* Forward declaration: [create] runs commit recovery when it reopens a
   backing directory, but recover_commit is defined with the rest of the
   recovery code below. *)
let recover_commit_ref : (t -> (unit, string) result) ref =
  ref (fun _ -> Result.Ok ())

let create cfg =
  if cfg.shards < 1 then invalid_arg "Engine.create: shards";
  if cfg.num_threads < 1 then invalid_arg "Engine.create: num_threads";
  let per_shard = max (1 lsl 14) (cfg.capacity_bytes / cfg.shards) in
  let reused = ref false in
  let dbs =
    Array.init cfg.shards (fun s ->
        match cfg.backing_dir with
        | None ->
            Kv.Redodb.open_db ~num_threads:cfg.num_threads
              ~capacity_bytes:per_shard ()
        | Some dir ->
            if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
            let f = shard_file dir s in
            if
              Sys.file_exists f
              && (Unix.stat f).Unix.st_size > 0
              && region_formatted f
            then begin
              reused := true;
              Kv.Redodb.reopen_backed ~num_threads:cfg.num_threads ~backing:f ()
            end
            else
              Kv.Redodb.open_backed ~num_threads:cfg.num_threads
                ~capacity_bytes:per_shard ~backing:f ())
  in
  let batchers =
    if not cfg.batch then [||]
    else
      Array.init cfg.shards (fun shard ->
          Batcher.create ~db:dbs.(shard) ~shard ~max_batch:cfg.max_batch
            ~linger_us:cfg.linger_us ~linger_steps:cfg.linger_steps
            ~queue_cap:cfg.queue_cap)
  in
  let t =
    {
      cfg;
      dbs;
      batchers;
      inflight = A.make 0;
      crashing = A.make false;
      health = Array.init cfg.shards (fun _ -> A.make 0);
      health_lock = Sched.Mutex.create ();
      hreason = Array.make cfg.shards "";
      exports = Array.make cfg.shards None;
      scrub_pass = Array.init cfg.shards (fun _ -> A.make 0);
      hc_suspects = A.make 0;
      hc_quarantines = A.make 0;
      hc_rebuilds = A.make 0;
      hc_readmissions = A.make 0;
      hc_scrub_anomalies = A.make 0;
      flush_cost = None;
      crash_gate = Sched.Mutex.create ();
      next_txid = A.make 1;
      epoch_src = A.make 0;
      decided = A.make 0;
      applied = A.make 0;
      reg_lock = Sched.Mutex.create ();
      registry = Hashtbl.create 16;
      active_toks = Hashtbl.create 16;
      commit_window = Array.make cfg.num_threads false;
      mutants = [];
      crash_after = None;
      c_reqs = Obs.Metrics.counter "serve.requests";
      c_multi = Obs.Metrics.counter "serve.multi_shard_ops";
      c_prep = Obs.Metrics.counter "serve.commit.prepares";
      c_dec = Obs.Metrics.counter "serve.commit.decides";
      c_apply = Obs.Metrics.counter "serve.commit.applies";
      c_helped = Obs.Metrics.counter "serve.commit.helped_applies";
      c_rollf = Obs.Metrics.counter "serve.commit.rollforwards";
      c_rollb = Obs.Metrics.counter "serve.commit.rollbacks";
      c_retry = Obs.Metrics.counter "serve.commit.snapshot_retries";
      c_dedup = Obs.Metrics.counter "serve.retry.dedup_hits";
      c_txstat = Obs.Metrics.counter "serve.txstat.queries";
      c_suspect = Obs.Metrics.counter "serve.health.suspects";
      c_quar = Obs.Metrics.counter "serve.health.quarantines";
      c_rebuild = Obs.Metrics.counter "serve.health.rebuilds";
      c_readmit = Obs.Metrics.counter "serve.health.readmissions";
      c_scrub_anom = Obs.Metrics.counter "serve.health.scrub_anomalies";
      h_prep = Obs.Metrics.histogram "serve.stage.prepare";
      h_dec = Obs.Metrics.histogram "serve.stage.decide";
      h_app = Obs.Metrics.histogram "serve.stage.apply";
      heat = Array.make_matrix cfg.shards 16 0;
    }
  in
  (* A reopened backing directory may hold in-doubt cross-shard records
     from the previous incarnation: resolve them before serving.
     recover_commit is forward-declared below; tie the knot by hand. *)
  if !reused then begin
    match !recover_commit_ref t with
    | Result.Ok () -> ()
    | Error detail -> failwith ("Engine.create: recovery failed: " ^ detail)
  end;
  (* Fault isolation keeps, per shard, a rebuild ledger (the commit
     journal) anchored at a sealed relocatable snapshot.  The anchor is
     taken here — after any recovery — so journal replay over it always
     reconstructs the full committed state. *)
  if cfg.isolate then
    Array.iteri
      (fun s db ->
        Kv.Redodb.enable_journal db;
        t.exports.(s) <- Some (Kv.Redodb.export_snapshot db ~tid:0))
      dbs;
  t

let config t = t.cfg
let shards t = t.cfg.shards

let set_mutants t ms =
  t.mutants <- ms;
  let early = List.mem Commit.Ack_early ms in
  Array.iter (fun b -> Batcher.set_ack_early b early) t.batchers
let set_crash_after t p = t.crash_after <- p
let current_epoch t = A.get t.epoch_src

let maybe_crash t phase =
  match t.crash_after with
  | Some p when p = phase ->
      t.crash_after <- None;
      raise (Commit.Injected_crash phase)
  | _ -> ()

(* FNV-1a over the USER key (routing is independent of the internal
   escaping), deliberately different from the Hashtbl.hash the per-shard
   bucket chains use: sharding with the same hash would leave each shard
   using only 1/N of its buckets. *)
let shard_of t key =
  if t.cfg.shards = 1 then 0
  else begin
    let h = ref 0xcbf29ce484222325L in
    String.iter
      (fun c ->
        h := Int64.logxor !h (Int64.of_int (Char.code c));
        h := Int64.mul !h 0x100000001b3L)
      key;
    Int64.to_int (Int64.rem (Int64.logand !h Int64.max_int) (Int64.of_int t.cfg.shards))
  end

(* Key-popularity sketch: 16 buckets per shard, indexed by a hash
   independent of the routing FNV (deliberately — the sketch answers "is
   the load on this shard skewed", not "which shard").  Plain int cells;
   a lost increment under races only blurs a telemetry histogram. *)
let touch t s key =
  if Obs.Metrics.is_on () then begin
    let b = Hashtbl.hash key land 15 in
    t.heat.(s).(b) <- t.heat.(s).(b) + 1
  end

(* One 2PC stage: a trace span (linked to the request by rid) plus a
   serve.stage.* latency histogram, recorded even if [f] raises. *)
let stage h kind ~tid ~arg ~rid f =
  if not (Obs.is_active ()) then f ()
  else begin
    let t0 = Unix.gettimeofday () in
    let note () =
      Obs.Trace.complete kind ~tid ~arg ~rid ~t0;
      if Obs.Metrics.is_on () then
        Obs.Metrics.record_ns h ~tid
          (int_of_float ((Unix.gettimeofday () -. t0) *. 1e9))
    in
    match f () with
    | r ->
        note ();
        r
    | exception e ->
        note ();
        raise e
  end

(* Spin-wait escape valve.  Under the deterministic scheduler it is a
   schedule step; under an aio reactor it MUST yield the fiber — a
   cpu_relax spin here (snapshot retries, the crash quiesce loop) would
   wedge the whole reactor domain, including the sibling fibers whose
   progress the spin is waiting on. *)
let relax () =
  if Sched.active () then Sched.yield ()
  else if Aio.active () then Aio.yield ()
  else Domain.cpu_relax ()

(* Every public operation holds an inflight token while it touches a
   shard; the crash path waits for the count to drain.  The double check
   after the increment closes the race with a concurrent crash start. *)
let enter t =
  if A.get t.crashing then Error (Unavailable "crashing")
  else begin
    A.incr t.inflight;
    if A.get t.crashing then begin
      A.decr t.inflight;
      Error (Unavailable "crashing")
    end
    else Result.Ok ()
  end

let exit_ t = A.decr t.inflight

let with_entry t ~tid f =
  match enter t with
  | Error e -> Error e
  | Result.Ok () ->
      Obs.Metrics.incr t.c_reqs ~tid;
      Fun.protect ~finally:(fun () -> exit_ t) f

(* ---- per-shard health machine ----

   Healthy (0) and Suspect (1) shards serve — Suspect means one scrub
   verification found durable rot and a confirming re-verification is
   still owed.  Quarantined (2) and Rebuilding (3) shards admit nothing;
   every other shard keeps serving (degraded mode).  The
   serve-while-rebuilding mutant drops the Rebuilding half of the guard,
   so writes land on the doomed old instance and vanish at the swap —
   the violation the quarantine sweep's zero-acked-write-loss audit
   exists to catch. *)

let health_name = function
  | 0 -> "healthy"
  | 1 -> "suspect"
  | 2 -> "quarantined"
  | 3 -> "rebuilding"
  | _ -> "unknown"

let shard_admits t s =
  match A.get t.health.(s) with
  | 2 -> false
  | 3 -> List.mem Commit.Serve_while_rebuilding t.mutants
  | _ -> true

let check_shard t s = if shard_admits t s then Result.Ok () else Error (Shard_down s)

let shard_health t s =
  (health_name (A.get t.health.(s)), t.hreason.(s), A.get t.scrub_pass.(s))

let health_counters t =
  [
    ("serve.health.suspects", A.get t.hc_suspects);
    ("serve.health.quarantines", A.get t.hc_quarantines);
    ("serve.health.rebuilds", A.get t.hc_rebuilds);
    ("serve.health.readmissions", A.get t.hc_readmissions);
    ("serve.health.scrub_anomalies", A.get t.hc_scrub_anomalies);
  ]

(* Quarantine [s]: flips admission off and tells the shard's batcher to
   drain its queue with [`Quarantined] (nothing in it was acked).  Used
   by the scrubber on confirmed rot, by the recovery path on a per-shard
   Unrecoverable (when [isolate]), and by the FREEZE admin verb. *)
let quarantine t ~tid s ~reason =
  Sched.Mutex.lock t.health_lock ~tid;
  let st = A.get t.health.(s) in
  if st <> 2 && st <> 3 then begin
    A.set t.health.(s) 2;
    t.hreason.(s) <- reason;
    if Array.length t.batchers > 0 then
      Batcher.set_quarantined t.batchers.(s) true;
    A.incr t.hc_quarantines;
    Obs.Metrics.incr t.c_quar ~tid
  end;
  Sched.Mutex.unlock t.health_lock ~tid

(* Raw durable-metadata verification of one shard, mutant-blind: the
   sweep's final audit uses this directly, so a scrubber that "verified"
   nothing (the no-scrub-verify mutant) cannot also fool the audit. *)
let verify_shard t s = Kv.Redodb.verify_meta t.dbs.(s)

(* One scrubber step over shard [s]: re-verify the durable sealed
   metadata against silent media rot.  Two-strike policy — the first
   anomaly only marks the shard Suspect (it keeps serving; live
   operations never read the durable image, so nothing wrong has been
   served yet) and the caller immediately re-steps to confirm; the
   second strike quarantines.  A Suspect shard that re-verifies clean is
   re-trusted.  Under the no-scrub-verify mutant the walk still advances
   (scrub progress looks alive) but the verification never runs. *)
let scrub_step t ~tid s =
  match A.get t.health.(s) with
  | 2 | 3 -> `Skipped
  | st -> (
      let verdict =
        if List.mem Commit.No_scrub_verify t.mutants then Result.Ok ()
        else Kv.Redodb.verify_meta t.dbs.(s)
      in
      A.incr t.scrub_pass.(s);
      match verdict with
      | Result.Ok () ->
          if st = 1 then begin
            Sched.Mutex.lock t.health_lock ~tid;
            if A.get t.health.(s) = 1 then begin
              A.set t.health.(s) 0;
              t.hreason.(s) <- ""
            end;
            Sched.Mutex.unlock t.health_lock ~tid
          end;
          `Clean
      | Error detail ->
          A.incr t.hc_scrub_anomalies;
          Obs.Metrics.incr t.c_scrub_anom ~tid;
          if st = 0 then begin
            Sched.Mutex.lock t.health_lock ~tid;
            if A.get t.health.(s) = 0 then begin
              A.set t.health.(s) 1;
              t.hreason.(s) <- detail;
              A.incr t.hc_suspects;
              Obs.Metrics.incr t.c_suspect ~tid
            end;
            Sched.Mutex.unlock t.health_lock ~tid;
            `Suspected detail
          end
          else begin
            quarantine t ~tid s ~reason:detail;
            `Confirmed detail
          end)

(* Refresh shard [s]'s rebuild anchor: cut the journal FIRST, export
   SECOND — a commit landing between the two appears in both the journal
   and the snapshot, which idempotent replay tolerates; the opposite
   order could lose it from both.  Called by the scrubber after a clean
   pass so journals stay short.  The health lock is held across the
   check, the cut and the export: otherwise a FREEZE + REBUILD from
   another domain could read the freshly cut journal together with the
   previous export and lose every commit in between. *)
let refresh_export t ~tid s =
  if t.cfg.isolate then begin
    Sched.Mutex.lock t.health_lock ~tid;
    Fun.protect ~finally:(fun () -> Sched.Mutex.unlock t.health_lock ~tid)
    @@ fun () ->
    if A.get t.health.(s) = 0 then begin
      Kv.Redodb.journal_cut t.dbs.(s) ~tid;
      t.exports.(s) <- Some (Kv.Redodb.export_snapshot t.dbs.(s) ~tid)
    end
  end

(* Test/torture hook: inject silent single-bit rot into one shard's
   durable metadata — invisible to live operations, caught by the
   scrubber (or by the next crash recovery). *)
let corrupt_shard t s ~seed ~count =
  Kv.Redodb.corrupt_durable_meta t.dbs.(s) ~seed ~count

let has_mutant t m = List.mem m t.mutants

(* ---- writes ---- *)

(* Commit a group of write requests on one shard, results in order.
   Batched, the group goes to the shard's batcher in chunks the stage
   always admits whole on an idle queue; unbatched, every request is its
   own transaction. *)
let submit_shard t ~tid shard (group : Batcher.write list) =
  let down ws = List.map (fun _ -> Error (Shard_down shard)) ws in
  let chunk = if t.cfg.batch then min t.cfg.max_batch t.cfg.queue_cap else 1 in
  let commit ws =
    if t.cfg.batch then
      List.map
        (function
          | Result.Ok () -> Result.Ok ()
          | Error `Overloaded -> Error Overloaded
          | Error `Rejected -> Error (Unavailable "crashed before commit")
          | Error `Shed -> Error Timed_out
          | Error `Quarantined -> Error (Shard_down shard))
        (Batcher.submit t.batchers.(shard) ~tid ws)
    else
      List.map
        (fun (w : Batcher.write) ->
          Kv.Redodb.write_batch t.dbs.(shard) ~tid w.ops;
          Result.Ok ())
        ws
  in
  let rec split n = function
    | x :: rest when n > 0 ->
        let a, b = split (n - 1) rest in
        (x :: a, b)
    | l -> ([], l)
  in
  let rec go acc = function
    | [] -> List.rev acc
    | ws -> (
        let now, rest = split chunk ws in
        match commit now with
        | rs -> go (List.rev_append rs acc) rest
        | exception Ptm.Ptm_intf.Unrecoverable { detail; _ }
          when t.cfg.isolate ->
            (* a live op tripped over the shard's region: fault-isolate
               it instead of taking the engine down *)
            quarantine t ~tid shard ~reason:detail;
            List.rev_append acc (down ws))
  in
  if shard_admits t shard then go [] group else down group

let submit_one t ~tid ?(rid = 0) ?(deadline = 0.) shard ops =
  List.hd (submit_shard t ~tid shard [ { Batcher.ops; rid; deadline } ])

(* ---- exactly-once bookkeeping (the outcome ledger) ---- *)

(* How many outcome records this token left behind, across all shards: a
   committed write leaves exactly one; a second record under the same
   token is durable proof of a duplicated (non-exactly-once) commit.
   Latest txid/epoch wins for the reported ack. *)
let outcome_records t ~tid tok =
  let prefix = Commit.outcome_prefix tok in
  let n = ref 0 and best = ref None in
  for s = 0 to t.cfg.shards - 1 do
    let c = Kv.Redodb.seek t.dbs.(s) ~tid prefix in
    let rec walk () =
      match Kv.Redodb.entry c with
      | Some (_, v) ->
          (match Commit.decode_outcome v with
          | Some (txid, epoch) ->
              incr n;
              (match !best with
              | Some (bt, _) when bt >= txid -> ()
              | _ -> best := Some (txid, epoch))
          | None -> ());
          ignore (Kv.Redodb.next c);
          walk ()
      | None -> ()
    in
    walk ()
  done;
  (!n, !best)

let register_tok t ~tid tok =
  if tok > 0 then begin
    Sched.Mutex.lock t.reg_lock ~tid;
    Hashtbl.replace t.active_toks tok ();
    Sched.Mutex.unlock t.reg_lock ~tid
  end

let unregister_tok t ~tid tok =
  if tok > 0 then begin
    Sched.Mutex.lock t.reg_lock ~tid;
    Hashtbl.remove t.active_toks tok;
    Sched.Mutex.unlock t.reg_lock ~tid
  end

(* A tokened retry whose first attempt already committed is answered
   from the ledger without re-running anything.  Single-shard tokened
   writes record outcome txid 0 — retries overwrite the same ledger key,
   so the record count stays 1 by construction and the dedup check is
   purely an optimisation there; for cross-shard 2PC (fresh txid per
   attempt) it is what keeps retries exactly-once. *)
let dedup_hit t ~tid tok =
  if tok <= 0 || List.mem Commit.No_dedup t.mutants then None
  else
    match outcome_records t ~tid tok with
    | 0, _ -> None
    | _, Some (txid, epoch) ->
        Obs.Metrics.incr t.c_dedup ~tid;
        Some { txid; epoch }
    | _, None -> None

(* The ledger write rides in the SAME batch (hence the same PTM
   transaction) as the user write: the record exists iff the write
   committed. *)
let outcome_op t ~tok ~txid =
  ( Commit.outcome_key ~tok ~txid,
    Some (Commit.encode_outcome ~txid ~epoch:(A.get t.epoch_src)) )

type write = {
  key : string;
  value : string option;
  rid : int;
  tok : int;
  deadline : float;
}

(* Single-key writes, as a group: each request is deduplicated against
   the ledger and routed on its own, then every shard's slice (in group
   order) commits through that shard's group-commit stage, shards in
   index order.  A tokened request carries its outcome record in its own
   write set, so the record commits iff the write does. *)
let write_group t ~tid (group : write list) =
  match enter t with
  | Error e -> List.map (fun _ -> Error e) group
  | Result.Ok () ->
      Fun.protect ~finally:(fun () -> exit_ t) @@ fun () ->
      let res = Array.make (List.length group) (Result.Ok ()) in
      let slices = Array.make t.cfg.shards [] in
      let toks = ref [] in
      List.iteri
        (fun i w ->
          Obs.Metrics.incr t.c_reqs ~tid;
          if dedup_hit t ~tid w.tok = None then begin
            register_tok t ~tid w.tok;
            if w.tok > 0 then toks := w.tok :: !toks;
            let s = shard_of t w.key in
            touch t s w.key;
            let ops = [ (Commit.user_key w.key, w.value) ] in
            let ops = if w.tok > 0 then outcome_op t ~tok:w.tok ~txid:0 :: ops else ops in
            slices.(s) <-
              (i, { Batcher.ops; rid = w.rid; deadline = w.deadline }) :: slices.(s)
          end)
        group;
      Fun.protect ~finally:(fun () -> List.iter (unregister_tok t ~tid) !toks)
        (fun () ->
          Array.iteri
            (fun s slice ->
              if slice <> [] then begin
                let slice = List.rev slice in
                List.iter2
                  (fun (i, _) r -> res.(i) <- r)
                  slice
                  (submit_shard t ~tid s (List.map snd slice))
              end)
            slices);
      Array.to_list res

let put ?(rid = 0) ?(tok = 0) ?(deadline = 0.) t ~tid ~key ~value =
  List.hd (write_group t ~tid [ { key; value = Some value; rid; tok; deadline } ])

let delete t ~tid ?(rid = 0) ?(tok = 0) ?(deadline = 0.) key =
  List.hd (write_group t ~tid [ { key; value = None; rid; tok; deadline } ])

(* ---- cross-shard commit ---- *)

(* Definite abort of a not-yet-decided transaction: delete its prepare
   records.  Goes straight to the PTM (one transaction per shard) — the
   batcher is for acked user writes; abort must also work while the
   batcher is already rejecting during a crash start. *)
let rollback t ~tid txid shards =
  (* A quarantined participant's prepare record is out of reach; it is
     deleted (still undecided, so: aborted) when the shard rebuilds. *)
  let shards = List.filter (shard_admits t) shards in
  List.iter
    (fun s -> Kv.Redodb.write_batch t.dbs.(s) ~tid [ (Commit.prep_key txid, None) ])
    shards;
  if shards <> [] then Obs.Metrics.incr t.c_rollb ~tid

(* Guarded applies of a decided transaction, shards in index order.
   apply_guarded commits a shard's slice iff its prepare record is still
   live, so racing appliers (writer, helpers, recovery) are harmless:
   exactly one commits per shard, and a false return PROVES that shard's
   apply already committed. *)
let run_applies t ~tid ~helper ~inject ?(rid = 0) txid p =
  List.iteri
    (fun i (s, ops) ->
      (* a quarantined participant's apply is deferred: its restored
         prepare record is driven by the surviving decision record at
         rebuild time *)
      if shard_admits t s then begin
        let did =
          stage t.h_app Obs.Trace.Apply ~tid ~arg:s ~rid @@ fun () ->
          Kv.Redodb.apply_guarded t.dbs.(s) ~tid ~guard:(Commit.prep_key txid)
            ~hwms:
              [ (Commit.epoch_hwm_key, p.p_epoch); (Commit.txid_hwm_key, txid) ]
            ops
        in
        if did then begin
          Obs.Metrics.incr t.c_apply ~tid;
          if helper then Obs.Metrics.incr t.c_helped ~tid
        end
      end;
      if inject then maybe_crash t (Commit.Apply (i + 1)))
    p.p_ops

(* Drive a decided transaction to completion.  The registry
   check-and-remove under reg_lock is the completion point: exactly one
   of the racing completers (writer, helping readers) claims it, counts
   it applied, and forgets the decision record. *)
let complete t ~tid ~helper ~inject ?(rid = 0) txid p =
  run_applies t ~tid ~helper ~inject ~rid txid p;
  Sched.Mutex.lock t.reg_lock ~tid;
  let mine = Hashtbl.mem t.registry txid in
  if mine then begin
    Hashtbl.remove t.registry txid;
    A.incr t.applied
  end;
  Sched.Mutex.unlock t.reg_lock ~tid;
  if mine then begin
    (* Forget the decision record only when every participant's apply
       could actually run: a quarantined participant resolves its
       restored prepare from this very record at rebuild time, so the
       record must survive until then (the rebuild forgets it). *)
    if List.for_all (fun (s, _) -> shard_admits t s) p.p_ops then begin
      Kv.Redodb.write_batch t.dbs.(List.hd p.p_parts) ~tid
        [ (Commit.dec_key txid, None) ];
      if inject then maybe_crash t Commit.Forget
    end
  end

(* Readers help every published decided transaction to completion before
   taking their snapshots — the lock-free-style helping that keeps
   snapshot reads from blocking on (or being blocked by) writers. *)
let help_complete t ~tid =
  Sched.Mutex.lock t.reg_lock ~tid;
  let pend = Hashtbl.fold (fun txid p acc -> (txid, p) :: acc) t.registry [] in
  Sched.Mutex.unlock t.reg_lock ~tid;
  List.iter
    (fun (txid, p) -> complete t ~tid ~helper:true ~inject:false txid p)
    (List.sort compare pend)

let publish t ~tid txid p =
  Sched.Mutex.lock t.reg_lock ~tid;
  Hashtbl.replace t.registry txid p;
  A.incr t.decided;
  Sched.Mutex.unlock t.reg_lock ~tid

let two_phase t ~tid ~rid ~tok ~deadline slices parts =
  let txid = A.fetch_and_add t.next_txid 1 in
  Obs.Trace.span Obs.Trace.Commit ~tid ~arg:txid ~rid @@ fun () ->
  (* PREPARE: stage each shard's slice, shards in index order.  The
     request deadline covers the prepares only — once every prepare is
     durably staged the transaction crosses into decide, where shedding
     would leave work recovery must redo for no latency win. *)
  let rec prepare k done_ = function
    | [] -> Result.Ok ()
    | (s, ops) :: rest -> (
        let record = Commit.encode_prep ~txid ~participants:parts ~ops in
        match
          stage t.h_prep Obs.Trace.Prepare ~tid ~arg:s ~rid @@ fun () ->
          submit_one t ~tid ~rid ~deadline s
            [ (Commit.prep_key txid, Some record) ]
        with
        | Result.Ok () ->
            Obs.Metrics.incr t.c_prep ~tid;
            maybe_crash t (Commit.Prepare k);
            prepare (k + 1) (s :: done_) rest
        | Error e ->
            rollback t ~tid txid done_;
            Error e)
  in
  match prepare 1 [] slices with
  | Error _ as e -> e
  | Result.Ok () when not (List.for_all (shard_admits t) parts) ->
      (* A participant was quarantined between its prepare and the
         decision.  No decision record exists, so this is a definite
         abort: roll the reachable prepares back (the quarantined
         shard's one dies at rebuild — still undecided, so: aborted) and
         refuse.  Nothing durable commits on any shard — the
         mid-2PC-quarantine test's no-prefix-commit oracle. *)
      rollback t ~tid txid parts;
      Error
        (Shard_down
           (List.find (fun s -> not (shard_admits t s)) parts))
  | Result.Ok () -> (
      (* DECIDE: the decision record's commit is the commit point.  The
         commit_window flag marks this thread as stall-hazardous until
         the decision is published in the registry — a thread frozen
         between a durable decision and its publication would leave
         readers with a decided count they cannot help to completion. *)
      t.commit_window.(tid) <- true;
      Fun.protect ~finally:(fun () -> t.commit_window.(tid) <- false)
      @@ fun () ->
      let epoch = 1 + A.fetch_and_add t.epoch_src 1 in
      let record = Commit.encode_decision ~txid ~epoch ~participants:parts in
      let coord = List.hd parts in
      (* The token's outcome record commits atomically WITH the decision
         — the commit point and the exactly-once evidence are one PTM
         transaction.  A retried 2PC attempt uses a fresh txid, so a
         duplicated commit leaves a second record under the same token
         prefix (what the no-dedup-on-retry mutant must produce). *)
      let dec_ops =
        let d = [ (Commit.dec_key txid, Some record) ] in
        if tok > 0 then
          (Commit.outcome_key ~tok ~txid, Some (Commit.encode_outcome ~txid ~epoch))
          :: d
        else d
      in
      match
        stage t.h_dec Obs.Trace.Decide ~tid ~arg:txid ~rid @@ fun () ->
        submit_one t ~tid ~rid coord dec_ops
      with
      | Error e ->
          (* a rejected submit was never committed: definite abort *)
          rollback t ~tid txid parts;
          Error e
      | exception (Commit.Injected_crash _ as ex) -> raise ex
      | exception _ ->
          (* unknown decide outcome after durable prepares: the one case
             the engine cannot resolve itself — surface the txid so the
             client can reason about the replay after recovery. *)
          Error (In_doubt txid)
      | Result.Ok () ->
          Obs.Metrics.incr t.c_dec ~tid;
          maybe_crash t Commit.Decide;
          let p = { p_epoch = epoch; p_parts = parts; p_ops = slices } in
          publish t ~tid txid p;
          (* Published: helpers can now finish the commit, so freezing
             this thread is once again harmless — drop the hazard. *)
          t.commit_window.(tid) <- false;
          if not (List.mem Commit.No_rollforward t.mutants) then
            complete t ~tid ~helper:false ~inject:true ~rid txid p;
          Result.Ok { txid; epoch })

(* Writes grouped by shard.  One shard: a single atomic PTM transaction
   (fast path, no commit records).  Several shards: the two-phase
   protocol — all-or-nothing across shards, with the ack carrying the
   transaction's commit epoch. *)
let multi_put t ~tid ?(rid = 0) ?(tok = 0) ?(deadline = 0.) ops =
  with_entry t ~tid @@ fun () ->
  Obs.Metrics.incr t.c_multi ~tid;
  match dedup_hit t ~tid tok with
  | Some ack -> Result.Ok ack
  | None ->
      register_tok t ~tid tok;
      Fun.protect ~finally:(fun () -> unregister_tok t ~tid tok) @@ fun () ->
      let per_shard = Array.make t.cfg.shards [] in
      List.iter
        (fun (key, v) ->
          let s = shard_of t key in
          touch t s key;
          per_shard.(s) <- (Commit.user_key key, v) :: per_shard.(s))
        ops;
      let parts = ref [] in
      for s = t.cfg.shards - 1 downto 0 do
        if per_shard.(s) <> [] then parts := s :: !parts
      done;
      let slices = List.map (fun s -> (s, List.rev per_shard.(s))) !parts in
      match slices with
      | [] -> Result.Ok { txid = 0; epoch = A.get t.epoch_src }
      | [ (s, ops) ] -> (
          let ops = if tok > 0 then outcome_op t ~tok ~txid:0 :: ops else ops in
          match submit_one t ~tid ~rid ~deadline s ops with
          | Result.Ok () -> Result.Ok { txid = 0; epoch = A.get t.epoch_src }
          | Error _ as e -> e)
      | _ when List.mem Commit.Skip_2pc t.mutants ->
          (* mutant: the pre-commit-layer behavior — independent per-shard
             commits in index order; a crash between them durably applies a
             prefix of the write set. *)
          let rec go k = function
            | [] -> Result.Ok { txid = 0; epoch = A.get t.epoch_src }
            | (s, ops) :: rest -> (
                match submit_one t ~tid s ops with
                | Result.Ok () ->
                    maybe_crash t (Commit.Prepare k);
                    go (k + 1) rest
                | Error _ as e -> e)
          in
          go 1 slices
      | _ -> two_phase t ~tid ~rid ~tok ~deadline slices !parts

(* ---- reads (epoch-validated snapshots, never batched) ---- *)

(* A multi-shard read is consistent iff no cross-shard commit was in
   flight across it: every decided transaction was fully applied before
   the first per-shard snapshot (applied = decided) and no new decision
   landed before the last one (decided unchanged).  Readers help pending
   commits forward rather than waiting them out, so writers never block
   readers; a reader retries only if a commit decided DURING its
   snapshots.  (Optimistic, not wait-free: under a sustained stream of
   overlapping cross-shard commits a reader can retry repeatedly.) *)
let snapshot_read t ~tid f =
  if List.mem Commit.No_read_validation t.mutants then f ()
  else begin
    let rec loop () =
      help_complete t ~tid;
      let d0 = A.get t.decided in
      if A.get t.applied <> d0 then begin
        Obs.Metrics.incr t.c_retry ~tid;
        relax ();
        loop ()
      end
      else begin
        let r = f () in
        if A.get t.decided <> d0 then begin
          Obs.Metrics.incr t.c_retry ~tid;
          relax ();
          loop ()
        end
        else r
      end
    in
    loop ()
  end

(* Single-key reads need no epoch validation: each shard apply is one
   atomic PTM transaction, so a key is never observably half-written. *)
let get t ~tid key =
  with_entry t ~tid @@ fun () ->
  let s = shard_of t key in
  match check_shard t s with
  | Error _ as e -> e
  | Result.Ok () ->
      touch t s key;
      Result.Ok (Kv.Redodb.get t.dbs.(s) ~tid (Commit.user_key key))

(* One read-only snapshot per visited shard, shards in index order. *)
let multi_get t ~tid keys =
  with_entry t ~tid @@ fun () ->
  Obs.Metrics.incr t.c_multi ~tid;
  let per_shard = Array.make t.cfg.shards [] in
  List.iteri
    (fun i key ->
      let s = shard_of t key in
      touch t s key;
      per_shard.(s) <- (i, Commit.user_key key) :: per_shard.(s))
    keys;
  let down = ref None in
  for s = t.cfg.shards - 1 downto 0 do
    if per_shard.(s) <> [] && not (shard_admits t s) then down := Some s
  done;
  match !down with
  | Some s -> Error (Shard_down s)
  | None ->
      Result.Ok
        ( snapshot_read t ~tid @@ fun () ->
          let out = Array.make (List.length keys) None in
          for s = 0 to t.cfg.shards - 1 do
            match List.rev per_shard.(s) with
            | [] -> ()
            | batch ->
                let vals = Kv.Redodb.get_batch t.dbs.(s) ~tid (List.map snd batch) in
                List.iter2 (fun (i, _) v -> out.(i) <- v) batch vals
          done;
          Array.to_list out )

let scan t ~tid ~prefix ~max =
  with_entry t ~tid @@ fun () ->
  Obs.Metrics.incr t.c_multi ~tid;
  let iprefix = Commit.user_key prefix in
  Result.Ok
    ( snapshot_read t ~tid @@ fun () ->
      let all = ref [] in
      (* degraded mode: a scan serves the healthy subset of the
         keyspace; the per-shard health gauges tell clients which part
         is missing *)
      for s = 0 to t.cfg.shards - 1 do
        if shard_admits t s then begin
        (* each cursor is sorted: its first [max] entries are all this
           shard can contribute to the merged first [max] *)
        let c = Kv.Redodb.seek t.dbs.(s) ~tid iprefix in
        let rec walk n =
          match Kv.Redodb.entry c with
          | Some (k, v) when n < max ->
              all := (Commit.user_of_internal k, v) :: !all;
              ignore (Kv.Redodb.next c);
              walk (n + 1)
          | _ -> ()
        in
        walk 0
        end
      done;
      let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) !all in
      List.filteri (fun i _ -> i < max) sorted )

(* ---- exactly-once status (TXSTAT) ---- *)

(* Resolve the fate of a client write token from the durable ledger.
   Order matters: help decided commits to completion first (a decided
   cross-shard transaction's outcome record is already durable on the
   coordinator, so this is belt-and-braces), then read the ledger, and
   only then consult the volatile active set — a token that is neither
   recorded nor in flight is presumed aborted, which is safe because
   the client serializes its retries (it never queries a token while
   also submitting it). *)
let txstat t ~tid tok =
  with_entry t ~tid @@ fun () ->
  Obs.Metrics.incr t.c_txstat ~tid;
  help_complete t ~tid;
  match outcome_records t ~tid tok with
  | 0, _ ->
      Sched.Mutex.lock t.reg_lock ~tid;
      let active = Hashtbl.mem t.active_toks tok in
      Sched.Mutex.unlock t.reg_lock ~tid;
      Result.Ok (if active then Tx_unknown else Tx_aborted)
  | n, best ->
      let txid, epoch = Option.value best ~default:(0, 0) in
      Result.Ok (Tx_committed { txid; epoch; records = n })

(* Fraction of the busiest shard's admission queue in use ([0., 1.]);
   0. when batching is off.  The server's pressure-shedding signal:
   cheap (no locks), monotone with queue growth, and deliberately
   pessimistic — one hot shard is enough to start shedding scans. *)
let overload_hint t =
  if not t.cfg.batch || t.cfg.queue_cap <= 0 then 0.
  else begin
    let worst =
      Array.fold_left (fun acc b -> max acc (Batcher.queue_depth b)) 0 t.batchers
    in
    float_of_int worst /. float_of_int t.cfg.queue_cap
  end

(* User keys only — commit metadata and high-water marks are not data. *)
let count t ~tid =
  let acc = ref 0 in
  Array.iteri
    (fun s db ->
      if shard_admits t s then
        acc :=
          !acc
          + Kv.Redodb.fold db ~tid ~init:0 (fun n k _ ->
                if String.length k > 0 && k.[0] = 'u' then n + 1 else n))
    t.dbs;
  !acc

(* ---- crash and recovery ---- *)

(* Every shard recovers before anything is reported: an early refusal
   must not abandon the shards after it (their acked data would sit
   unrecovered behind a healthy region) — fault isolation starts here.
   Without [isolate], [Error detail] names the COMPLETE failing set, in
   shard order, and the engine stays down.  With [isolate], a refusing
   shard is quarantined instead and recovery succeeds for the rest: the
   engine comes back serving every healthy shard, and the quarantined
   one waits for its online rebuild.  Already-quarantined shards are
   skipped (their durable state is known-bad until rebuilt). *)
let recover_shards t ~seed ~evict_prob ~torn_prob ~bitflips =
  let bad = ref [] in
  let total = ref 0. in
  for s = t.cfg.shards - 1 downto 0 do
    if A.get t.health.(s) < 2 then
      match
        Kv.Redodb.crash_with_faults t.dbs.(s) ~seed:(seed + s) ~evict_prob
          ~torn_prob ~bitflips
      with
      | Result.Ok dt -> total := !total +. dt
      | Error detail ->
          if t.cfg.isolate then quarantine t ~tid:0 s ~reason:detail
          else bad := Printf.sprintf "shard %d: %s" s detail :: !bad
  done;
  match !bad with
  | [] -> Result.Ok !total
  | bad -> Error (String.concat "; " bad)

(* Commit recovery, from the durable records alone (every shard's region
   is self-describing: any prepare record names all participants).
   Decided transactions are rolled FORWARD — each shard still holding a
   prepare record gets its guarded apply, then the decision record is
   forgotten.  Prepared-but-undecided transactions are rolled BACK.  A
   record that fails its digest is corruption the media-fault layer
   missed: recovery refuses to guess and the engine stays down.  Finally
   the volatile commit state (txid/epoch sources, decided/applied,
   registry) is rebuilt from the high-water marks. *)
let recover_commit t =
  Obs.Trace.span Obs.Trace.Recovery ~tid:0 @@ fun () ->
  let preps = Hashtbl.create 16 in
  let decs = Hashtbl.create 16 in
  let max_txid = ref 0 in
  let max_epoch = ref 0 in
  let bad = ref [] in
  Array.iteri
    (fun s db ->
      if A.get t.health.(s) < 2 then
      Kv.Redodb.fold db ~tid:0 ~init:() (fun () k v ->
          if k = Commit.epoch_hwm_key then
            max_epoch := max !max_epoch (Option.value (int_of_string_opt v) ~default:0)
          else if k = Commit.txid_hwm_key then
            max_txid := max !max_txid (Option.value (int_of_string_opt v) ~default:0)
          else
            match Commit.classify_key k with
            | `Prep tx -> (
                match Commit.decode_prep v with
                | Some (txid, parts, ops) when txid = tx ->
                    Hashtbl.replace preps (txid, s) (parts, ops);
                    max_txid := max !max_txid txid
                | _ ->
                    bad :=
                      Printf.sprintf "shard %d: corrupt prepare record %S" s k
                      :: !bad)
            | `Decision tx -> (
                match Commit.decode_decision v with
                | Some (txid, epoch, parts) when txid = tx ->
                    Hashtbl.replace decs txid (epoch, parts, s);
                    max_txid := max !max_txid txid;
                    max_epoch := max !max_epoch epoch
                | _ ->
                    bad :=
                      Printf.sprintf "shard %d: corrupt decision record %S" s k
                      :: !bad)
            | `User | `Other | `Outcome _ -> ()))
    t.dbs;
  match !bad with
  | detail :: _ -> Error detail
  | [] ->
      let no_rf = List.mem Commit.No_rollforward t.mutants in
      Hashtbl.iter
        (fun txid (epoch, parts, s_dec) ->
          if not no_rf then
            List.iter
              (fun s ->
                match Hashtbl.find_opt preps (txid, s) with
                | Some (_, ops) ->
                    let did =
                      Kv.Redodb.apply_guarded t.dbs.(s) ~tid:0
                        ~guard:(Commit.prep_key txid)
                        ~hwms:
                          [
                            (Commit.epoch_hwm_key, epoch);
                            (Commit.txid_hwm_key, txid);
                          ]
                        ops
                    in
                    if did then Obs.Metrics.incr t.c_rollf ~tid:0;
                    Hashtbl.remove preps (txid, s)
                | None -> ())
              parts;
          (* same retention rule as [complete]: a quarantined
             participant resolves its prepare from this decision record
             at rebuild time, so keep it until every participant could
             apply *)
          if List.for_all (shard_admits t) parts then
            Kv.Redodb.write_batch t.dbs.(s_dec) ~tid:0
              [ (Commit.dec_key txid, None) ])
        decs;
      Hashtbl.iter
        (fun ((txid, s) as key) (parts, _) ->
          ignore key;
          if no_rf || not (Hashtbl.mem decs txid) then
            (* A participant behind quarantine could hold the decision
               record this transaction's fate hangs on: leave the
               prepare in doubt until that shard rebuilds — rolling it
               back now could abort an acked commit. *)
            if List.for_all (shard_admits t) parts then begin
              Kv.Redodb.write_batch t.dbs.(s) ~tid:0
                [ (Commit.prep_key txid, None) ];
              Obs.Metrics.incr t.c_rollb ~tid:0
            end)
        preps;
      A.set t.next_txid (!max_txid + 1);
      A.set t.epoch_src !max_epoch;
      A.set t.decided 0;
      A.set t.applied 0;
      Hashtbl.reset t.registry;
      Hashtbl.reset t.active_toks;
      Sched.Mutex.reset t.reg_lock;
      Array.fill t.commit_window 0 (Array.length t.commit_window) false;
      Result.Ok ()

let () = recover_commit_ref := recover_commit

let recover_all t ~seed ~evict_prob ~torn_prob ~bitflips =
  match recover_shards t ~seed ~evict_prob ~torn_prob ~bitflips with
  | Error _ as e -> e
  | Result.Ok dt -> (
      match recover_commit t with
      | Result.Ok () -> Result.Ok dt
      | Error detail -> Error ("commit recovery: " ^ detail))

(* ---- online rebuild of a quarantined shard ---- *)

(* Resolve the rebuilt shard's restored in-doubt commit records from the
   decision records that survived on the other shards (or on the rebuilt
   shard itself, when it was the coordinator).  A prepare with a
   surviving decision is rolled FORWARD — the deferred apply the live
   [complete] skipped while the shard was quarantined; one without is
   rolled BACK (no decision record could exist anywhere: the live path
   aborted it).  The decision record is forgotten only once no OTHER
   participant still sits behind quarantine waiting to resolve from it. *)
let resolve_rebuilt t ~tid s db =
  let preps = ref [] in
  Kv.Redodb.fold db ~tid ~init:() (fun () k v ->
      match Commit.classify_key k with
      | `Prep tx -> (
          match Commit.decode_prep v with
          | Some (txid, parts, ops) when txid = tx ->
              preps := (txid, parts, ops) :: !preps
          | _ -> ())
      | _ -> ());
  let find_decision txid =
    let found = ref None in
    Array.iteri
      (fun s' db' ->
        if Option.is_none !found && (s' = s || shard_admits t s') then
          let db' = if s' = s then db else db' in
          match Kv.Redodb.get db' ~tid (Commit.dec_key txid) with
          | Some v -> (
              match Commit.decode_decision v with
              | Some (txid', epoch, _) when txid' = txid ->
                  found := Some (s', epoch)
              | _ -> ())
          | None -> ())
      t.dbs;
    !found
  in
  List.iter
    (fun (txid, parts, ops) ->
      match find_decision txid with
      | Some (s_dec, epoch) ->
          let did =
            Kv.Redodb.apply_guarded db ~tid ~guard:(Commit.prep_key txid)
              ~hwms:
                [ (Commit.epoch_hwm_key, epoch); (Commit.txid_hwm_key, txid) ]
              ops
          in
          if did then Obs.Metrics.incr t.c_rollf ~tid;
          if List.for_all (fun p -> p = s || shard_admits t p) parts then begin
            let dbd = if s_dec = s then db else t.dbs.(s_dec) in
            Kv.Redodb.write_batch dbd ~tid [ (Commit.dec_key txid, None) ]
          end
      | None ->
          Kv.Redodb.write_batch db ~tid [ (Commit.prep_key txid, None) ];
          Obs.Metrics.incr t.c_rollb ~tid)
    !preps

(* Rebuild quarantined shard [s] online, without interrupting the other
   shards: restore the last good sealed snapshot export into a brand-new
   region (relocatable — any offset, any region), replay the commit
   journal over it (the volatile ledger survived whatever rotted the
   durable image; replay is idempotent last-writer-wins), resolve
   restored in-doubt 2PC records from surviving decision records, swap
   the rebuilt store in with a fresh batcher, re-anchor the journal at a
   fresh export, and readmit.  On [Error] the shard stays quarantined
   and the rebuild may be retried. *)
let rebuild_shard t ~tid s =
  if not t.cfg.isolate then
    Error "rebuild: engine not configured with isolate"
  else begin
    Sched.Mutex.lock t.health_lock ~tid;
    let st = A.get t.health.(s) in
    if st <> 2 then begin
      Sched.Mutex.unlock t.health_lock ~tid;
      Error
        (Printf.sprintf "rebuild: shard %d is %s, not quarantined" s
           (health_name st))
    end
    else begin
      A.set t.health.(s) 3;
      Sched.Mutex.unlock t.health_lock ~tid;
      A.incr t.hc_rebuilds;
      Obs.Metrics.incr t.c_rebuild ~tid;
      let old = t.dbs.(s) in
      let restore () =
        match t.exports.(s) with
        | None -> Error "rebuild: no snapshot export for shard"
        | Some snap -> (
            let ledger = Kv.Redodb.journal_records old ~tid in
            let backing =
              Option.map
                (fun dir -> shard_file dir s ^ ".rebuild")
                t.cfg.backing_dir
            in
            match
              Kv.Redodb.open_from_snapshot ?backing
                ~num_threads:t.cfg.num_threads snap
            with
            | Error _ as e -> e
            | Result.Ok fresh ->
                (match t.flush_cost with
                | Some c -> Kv.Redodb.set_flush_cost fresh c
                | None -> ());
                Kv.Redodb.enable_journal fresh;
                Kv.Redodb.replay_journal fresh ~tid ledger;
                resolve_rebuilt t ~tid s fresh;
                (* the rebuilt region replaces the rotten one on disk;
                   the old store's private mapping stays valid until it
                   is dropped with the old instance *)
                (match (backing, t.cfg.backing_dir) with
                | Some tmp, Some dir -> Unix.rename tmp (shard_file dir s)
                | _ -> ());
                Result.Ok fresh)
      in
      match restore () with
      | Error detail ->
          A.set t.health.(s) 2;
          Error ("rebuild: " ^ detail)
      | Result.Ok fresh ->
          t.dbs.(s) <- fresh;
          if Array.length t.batchers > 0 then begin
            t.batchers.(s) <-
              Batcher.create ~db:fresh ~shard:s ~max_batch:t.cfg.max_batch
                ~linger_us:t.cfg.linger_us ~linger_steps:t.cfg.linger_steps
                ~queue_cap:t.cfg.queue_cap;
            Batcher.set_ack_early t.batchers.(s)
              (List.mem Commit.Ack_early t.mutants)
          end;
          Kv.Redodb.journal_cut fresh ~tid;
          t.exports.(s) <- Some (Kv.Redodb.export_snapshot fresh ~tid);
          t.hreason.(s) <- "";
          A.set t.health.(s) 0;
          A.incr t.hc_readmissions;
          Obs.Metrics.incr t.c_readmit ~tid;
          Result.Ok ()
    end
  end

(* Whole-engine power failure under load: new requests bounce, queued
   unacknowledged requests are drained by rejection, in-flight committed
   batches finish (their acks are valid — the data is durable), then
   every shard crashes through the media-fault path, recovers, and
   commit recovery resolves in-doubt cross-shard transactions. *)
let crash_with_faults t ~tid ~seed ~evict_prob ~torn_prob ~bitflips =
  Sched.Mutex.lock t.crash_gate ~tid;
  Fun.protect ~finally:(fun () -> Sched.Mutex.unlock t.crash_gate ~tid)
  @@ fun () ->
  let t0 = Unix.gettimeofday () in
  A.set t.crashing true;
  Array.iter (fun b -> Batcher.set_crashing b true) t.batchers;
  while A.get t.inflight > 0 || not (Array.for_all Batcher.quiesced t.batchers) do
    relax ()
  done;
  let r = recover_all t ~seed ~evict_prob ~torn_prob ~bitflips in
  (match r with
  | Result.Ok _ ->
      Array.iter (fun b -> Batcher.set_crashing b false) t.batchers;
      A.set t.crashing false
  | Error _ -> () (* unrecoverable: the engine stays down *));
  match r with
  | Result.Ok _ -> Result.Ok (Unix.gettimeofday () -. t0)
  | Error _ as e -> e

(* Hard power failure for harnesses that already know no live thread is
   inside the engine (scheduler fibers suspended forever, a
   single-threaded torture loop, or a thread that just raised
   Commit.Injected_crash out of the engine): volatile stage and commit
   state is dropped like the machine lost it, then the shards recover
   and commit recovery runs.  No quiesce — this is how a crash lands
   mid-batch or mid-2PC. *)
let crash_hard_with_faults t ~seed ~evict_prob ~torn_prob ~bitflips =
  Array.iter Batcher.reset t.batchers;
  (* Batcher.reset clears the quarantine flag with the rest of the
     volatile stage state; quarantine survives a power failure (the
     shard's region is still bad), so re-assert it. *)
  Array.iteri
    (fun s b -> Batcher.set_quarantined b (A.get t.health.(s) >= 2))
    t.batchers;
  A.set t.inflight 0;
  A.set t.crashing false;
  Sched.Mutex.reset t.crash_gate;
  Sched.Mutex.reset t.health_lock;
  t.crash_after <- None;
  recover_all t ~seed ~evict_prob ~torn_prob ~bitflips

(* ---- introspection ---- *)

(* Installed after creation so the shards' initialisation flushes do not
   pay the device cost (startup with a realistic model would take
   seconds); the per-region override survives crash recovery. *)
let set_flush_cost t iters =
  t.flush_cost <- Some iters;  (* re-applied to rebuilt shards *)
  Array.iter (fun db -> Kv.Redodb.set_flush_cost db iters) t.dbs

let stall_hazard t ~tid =
  Array.exists (fun b -> Batcher.stall_hazard b ~tid) t.batchers
  || (tid >= 0 && tid < Array.length t.commit_window && t.commit_window.(tid))
  || Sched.Mutex.holder t.reg_lock = Some tid

let batch_sizes t ~shard = Batcher.batch_sizes t.batchers.(shard)

(* The oracle's ground truth is in USER terms: internal user keys are
   unescaped and commit metadata writes (which are not acked user data)
   are dropped. *)
let attempted_batches t ~shard =
  List.map
    (List.filter_map (fun k ->
         if String.length k > 0 && k.[0] = 'u' then Some (Commit.user_of_internal k)
         else None))
    (Batcher.attempted_batches t.batchers.(shard))

let queue_depths t =
  Array.to_list (Array.map Batcher.queue_depth t.batchers)

let commit_stats t = (A.get t.decided, A.get t.applied)

let stats_json t =
  let shard_rows =
    Array.to_list
      (Array.mapi
         (fun i db ->
           let nvm, vol = Kv.Redodb.memory_usage db in
           Obs.Json.Obj
             [
               ("shard", Obs.Json.Int i);
               ("keys", Obs.Json.Int (Kv.Redodb.count db ~tid:0));
               ("nvm_words", Obs.Json.Int nvm);
               ("volatile_words", Obs.Json.Int vol);
               ( "queue_depth",
                 if t.cfg.batch then Obs.Json.Int (Batcher.queue_depth t.batchers.(i))
                 else Obs.Json.Null );
               ( "batches_committed",
                 if t.cfg.batch then
                   Obs.Json.Int (Batcher.batches_committed t.batchers.(i))
                 else Obs.Json.Null );
               ( "heat",
                 Obs.Json.List
                   (Array.to_list (Array.map (fun n -> Obs.Json.Int n) t.heat.(i)))
               );
               ("health", Obs.Json.String (health_name (A.get t.health.(i))));
               ("health_reason", Obs.Json.String t.hreason.(i));
               ("scrub_passes", Obs.Json.Int (A.get t.scrub_pass.(i)));
             ])
         t.dbs)
  in
  Obs.Json.Obj
    [
      ("engine", Obs.Json.String "RedoDB-sharded");
      ("shards", Obs.Json.Int t.cfg.shards);
      ("batch", Obs.Json.Bool t.cfg.batch);
      ("max_batch", Obs.Json.Int t.cfg.max_batch);
      ("queue_cap", Obs.Json.Int t.cfg.queue_cap);
      ("epoch", Obs.Json.Int (A.get t.epoch_src));
      ("next_txid", Obs.Json.Int (A.get t.next_txid));
      ("decided", Obs.Json.Int (A.get t.decided));
      ("applied", Obs.Json.Int (A.get t.applied));
      ("pending_commits", Obs.Json.Int (Hashtbl.length t.registry));
      ( "health",
        Obs.Json.Obj
          (("isolate", Obs.Json.Bool t.cfg.isolate)
          :: List.map
               (fun (k, v) -> (k, Obs.Json.Int v))
               (health_counters t)) );
      ("shard_stats", Obs.Json.List shard_rows);
      ("windows", Obs.Window.to_json ());
      ("metrics", Obs.Metrics.to_json ());
    ]
