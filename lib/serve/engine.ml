(* The router and the wiring of the serving engine (contract in
   engine.mli): config and create, the public operations, each shard's
   write admission, crash and rebuild orchestration, and stats.
   Cross-shard commit, snapshot reads and the in-doubt resolver live in
   Commit, the exactly-once outcome ledger in Ledger, the per-shard
   health machine in Health.  User keys are escaped at this boundary
   (Commit.user_key).  Crashes route
   through the per-shard media-fault path (Redodb.crash_with_faults)
   with distinct derived seeds, then through Commit's recovery. *)

module A = Sched.Atomic

(* Field meanings are documented in engine.mli. *)
type config = {
  shards : int;
  num_threads : int;
  capacity_bytes : int;
  batch : bool;
  max_batch : int;
  linger_us : float;
  queue_cap : int;
  backing_dir : string option;
  isolate : bool;
}

let default_config =
  {
    shards = 4;
    num_threads = 9;
    capacity_bytes = 1 lsl 20;
    batch = true;
    max_batch = 16;
    linger_us = 0.;
    queue_cap = 64;
    backing_dir = None;
    isolate = false;
  }

let batch_window = 1024

(* The last [batch_window] entries of an append-only log, and how many
   were ever appended. *)
module Recent = struct
  type 'a t = { slots : 'a option array; mutable total : int }

  let make () = { slots = Array.make batch_window None; total = 0 }

  let push r x =
    r.slots.(r.total mod batch_window) <- Some x;
    r.total <- r.total + 1

  let to_list r =
    let n = min r.total batch_window in
    List.init n (fun i -> Option.get r.slots.((r.total - n + i) mod batch_window))
end

(* What a shard's writes need besides the PTM, which already combines
   concurrent transactions: an admission count and the recent-batch
   windows.  [log] is never held across a yield point, so a stalled
   fiber never holds it. *)
type stage = {
  writing : int A.t;  (* writes in flight on the shard, at most queue_cap *)
  log : Mutex.t;  (* protects sizes and attempts *)
  sizes : int Recent.t;  (* committed batch sizes *)
  attempts : string list Recent.t;
      (* keys of each batch, logged BEFORE its commit: the mid-batch
         crash oracle checks all-or-nothing against this *)
}

type t = {
  cfg : config;
  dbs : Kv.Redodb.t array;  (* a rebuild swaps entries in place *)
  stages : stage array;
  mutants : Commit.mutant list ref;  (* shared with commit, ledger, health *)
  commit : Commit.t;
  ledger : Ledger.t;
  health : Health.t;
  exports : string option array;  (* last good sealed snapshot per shard *)
  inflight : int A.t;  (* ops currently inside a shard (reads + commits) *)
  crashing : bool A.t;
  mutable flush_cost : int option;  (* re-applied to rebuilt shards *)
  crash_gate : Sched.Mutex.t;  (* serializes whole-engine crashes *)
  c_reqs : Obs.Metrics.counter;
  c_multi : Obs.Metrics.counter;
  c_overload : Obs.Metrics.counter;
  c_shed : Obs.Metrics.counter;  (* writes dropped on TTL expiry *)
  c_batches : Obs.Metrics.counter;
  h_batch : Obs.Metrics.histogram;
  h_txn : Obs.Metrics.histogram;  (* one batch's write_batch, ns *)
  heat : int array array;  (* per-shard key-popularity sketch *)
}

type ack = Commit.ack = { txid : int; epoch : int }

type error =
  | Overloaded
  | Unavailable of string
  | In_doubt of int
  | Timed_out
  | Shard_down of int

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

(* The reachable shards, for Commit: every shard the health machine
   admits. *)
let view t s = if Health.admits t.health s then Some t.dbs.(s) else None

let create cfg =
  if cfg.shards < 1 then invalid_arg "Engine.create: shards";
  if cfg.num_threads < 1 then invalid_arg "Engine.create: num_threads";
  if cfg.max_batch < 1 then invalid_arg "Engine.create: max_batch";
  if cfg.queue_cap < 1 then invalid_arg "Engine.create: queue_cap";
  if cfg.linger_us <> 0. then invalid_arg "Engine.create: linger_us must be 0";
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
  let stage _ =
    { writing = A.make 0; log = Mutex.create (); sizes = Recent.make (); attempts = Recent.make () }
  in
  let mutants = ref [] in
  let t =
    {
      cfg;
      dbs;
      stages = Array.init cfg.shards stage;
      mutants;
      commit = Commit.create ~shards:cfg.shards ~num_threads:cfg.num_threads ~mutants;
      ledger = Ledger.create ~mutants;
      health = Health.create ~shards:cfg.shards ~mutants;
      exports = Array.make cfg.shards None;
      inflight = A.make 0;
      crashing = A.make false;
      flush_cost = None;
      crash_gate = Sched.Mutex.create ();
      c_reqs = Obs.Metrics.counter "serve.requests";
      c_multi = Obs.Metrics.counter "serve.multi_shard_ops";
      c_overload = Obs.Metrics.counter "serve.overload_rejections";
      c_shed = Obs.Metrics.counter "serve.shed.expired";
      c_batches = Obs.Metrics.counter "serve.batches";
      h_batch = Obs.Metrics.histogram "serve.batch_size";
      h_txn = Obs.Metrics.histogram "serve.stage.txn";
      heat = Array.make_matrix cfg.shards 16 0;
    }
  in
  (* A reopened backing directory may hold in-doubt cross-shard records
     from the previous incarnation: resolve them before serving. *)
  if !reused then begin
    match Commit.recover t.commit ~shards:cfg.shards ~view:(view t) with
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
let commit t = t.commit
let health t = t.health

(* Engine alone maps shards to instances: the health machine gets, per
   call, the verification of the one serving [s]. *)
let verify_shard t s = Kv.Redodb.verify_meta t.dbs.(s)
let corrupt_shard t s ~seed ~count = Kv.Redodb.corrupt_durable_meta t.dbs.(s) ~seed ~count
let quarantine t ~tid s ~reason = Health.quarantine t.health ~tid s ~reason
let scrub_step t ~tid s = Health.scrub_step t.health ~tid s ~verify:(fun () -> verify_shard t s)
let set_mutants t ms = t.mutants := ms
let mutants t = !(t.mutants)

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

(* Every public operation holds an inflight token while it touches a
   shard; the crash path waits for the count to drain.  The double check
   after the increment closes the race with a concurrent crash start. *)
let enter t ~refused f =
  if A.get t.crashing then refused (Unavailable "crashing")
  else begin
    A.incr t.inflight;
    if A.get t.crashing then begin
      A.decr t.inflight;
      refused (Unavailable "crashing")
    end
    else Fun.protect ~finally:(fun () -> A.decr t.inflight) f
  end

let with_entry t ~tid f =
  enter t ~refused:Result.error (fun () ->
      Obs.Metrics.incr t.c_reqs ~tid;
      f ())

let refresh_export t ~tid s =
  if t.cfg.isolate then
    Health.if_healthy t.health ~tid s (fun () ->
        Kv.Redodb.journal_cut t.dbs.(s) ~tid;
        t.exports.(s) <- Some (Kv.Redodb.export_snapshot t.dbs.(s) ~tid))

(* ---- writes ---- *)

(* One request's write set as its shard commits it: [ops] already holds
   its outcome record, if any.  [rid] is the wire request id (0 =
   none) and [deadline] an absolute gettimeofday time (0. = none). *)
type job = {
  ops : (string * string option) list;
  rid : int;
  deadline : float;
}

(* Claim up to [n] of the shard's [queue_cap] write slots; how many. *)
let rec claim t st n =
  let cur = A.get st.writing in
  let k = min n (t.cfg.queue_cap - cur) in
  if k <= 0 then 0
  else if A.compare_and_set st.writing cur (cur + k) then k
  else claim t st n

(* [live] as one write_batch, one PTM transaction.  Its keys are logged
   before the commit (the mid-batch crash oracle's ground truth); an
   acknowledgement is written only after it returns. *)
let commit_batch t ~tid shard (live : job list) =
  let st = t.stages.(shard) in
  let keys = List.concat_map (fun j -> List.map fst j.ops) live in
  Mutex.protect st.log (fun () -> Recent.push st.attempts keys);
  let size = List.length live in
  let t_txn = if Obs.Metrics.is_on () then Unix.gettimeofday () else 0. in
  Obs.Trace.span Obs.Trace.Batch ~tid ~arg:size ~rid:(List.hd live).rid (fun () ->
      Kv.Redodb.write_batch t.dbs.(shard) ~tid (List.concat_map (fun j -> j.ops) live));
  if t_txn > 0. then begin
    Obs.Metrics.incr t.c_batches ~tid;
    Obs.Metrics.record_ns t.h_batch ~tid size;
    Obs.Metrics.record_ns t.h_txn ~tid (int_of_float ((Unix.gettimeofday () -. t_txn) *. 1e9))
  end;
  Mutex.protect st.log (fun () -> Recent.push st.sizes size)

(* One chunk of a shard's slice: refused whole while the shard is down
   or the engine crashing; otherwise a job whose deadline passed is shed
   before any engine work, and the rest commit as one batch as far as
   the shard's admission bound lets them, in order — past it, every
   later job of the chunk answers [Overloaded].  Deadlines are wall
   clock only: scheduled-mode callers pass none, so replay stays a pure
   function of the seed. *)
let commit_chunk t ~tid shard (jobs : job list) =
  if not (Health.admits t.health shard) then List.map (fun _ -> Error (Shard_down shard)) jobs
  else if A.get t.crashing then
    List.map (fun _ -> Error (Unavailable "crashed before commit")) jobs
  else begin
    let now =
      if List.exists (fun j -> j.deadline > 0.) jobs then Unix.gettimeofday () else 0.
    in
    let expired j = j.deadline > 0. && now > j.deadline in
    let fresh = List.filter (fun j -> not (expired j)) jobs in
    let st = t.stages.(shard) in
    let admitted = claim t st (List.length fresh) in
    if admitted > 0 then
      Fun.protect
        ~finally:(fun () -> ignore (A.fetch_and_add st.writing (-admitted)))
        (fun () -> commit_batch t ~tid shard (List.filteri (fun i _ -> i < admitted) fresh));
    let seen = ref 0 in
    List.map
      (fun j ->
        if expired j then begin
          Obs.Metrics.incr t.c_shed ~tid;
          Error Timed_out
        end
        else begin
          incr seen;
          if !seen <= admitted then Result.Ok ()
          else begin
            Obs.Metrics.incr t.c_overload ~tid;
            Error Overloaded
          end
        end)
      jobs
  end

(* Commit a group of jobs on one shard, results in order, in chunks of
   [min max_batch queue_cap] (of one when [batch] is off), so that a
   group never overloads against its own size. *)
let commit_on t ~tid shard (group : job list) =
  let chunk = if t.cfg.batch then min t.cfg.max_batch t.cfg.queue_cap else 1 in
  let rec go acc = function
    | [] -> List.rev acc
    | jobs -> (
        match commit_chunk t ~tid shard (List.filteri (fun i _ -> i < chunk) jobs) with
        | rs -> go (List.rev_append rs acc) (List.filteri (fun i _ -> i >= chunk) jobs)
        | exception Ptm.Ptm_intf.Unrecoverable { detail; _ } when t.cfg.isolate ->
            (* a live op tripped over the shard's region: fault-isolate
               it instead of taking the engine down *)
            quarantine t ~tid shard ~reason:detail;
            List.rev_append acc (List.map (fun _ -> Error (Shard_down shard)) jobs))
  in
  go [] group

(* [commit_on] for single-shard writes, each paired with its client
   token.  A batch admitted before a quarantine can commit on the dropped
   instance after the rebuild read its journal, so the rebuilt instance
   never sees it.  The instance is taken before the submit; if it no
   longer serves afterwards, each committed write is answered from the
   current instance: a tokened one by its outcome record there
   (present: committed; absent from an instance that still serves after
   the read: lost, so refused), an untokened one, or any write while the
   shard is down, as in doubt — never acked, never refused if it may
   have survived. *)
let submit_shard t ~tid shard (group : (job * int) list) =
  let db = view t shard in
  let rs = commit_on t ~tid shard (List.map fst group) in
  if not (Commit.moved ~view:(view t) (shard, db)) then rs
  else
    let answer tok =
      match view t shard with
      | Some now when tok > 0 ->
          let found = Kv.Redodb.get now ~tid (Commit.outcome_key ~tok ~txid:0) in
          if Commit.moved ~view:(view t) (shard, Some now) then Error (In_doubt 0)
          else if found <> None then Result.Ok ()
          else Error (Shard_down shard)
      | _ -> Error (In_doubt 0)
    in
    List.map2 (fun (_, tok) r -> if Result.is_ok r then answer tok else r) group rs

(* The ledger write rides in the SAME batch (hence the same PTM
   transaction) as the user write: the record exists iff the write
   committed. *)
let with_outcome t ~tok ops =
  if tok > 0 then
    Commit.outcome_op ~tok ~txid:0 ~epoch:(Commit.current_epoch t.commit) :: ops
  else ops

type write = {
  key : string;
  value : string option;
  rid : int;
  tok : int;
  deadline : float;
}

let write_group t ~tid (group : write list) =
  enter t ~refused:(fun e -> List.map (fun _ -> Error e) group) @@ fun () ->
  let res = Array.make (List.length group) (Result.Ok ()) in
  let slices = Array.make t.cfg.shards [] in
  let toks = ref [] in
  List.iteri
    (fun i w ->
      Obs.Metrics.incr t.c_reqs ~tid;
      let s = shard_of t w.key in
      if Ledger.dedup_key t.ledger ~tid ~db:t.dbs.(s) w.tok = None then begin
        toks := w.tok :: !toks;
        touch t s w.key;
        let ops = with_outcome t ~tok:w.tok [ (Commit.user_key w.key, w.value) ] in
        slices.(s) <-
          (i, ({ ops; rid = w.rid; deadline = w.deadline }, w.tok)) :: slices.(s)
      end)
    group;
  Ledger.with_active t.ledger ~tid !toks (fun () ->
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

(* One shard: a single atomic PTM transaction (fast path, no commit
   records).  Several shards: Commit's two-phase protocol. *)
let multi_put t ~tid ?(rid = 0) ?(tok = 0) ?(deadline = 0.) ops =
  with_entry t ~tid @@ fun () ->
  Obs.Metrics.incr t.c_multi ~tid;
  match Ledger.dedup t.ledger ~tid ~dbs:t.dbs tok with
  | Some ack -> Result.Ok ack
  | None -> (
      Ledger.with_active t.ledger ~tid [ tok ] @@ fun () ->
      let per_shard = Array.make t.cfg.shards [] in
      List.iter
        (fun (key, v) ->
          let s = shard_of t key in
          touch t s key;
          per_shard.(s) <- (Commit.user_key key, v) :: per_shard.(s))
        ops;
      let slices = ref [] in
      for s = t.cfg.shards - 1 downto 0 do
        if per_shard.(s) <> [] then slices := (s, List.rev per_shard.(s)) :: !slices
      done;
      let fast () = { txid = 0; epoch = Commit.current_epoch t.commit } in
      match !slices with
      | [] -> Result.Ok (fast ())
      | [ (s, ops) ] ->
          let w = { ops = with_outcome t ~tok ops; rid; deadline } in
          Result.map fast (List.hd (submit_shard t ~tid s [ (w, tok) ]))
      | slices -> (
          match
            Commit.two_phase t.commit ~tid ~rid ~tok ~deadline ~view:(view t)
              ~submit:(fun ~deadline s ops ->
                List.hd (commit_on t ~tid s [ { ops; rid; deadline } ]))
              slices
          with
          | Result.Ok _ as ok -> ok
          | Error (`Refused e) -> Error e
          | Error (`Shard_down s) -> Error (Shard_down s)
          | Error (`In_doubt txid) -> Error (In_doubt txid)))

(* ---- reads (epoch-validated snapshots, never batched) ---- *)

(* Single-key reads need no epoch validation: each shard apply is one
   atomic PTM transaction, so a key is never observably half-written. *)
let get t ~tid key =
  with_entry t ~tid @@ fun () ->
  let s = shard_of t key in
  match view t s with
  | None -> Error (Shard_down s)
  | Some db ->
      touch t s key;
      let v = Kv.Redodb.get db ~tid (Commit.user_key key) in
      (* a read of an instance quarantined meanwhile proves nothing *)
      if Commit.moved ~view:(view t) (s, Some db) then Error (Shard_down s) else Result.Ok v

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
  Commit.snapshot_read t.commit ~tid ~view:(view t) @@ fun () ->
  let out = Array.make (List.length keys) None in
  let rec read s =
    if s = t.cfg.shards then Result.Ok (Array.to_list out)
    else
      match (List.rev per_shard.(s), view t s) with
      | [], _ -> read (s + 1)
      | _, None -> Error (Shard_down s)
      | batch, Some db ->
          let vals = Kv.Redodb.get_batch db ~tid (List.map snd batch) in
          if Commit.moved ~view:(view t) (s, Some db) then Error (Shard_down s)
          else begin
            List.iter2 (fun (i, _) v -> out.(i) <- v) batch vals;
            read (s + 1)
          end
  in
  read 0

let scan t ~tid ~prefix ~max =
  with_entry t ~tid @@ fun () ->
  Obs.Metrics.incr t.c_multi ~tid;
  let iprefix = Commit.user_key prefix in
  Result.Ok
    ( Commit.snapshot_read t.commit ~tid ~view:(view t) @@ fun () ->
      let all = ref [] in
      (* degraded mode: a scan serves the healthy subset of the
         keyspace; the per-shard health gauges tell clients which part
         is missing *)
      for s = 0 to t.cfg.shards - 1 do
        Option.iter
          (fun db ->
            (* each cursor is sorted: its first [max] entries are all this
               shard can contribute to the merged first [max] *)
            let c = Kv.Redodb.seek db ~tid iprefix in
            let rec walk n acc =
              match Kv.Redodb.entry c with
              | Some (k, v) when n < max ->
                  ignore (Kv.Redodb.next c);
                  walk (n + 1) ((Commit.user_of_internal k, v) :: acc)
              | _ -> acc
            in
            let mine = walk 0 [] in
            (* a shard quarantined during its walk is left out, as if
               before it *)
            if not (Commit.moved ~view:(view t) (s, Some db)) then all := mine @ !all)
          (view t s)
      done;
      let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) !all in
      List.filteri (fun i _ -> i < max) sorted )

(* Resolve the fate of a client write token: help decided commits to
   completion first (a decided cross-shard transaction's outcome record
   is already durable on the coordinator, so this is belt-and-braces),
   then answer from the ledger. *)
let txstat t ~tid tok =
  with_entry t ~tid @@ fun () ->
  Commit.help t.commit ~tid ~view:(view t);
  Result.Ok (Ledger.status t.ledger ~tid ~dbs:t.dbs tok)

let queue_depths t = Array.to_list (Array.map (fun st -> A.get st.writing) t.stages)

let overload_hint t =
  float_of_int (List.fold_left max 0 (queue_depths t)) /. float_of_int t.cfg.queue_cap

(* User keys only — commit metadata and high-water marks are not data. *)
let count t ~tid =
  let user n k _ = if String.length k > 0 && k.[0] = 'u' then n + 1 else n in
  List.fold_left
    (fun n s -> Option.fold (view t s) ~none:n ~some:(fun db -> Kv.Redodb.fold db ~tid ~init:n user))
    0
    (List.init t.cfg.shards Fun.id)

(* ---- crash and recovery ---- *)

(* Every shard recovers before anything is reported: an early refusal
   must not abandon the shards after it (their acked data would sit
   unrecovered behind a healthy region) — fault isolation starts here.
   Without [isolate], [Error detail] names the COMPLETE failing set, in
   shard order, and the engine stays down.  With [isolate], a refusing
   shard is quarantined instead and recovery succeeds for the rest: the
   engine comes back serving every healthy shard, and the quarantined
   one waits for its online rebuild.  Already-quarantined shards are
   skipped (their durable state is known-bad until rebuilt).  Then
   Commit's recovery settles every in-doubt transaction it can reach. *)
let recover_all t ~seed ~evict_prob ~torn_prob ~bitflips =
  let bad = ref [] in
  let total = ref 0. in
  for s = t.cfg.shards - 1 downto 0 do
    if Health.admits t.health s then
      match
        Kv.Redodb.crash_with_faults t.dbs.(s) ~seed:(seed + s) ~evict_prob
          ~torn_prob ~bitflips
      with
      | Result.Ok dt -> total := !total +. dt
      | Error detail ->
          if t.cfg.isolate then quarantine t ~tid:0 s ~reason:detail
          else bad := Printf.sprintf "shard %d: %s" s detail :: !bad
  done;
  if !bad <> [] then Error (String.concat "; " !bad)
  else begin
    Ledger.reset t.ledger;
    match Commit.recover t.commit ~shards:t.cfg.shards ~view:(view t) with
    | Result.Ok () -> Result.Ok !total
    | Error detail -> Error ("commit recovery: " ^ detail)
  end

(* ---- online rebuild of a quarantined shard ---- *)

let rebuild_shard t ~tid s =
  if not t.cfg.isolate then Error "rebuild: engine not configured with isolate"
  else
    match Health.start_rebuild t.health ~tid s with
    | Error _ as e -> e
    | Result.Ok () -> (
        let restore snap =
          let journal = Kv.Redodb.journal_records t.dbs.(s) ~tid in
          let backing =
            Option.map (fun dir -> shard_file dir s ^ ".rebuild") t.cfg.backing_dir
          in
          match
            Kv.Redodb.open_from_snapshot ?backing ~num_threads:t.cfg.num_threads snap
          with
          | Error _ as e -> e
          | Result.Ok fresh ->
              Option.iter (Kv.Redodb.set_flush_cost fresh) t.flush_cost;
              Kv.Redodb.enable_journal fresh;
              Kv.Redodb.replay_journal fresh ~tid journal;
              Commit.resolve_shard t.commit ~tid
                ~view:(fun s' -> if s' = s then Some fresh else view t s')
                fresh;
              (* the rebuilt region replaces the rotten one on disk;
                 the old store's private mapping stays valid until it
                 is dropped with the old instance *)
              (match (backing, t.cfg.backing_dir) with
              | Some tmp, Some dir -> Unix.rename tmp (shard_file dir s)
              | _ -> ());
              Result.Ok fresh
        in
        match
          Option.fold ~none:(Error "no snapshot export for shard") ~some:restore
            t.exports.(s)
        with
        | Error detail ->
            Health.finish_rebuild t.health ~tid s ~ok:false;
            Error ("rebuild: " ^ detail)
        | Result.Ok fresh ->
            t.dbs.(s) <- fresh;
            Kv.Redodb.journal_cut fresh ~tid;
            t.exports.(s) <- Some (Kv.Redodb.export_snapshot fresh ~tid);
            Health.finish_rebuild t.health ~tid s ~ok:true;
            Result.Ok ())

let crash_with_faults t ~tid ~seed ~evict_prob ~torn_prob ~bitflips =
  Sched.Mutex.lock t.crash_gate ~tid;
  Fun.protect ~finally:(fun () -> Sched.Mutex.unlock t.crash_gate ~tid)
  @@ fun () ->
  let t0 = Unix.gettimeofday () in
  A.set t.crashing true;
  Park.await (fun () -> if A.get t.inflight > 0 then None else Some ());
  match recover_all t ~seed ~evict_prob ~torn_prob ~bitflips with
  | Result.Ok _ ->
      A.set t.crashing false;
      Result.Ok (Unix.gettimeofday () -. t0)
  | Error _ as e -> e (* unrecoverable: the engine stays down *)

let crash_hard_with_faults t ~seed ~evict_prob ~torn_prob ~bitflips =
  Array.iter (fun st -> A.set st.writing 0) t.stages;
  A.set t.inflight 0;
  A.set t.crashing false;
  Sched.Mutex.reset t.crash_gate;
  Health.reset t.health;
  Commit.set_crash_after t.commit None;
  recover_all t ~seed ~evict_prob ~torn_prob ~bitflips

(* ---- introspection ---- *)

let set_flush_cost t iters =
  t.flush_cost <- Some iters;
  Array.iter (fun db -> Kv.Redodb.set_flush_cost db iters) t.dbs

let stall_hazard t ~tid = Commit.stall_hazard t.commit ~tid || Ledger.stall_hazard t.ledger ~tid
let recent st log = Mutex.protect st.log (fun () -> Recent.to_list log)
let batch_sizes t ~shard = recent t.stages.(shard) t.stages.(shard).sizes
let batches_committed t ~shard = t.stages.(shard).sizes.total

let attempted_batches t ~shard =
  List.map
    (List.filter_map (fun k ->
         if String.length k > 0 && k.[0] = 'u' then Some (Commit.user_of_internal k)
         else None))
    (recent t.stages.(shard) t.stages.(shard).attempts)

let pmem_stats t =
  Array.fold_left (fun acc db -> Pmem.Stats.add acc (Kv.Redodb.stats db)) Pmem.Stats.zero t.dbs

let stats_json t =
  let shard_rows =
    Array.to_list
      (Array.mapi
         (fun i db ->
           let nvm, vol = Kv.Redodb.memory_usage db in
           let health, reason, passes = Health.shard t.health i in
           Obs.Json.Obj
             [
               ("shard", Obs.Json.Int i);
               ("keys", Obs.Json.Int (Kv.Redodb.count db ~tid:0));
               ("nvm_words", Obs.Json.Int nvm);
               ("volatile_words", Obs.Json.Int vol);
               ("queue_depth", Obs.Json.Int (A.get t.stages.(i).writing));
               ("batches_committed", Obs.Json.Int (batches_committed t ~shard:i));
               ( "heat",
                 Obs.Json.List
                   (Array.to_list (Array.map (fun n -> Obs.Json.Int n) t.heat.(i)))
               );
               ("health", Obs.Json.String health);
               ("health_reason", Obs.Json.String reason);
               ("scrub_passes", Obs.Json.Int passes);
             ])
         t.dbs)
  in
  Obs.Json.Obj
    ([
       ("engine", Obs.Json.String "RedoDB-sharded");
       ("shards", Obs.Json.Int t.cfg.shards);
       ("batch", Obs.Json.Bool t.cfg.batch);
       ("max_batch", Obs.Json.Int t.cfg.max_batch);
       ("queue_cap", Obs.Json.Int t.cfg.queue_cap);
     ]
    @ Commit.stats_json t.commit
    @ [
        ( "health",
          Obs.Json.Obj
            (("isolate", Obs.Json.Bool t.cfg.isolate)
            :: List.map
                 (fun (k, v) -> (k, Obs.Json.Int v))
                 (Health.counters t.health)) );
        ("shard_stats", Obs.Json.List shard_rows);
        ("windows", Obs.Window.to_json ());
        ("metrics", Obs.Metrics.to_json ());
      ])
