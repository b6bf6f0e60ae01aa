(* Cross-shard atomic commit (contract and record formats in
   commit.mli). *)

(* ---- key schema ---- *)

let user_key k = "u" ^ k
let user_of_internal k = String.sub k 1 (String.length k - 1)

let prep_prefix = "m!p!"
let dec_prefix = "m!d!"
let epoch_hwm_key = "m!he"
let txid_hwm_key = "m!ht"
let prep_key txid = Printf.sprintf "%s%010d" prep_prefix txid
let dec_key txid = Printf.sprintf "%s%010d" dec_prefix txid

(* Outcome ledger for exactly-once client retries: a write carrying a
   client token leaves an OUTCOME record ("m!o!<token>!<txid>") on its
   coordinator shard, committed in the SAME transaction as the data (the
   decision batch for cross-shard, the write batch itself for
   single-shard) — so "the write is durable" and "its outcome is
   recorded" are one atomic event.  A retried token dedups against the
   ledger; TXSTAT answers from it after a crash.  Unlike prepare and
   decision records, outcomes survive Forget: they are the only durable
   proof the transaction happened once a forgotten txid's records are
   gone.  Two records under one token = a duplicated commit — exactly
   what the no-dedup-on-retry mutant must produce and the audits seek. *)
let outcome_prefix tok = Printf.sprintf "m!o!%020d!" tok

(* ---- record codec (digest-framed, binary-safe) ---- *)

let digest_string s =
  let acc = ref 0x2545f4914f6cdd1dL in
  String.iter (fun c -> acc := Pmem.Checksum.fold !acc (Int64.of_int (Char.code c))) s;
  !acc

let frame body = Printf.sprintf "%016Lx%s" (digest_string body) body

let add_int b n =
  Buffer.add_string b (string_of_int n);
  Buffer.add_char b ';'

let add_str b s =
  Buffer.add_string b (string_of_int (String.length s));
  Buffer.add_char b ':';
  Buffer.add_string b s

exception Bad_record

(* Tiny cursor parser; any malformation raises and the decoder returns
   None — an unparseable record is treated as corruption, never guessed
   at. *)
type cursor = { s : string; mutable pos : int }

(* Parse a framed record with [f]: a bad digest, a malformed field or
   trailing bytes make it None. *)
let decode s f =
  let n = String.length s in
  if n < 16 then None
  else
    let body = String.sub s 16 (n - 16) in
    match Int64.of_string_opt ("0x" ^ String.sub s 0 16) with
    | Some d when Int64.equal d (digest_string body) -> (
        let cur = { s = body; pos = 0 } in
        match f cur with
        | r when cur.pos = n - 16 -> Some r
        | _ -> None
        | exception Bad_record -> None)
    | _ -> None

let take_char cur =
  if cur.pos >= String.length cur.s then raise Bad_record;
  cur.pos <- cur.pos + 1;
  cur.s.[cur.pos - 1]

let take_until c cur =
  match String.index_from_opt cur.s cur.pos c with
  | None -> raise Bad_record
  | Some i ->
      let tok = String.sub cur.s cur.pos (i - cur.pos) in
      cur.pos <- i + 1;
      tok

let take_int cur =
  match int_of_string_opt (take_until ';' cur) with
  | Some n -> n
  | None -> raise Bad_record

let take_str cur =
  let len =
    match int_of_string_opt (take_until ':' cur) with
    | Some n when n >= 0 && n <= String.length cur.s - cur.pos -> n
    | _ -> raise Bad_record
  in
  let s = String.sub cur.s cur.pos len in
  cur.pos <- cur.pos + len;
  s

let take_ints cur =
  let n = take_int cur in
  List.init n (fun _ -> take_int cur)

(* prepare record: txid, participant shards, this shard's write set *)
let encode_prep ~txid ~participants ~ops =
  let b = Buffer.create 128 in
  add_int b txid;
  add_int b (List.length participants);
  List.iter (add_int b) participants;
  add_int b (List.length ops);
  List.iter
    (fun (k, v) ->
      match v with
      | Some v ->
          Buffer.add_char b 'P';
          add_str b k;
          add_str b v
      | None ->
          Buffer.add_char b 'D';
          add_str b k)
    ops;
  frame (Buffer.contents b)

let decode_prep s =
  decode s (fun cur ->
      let txid = take_int cur in
      let participants = take_ints cur in
      let ops =
        List.init (take_int cur) (fun _ ->
            match take_char cur with
            | 'P' ->
                let k = take_str cur in
                (k, Some (take_str cur))
            | 'D' -> (take_str cur, None)
            | _ -> raise Bad_record)
      in
      (txid, participants, ops))

(* decision record: txid, commit epoch, participant shards *)
let encode_decision ~txid ~epoch ~participants =
  let b = Buffer.create 32 in
  add_int b txid;
  add_int b epoch;
  add_int b (List.length participants);
  List.iter (add_int b) participants;
  frame (Buffer.contents b)

let decode_decision s =
  decode s (fun cur ->
      let txid = take_int cur in
      let epoch = take_int cur in
      (txid, epoch, take_ints cur))

let outcome_key ~tok ~txid = Printf.sprintf "%s%010d" (outcome_prefix tok) txid

(* The ledger write of token [tok]: its outcome record, carrying the
   txid (0 = single-shard fast path) and the commit epoch. *)
let outcome_op ~tok ~txid ~epoch =
  let b = Buffer.create 16 in
  add_int b txid;
  add_int b epoch;
  (outcome_key ~tok ~txid, Some (frame (Buffer.contents b)))

let decode_outcome s =
  decode s (fun cur ->
      let txid = take_int cur in
      (txid, take_int cur))

(* ---- protocol phase boundaries (crash-injection points) ---- *)

(* Each constructor names the instant JUST AFTER that phase's durable
   action committed: [Prepare k] after the k-th non-coordinator
   participant's prepare record, [Decide] after the coordinator's merged
   commit (its slice, the decision record and the outcome record),
   [Apply k] after the k-th non-coordinator participant's guarded apply,
   [Forget] after the decision record's delete was queued for the
   coordinator's next decision.  The sweeps crash at every one of these. *)
type phase = Prepare of int | Decide | Apply of int | Forget

exception Injected_crash of phase

let pp_phase = function
  | Prepare k -> Printf.sprintf "prepare:%d" k
  | Decide -> "decide"
  | Apply k -> Printf.sprintf "apply:%d" k
  | Forget -> "forget"

let parse_phase s =
  match String.split_on_char ':' s with
  | [ "decide" ] -> Some Decide
  | [ "forget" ] -> Some Forget
  | [ "prepare"; k ] -> Option.map (fun k -> Prepare k) (int_of_string_opt k)
  | [ "apply"; k ] -> Option.map (fun k -> Apply k) (int_of_string_opt k)
  | _ -> None

(* ---- guard-dropping mutants (see commit.mli) ---- *)
type mutant =
  | Skip_2pc
  | No_rollforward
  | No_read_validation
  | No_dedup
  | Ack_early
  | No_scrub_verify
  | Serve_while_rebuilding

let mutant_names =
  [
    (Skip_2pc, "skip-2pc");
    (No_rollforward, "no-rollforward");
    (No_read_validation, "no-read-validation");
    (No_dedup, "no-dedup-on-retry");
    (Ack_early, "ack-before-commit");
    (No_scrub_verify, "no-scrub-verify");
    (Serve_while_rebuilding, "serve-while-rebuilding");
  ]

let pp_mutant m = List.assoc m mutant_names
let parse_mutant s = List.find_map (fun (m, n) -> if n = s then Some m else None) mutant_names

(* ---- the coordinator ---- *)

module A = Sched.Atomic

type ack = { txid : int; epoch : int }

type ops = (string * string option) list

(* A cross-shard transaction counted as decided, published so that any
   reader can drive it to completion.  It is registered BEFORE its
   merged commit is submitted (that commit makes the coordinator's slice
   visible), so [p_confirmed] says whether its writer has seen the
   decision commit; a helper settles an unconfirmed entry by the durable
   decision record instead (see [help_one]). *)
type pending = {
  p_epoch : int;
  p_parts : int list;  (* every participant, shards ascending *)
  p_slices : (int * ops) list;  (* the prepared participants' write sets *)
  mutable p_confirmed : bool;  (* guarded by reg_lock *)
}

type t = {
  mutants : mutant list ref;
  mutable crash_after : phase option;
  next_txid : int A.t;
  epoch_src : int A.t;  (* last granted commit epoch; gaps are harmless *)
  decided : int A.t;  (* cross-shard txns registered as decided *)
  applied : int A.t;  (* of those, completed (claimed from the registry) *)
  reg_lock : Sched.Mutex.t;
  registry : (int, pending) Hashtbl.t;  (* guarded by reg_lock *)
  live : (int, unit) Hashtbl.t;  (* guarded by reg_lock: txids inside two_phase *)
  forgets : (int, string list) Hashtbl.t;
      (* guarded by reg_lock: per coordinator shard, the decision records
         of completed transactions, deleted by its next decision *)
  window : bool array;  (* per tid: between registration and confirmation *)
  c_prep : Obs.Metrics.counter;
  c_dec : Obs.Metrics.counter;
  c_apply : Obs.Metrics.counter;
  c_helped : Obs.Metrics.counter;
  c_rollf : Obs.Metrics.counter;
  c_rollb : Obs.Metrics.counter;
  c_retry : Obs.Metrics.counter;
  h_prep : Obs.Metrics.histogram;
  h_dec : Obs.Metrics.histogram;
  h_app : Obs.Metrics.histogram;
}

let create ~num_threads ~mutants =
  {
    mutants;
    crash_after = None;
    next_txid = A.make 1;
    epoch_src = A.make 0;
    decided = A.make 0;
    applied = A.make 0;
    reg_lock = Sched.Mutex.create ();
    registry = Hashtbl.create 16;
    live = Hashtbl.create 16;
    forgets = Hashtbl.create 4;
    window = Array.make num_threads false;
    c_prep = Obs.Metrics.counter "serve.commit.prepares";
    c_dec = Obs.Metrics.counter "serve.commit.decides";
    c_apply = Obs.Metrics.counter "serve.commit.applies";
    c_helped = Obs.Metrics.counter "serve.commit.helped_applies";
    c_rollf = Obs.Metrics.counter "serve.commit.rollforwards";
    c_rollb = Obs.Metrics.counter "serve.commit.rollbacks";
    c_retry = Obs.Metrics.counter "serve.commit.snapshot_retries";
    h_prep = Obs.Metrics.histogram "serve.stage.prepare";
    h_dec = Obs.Metrics.histogram "serve.stage.decide";
    h_app = Obs.Metrics.histogram "serve.stage.apply";
  }

let has c m = List.mem m !(c.mutants)
let set_crash_after c p = c.crash_after <- p
let current_epoch c = A.get c.epoch_src
let stats c = (A.get c.decided, A.get c.applied)

(* The boundaries a commit over [participants] shards passes, in order:
   the No_rollforward mutant acks at the decision and never applies. *)
let phases c ~participants =
  let others f = List.init (participants - 1) (fun i -> f (i + 1)) in
  others (fun k -> Prepare k)
  @ (Decide :: (if has c No_rollforward then [] else others (fun k -> Apply k) @ [ Forget ]))

let stats_json c =
  Obs.Json.
    [
      ("epoch", Int (A.get c.epoch_src));
      ("next_txid", Int (A.get c.next_txid));
      ("decided", Int (A.get c.decided));
      ("applied", Int (A.get c.applied));
      ("pending_commits", Int (Hashtbl.length c.registry));
    ]

let stall_hazard c ~tid =
  (tid >= 0 && tid < Array.length c.window && c.window.(tid))
  || Sched.Mutex.holder c.reg_lock = Some tid

(* [f ()] under reg_lock; [f] never raises. *)
let locked c ~tid f =
  Sched.Mutex.lock c.reg_lock ~tid;
  let r = f () in
  Sched.Mutex.unlock c.reg_lock ~tid;
  r

let maybe_crash c phase =
  match c.crash_after with
  | Some p when p = phase ->
      c.crash_after <- None;
      raise (Injected_crash phase)
  | _ -> ()

(* One 2PC stage: a trace span (linked to the request by rid) plus a
   serve.stage.* latency histogram, recorded even if [f] raises. *)
let stage h kind ~tid ~arg ~rid f =
  if not (Obs.is_active ()) then f ()
  else
    let t0 = Unix.gettimeofday () in
    Fun.protect f ~finally:(fun () ->
        Obs.Trace.complete kind ~tid ~arg ~rid ~t0;
        if Obs.Metrics.is_on () then
          Obs.Metrics.record_ns h ~tid
            (int_of_float ((Unix.gettimeofday () -. t0) *. 1e9)))

(* ---- the resolver ---- *)

(* The reachable shards: [view s] is the instance to use for shard [s],
   or [None] while it is behind quarantine.  During a rebuild the view
   maps the rebuilt shard to its fresh instance. *)
type view = int -> Kv.Redodb.t option

type fate = Decided of int (* epoch *) | Aborted | Undecided

(* Who settles: the committing writer (crash points armed, rid-linked
   spans), a helping reader, or crash recovery / a rebuild. *)
type by = Writer of int | Helper | Recovery

(* Registry check-and-remove under reg_lock: the completion point of a
   live commit.  Exactly one of the racing completers (writer, helping
   readers) claims it and counts it applied. *)
let claim c ~tid txid =
  locked c ~tid @@ fun () ->
  Hashtbl.mem c.registry txid
  && begin
       Hashtbl.remove c.registry txid;
       A.incr c.applied;
       true
     end

(* Decision keys to delete in shard [coord]'s next decision commit. *)
let queue_forgets c ~tid coord keys =
  if keys <> [] then
    locked c ~tid @@ fun () ->
    Hashtbl.replace c.forgets coord
      (keys @ Option.value (Hashtbl.find_opt c.forgets coord) ~default:[])

(* THE rule for one txid over the shards reachable in [view]; every path
   that finishes a cross-shard transaction ends here.  [slices] are the
   participants' prepared write sets (a missing one is already gone; the
   coordinator never has one).  [view] is asked again at each step,
   never remembered: a shard may be quarantined and rebuilt while a
   settle runs, and an apply that landed on the replaced instance is
   lost with it.

   - Decided: a guarded apply on every reachable participant — it commits
     the slice iff the shard still holds the prepare, so racing settlers
     (writer, helpers, recovery, a rebuild) are harmless: exactly one
     commits per shard.  The decision record is forgotten only if every
     participant is reachable after the applies: a shard quarantined
     before then may have lost its apply, and its rebuild must roll the
     prepare forward from this very record.  A live commit queues the
     delete for the coordinator's next decision; recovery and a rebuild
     delete at once.
   - Aborted: delete every reachable prepare.
   - Undecided: leave every prepare in doubt. *)
let settle c ~tid ~view ~by txid parts fate slices =
  match fate with
  | Undecided -> ()
  | Aborted ->
      (* straight to the PTM, not through the batcher: an abort must also
         work while the batcher is rejecting during a crash start *)
      let dbs = List.filter_map (fun (s, _) -> view s) slices in
      List.iter (fun db -> Kv.Redodb.write_batch db ~tid [ (prep_key txid, None) ]) dbs;
      if dbs <> [] then Obs.Metrics.incr c.c_rollb ~tid
  | Decided epoch ->
      List.iteri
        (fun i (s, ops) ->
          Option.iter
            (fun db ->
              let apply () =
                Kv.Redodb.apply_guarded db ~tid ~guard:(prep_key txid)
                  ~hwms:[ (epoch_hwm_key, epoch); (txid_hwm_key, txid) ]
                  ops
              in
              let staged rid = stage c.h_app Obs.Trace.Apply ~tid ~arg:s ~rid apply in
              match by with
              | Recovery -> if apply () then Obs.Metrics.incr c.c_rollf ~tid
              | Writer rid -> if staged rid then Obs.Metrics.incr c.c_apply ~tid
              | Helper ->
                  if staged 0 then begin
                    Obs.Metrics.incr c.c_apply ~tid;
                    Obs.Metrics.incr c.c_helped ~tid
                  end)
            (view s);
          match by with Writer _ -> maybe_crash c (Apply (i + 1)) | _ -> ())
        slices;
      let coord = List.hd parts in
      if
        (by = Recovery || claim c ~tid txid)
        && List.for_all (fun s -> Option.is_some (view s)) parts
      then
        match by with
        | Recovery ->
            Option.iter
              (fun db -> Kv.Redodb.write_batch db ~tid [ (dec_key txid, None) ])
              (view coord)
        | Writer _ ->
            queue_forgets c ~tid coord [ dec_key txid ];
            maybe_crash c Forget
        | Helper -> queue_forgets c ~tid coord [ dec_key txid ]

(* Instance [db], taken from [view s] earlier, no longer serves shard
   [s] (quarantined or rebuilt since), or never did ([None]). *)
let moved ~view (s, db) =
  match (view s, db) with Some now, Some was -> now != was | _ -> true

(* The fate of transaction [(txid, parts)] by the durable decision
   record, read on the coordinator (the lowest participant, the only
   shard that ever holds it).  Its absence proves abort once every
   participant is reachable, provided the coordinator has returned: a
   decision is only ever written by its own transaction's writer.  A
   txid reused across a crash that hid a quarantined shard's records
   names a different participant list: its records never decide this
   transaction.  A read is trusted only if the instance it was made on
   still serves the coordinator afterwards: a commit that landed on an
   instance after its rebuild read the journal is lost with it, so what
   that instance says decides nothing. *)
let fate_of c ~tid ~view (txid, parts) =
  let coord = List.hd parts in
  let db = view coord in
  let decision =
    if has c No_rollforward then None
    else Option.bind db (fun db -> Kv.Redodb.get db ~tid (dec_key txid))
  in
  match Option.map decode_decision decision with
  | _ when moved ~view (coord, db) -> Undecided
  | Some (Some (tx, epoch, ps)) when tx = txid && ps = parts -> Decided epoch
  | Some (Some (tx, _, _)) when tx <> txid -> Undecided
  | Some None -> Undecided (* a decision it cannot authenticate: never guess *)
  | _ when List.for_all (fun s -> Option.is_some (view s)) parts -> Aborted
  | _ -> Undecided

(* Decide the fate of [(txid, parts)] from the durable records on the
   reachable shards, then settle it; callers resolve only txids whose
   coordinator has returned. *)
let resolve c ~tid ~view (txid, parts) =
  let prepared s =
    match
      Option.map decode_prep
        (Option.bind (view s) (fun db -> Kv.Redodb.get db ~tid (prep_key txid)))
    with
    | Some (Some (_, ps, ops)) when ps = parts -> Some (s, ops)
    | _ -> None
  in
  settle c ~tid ~view ~by:Recovery txid parts
    (fate_of c ~tid ~view (txid, parts))
    (List.filter_map prepared parts)

(* Fold one shard's commit records into [txns] (the set of
   [(txid, participants)]).  Returns the shard's txid and epoch
   high-water marks and the records that fail their digest. *)
let scan db ~tid txns =
  let num v = Option.value (int_of_string_opt v) ~default:0 in
  Kv.Redodb.fold db ~tid ~init:(0, 0, []) (fun (mt, me, bad) k v ->
      if k = epoch_hwm_key then (mt, max me (num v), bad)
      else if k = txid_hwm_key then (max mt (num v), me, bad)
      else if String.starts_with ~prefix:prep_prefix k then
        match decode_prep v with
        | Some (txid, parts, _) when k = prep_key txid ->
            Hashtbl.replace txns (txid, parts) ();
            (max mt txid, me, bad)
        | _ -> (mt, me, Printf.sprintf "corrupt prepare record %S" k :: bad)
      else if String.starts_with ~prefix:dec_prefix k then
        match decode_decision v with
        | Some (txid, epoch, parts) when k = dec_key txid ->
            Hashtbl.replace txns (txid, parts) ();
            (max mt txid, max me epoch, bad)
        | _ -> (mt, me, Printf.sprintf "corrupt decision record %S" k :: bad)
      else (mt, me, bad))

(* Crash recovery, from the durable records alone (any prepare record
   names all participants): settle every transaction found on a
   reachable shard.  A record that fails its digest is corruption the
   media-fault layer missed: recovery refuses to guess and the engine
   stays down.  The volatile state (txid/epoch sources, decided/applied,
   registry, live set, queued forgets) is rebuilt from the high-water
   marks first — no coordinator survives a crash, and the decision
   records whose forgets were still queued are forgotten here. *)
let recover c ~shards ~view =
  Obs.Trace.span Obs.Trace.Recovery ~tid:0 @@ fun () ->
  let txns = Hashtbl.create 16 in
  let mt = ref 0 and me = ref 0 and bad = ref [] in
  for s = 0 to shards - 1 do
    Option.iter
      (fun db ->
        let t, e, b = scan db ~tid:0 txns in
        mt := max !mt t;
        me := max !me e;
        bad := List.map (Printf.sprintf "shard %d: %s" s) b @ !bad)
      (view s)
  done;
  match !bad with
  | detail :: _ -> Error detail
  | [] ->
      A.set c.next_txid (!mt + 1);
      A.set c.epoch_src !me;
      A.set c.decided 0;
      A.set c.applied 0;
      Hashtbl.reset c.registry;
      Hashtbl.reset c.live;
      Hashtbl.reset c.forgets;
      Sched.Mutex.reset c.reg_lock;
      Array.fill c.window 0 (Array.length c.window) false;
      Hashtbl.iter (fun txn () -> resolve c ~tid:0 ~view txn) txns;
      Result.Ok ()

(* A rebuild settles every transaction with a prepare or a decision on
   the rebuilt shard's fresh instance [db] (which [view] maps in) before
   readmission, each once its coordinator has returned — a short wait, as
   a coordinator's submits to a rebuilding shard are refused.  So a
   decision written during the rebuild is rolled forward before the shard
   serves again, and no prepare that may yet be decided is rolled back.
   The txid source is lifted past txids recovery could not see. *)
let resolve_shard c ~tid ~view db =
  let txns = Hashtbl.create 16 in
  let mt, _, _ = scan db ~tid txns in
  let rec lift () =
    let n = A.get c.next_txid in
    if n <= mt && not (A.compare_and_set c.next_txid n (mt + 1)) then lift ()
  in
  lift ();
  Hashtbl.iter
    (fun ((txid, _) as txn) () ->
      let n = ref 0 in
      while locked c ~tid (fun () -> Hashtbl.mem c.live txid) do
        Park.pause !n;
        incr n
      done;
      resolve c ~tid ~view txn)
    txns

(* Drive one registered transaction to completion.  A confirmed entry is
   rolled forward.  An unconfirmed one is settled by the [fate_of] rule:
   its decision record present, roll forward; absent while the writer is
   still inside [two_phase], wait for it — one transaction of the
   writer's, which its stall-hazard window keeps from being frozen;
   absent once the writer is gone, the merged commit never landed, so
   claim it as aborted and leave its prepares to the writer, recovery or
   a rebuild.  The writer's liveness is read before the record, so a
   writer seen gone has already returned from its submit.  A record read
   on a coordinator instance dropped since is no evidence either way
   ([fate_of] answers Undecided), so the helper waits or claims as if it
   had found none. *)
let help_one c ~tid ~view txid =
  let rec go n =
    match
      locked c ~tid (fun () ->
          Option.map
            (fun p -> (p, p.p_confirmed, Hashtbl.mem c.live txid))
            (Hashtbl.find_opt c.registry txid))
    with
    | None -> ()
    | Some (p, confirmed, live) -> (
        let roll epoch = settle c ~tid ~view ~by:Helper txid p.p_parts (Decided epoch) p.p_slices in
        if confirmed then roll p.p_epoch
        else
          match fate_of c ~tid ~view (txid, p.p_parts) with
          | Decided epoch -> roll epoch
          | Aborted | Undecided when live ->
              Park.pause n;
              go (n + 1)
          | Aborted | Undecided -> ignore (claim c ~tid txid))
  in
  go 0

(* Readers help every published decided commit to completion before
   taking their snapshots — the lock-free-style helping that keeps
   snapshot reads from blocking on (or being blocked by) writers. *)
let help c ~tid ~view =
  let pend =
    locked c ~tid (fun () -> Hashtbl.fold (fun txid _ acc -> txid :: acc) c.registry [])
  in
  List.iter (help_one c ~tid ~view) (List.sort compare pend)

(* A multi-shard read is consistent iff no cross-shard commit was in
   flight across it: every decided transaction was fully applied before
   the first per-shard snapshot (applied = decided) and no new decision
   landed before the last one (decided unchanged).  A transaction counts
   as decided before its coordinator's slice can become visible, so a
   read that overlaps that commit retries.  Readers help pending commits
   forward rather than waiting them out, so writers never block readers
   beyond one merged commit; a reader retries only if a commit decided
   DURING its snapshots.  (Optimistic, not wait-free: under a sustained
   stream of overlapping cross-shard commits a reader can retry
   repeatedly.) *)
let snapshot_read c ~tid ~view f =
  if has c No_read_validation then f ()
  else begin
    let rec loop n =
      help c ~tid ~view;
      let d0 = A.get c.decided in
      if A.get c.applied <> d0 then begin
        Obs.Metrics.incr c.c_retry ~tid;
        Park.pause n;
        loop (n + 1)
      end
      else begin
        let r = f () in
        if A.get c.decided <> d0 then begin
          Obs.Metrics.incr c.c_retry ~tid;
          Park.pause n;
          loop (n + 1)
        end
        else r
      end
    in
    loop 0
  end

let two_phase c ~tid ~rid ~tok ~deadline ~view ~submit slices =
  let parts = List.map fst slices in
  let coord, coord_ops = List.hd slices and others = List.tl slices in
  (* mutant: the pre-commit-layer behavior — each other participant's
     slice commits on its own in place of its prepare record, shards in
     index order, so a crash between them durably applies a part of the
     write set. *)
  let skip_2pc = has c Skip_2pc in
  let txid = A.fetch_and_add c.next_txid 1 in
  locked c ~tid (fun () -> Hashtbl.replace c.live txid ());
  Fun.protect ~finally:(fun () -> locked c ~tid (fun () -> Hashtbl.remove c.live txid))
  @@ fun () ->
  Obs.Trace.span Obs.Trace.Commit ~tid ~arg:txid ~rid @@ fun () ->
  let abort () = settle c ~tid ~view ~by:(Writer rid) txid parts Aborted others in
  (* PREPARE: stage each other participant's slice, shards in index
     order; the coordinator's slice waits for the decision.  The request
     deadline covers the prepares only — once every prepare is durably
     staged the transaction crosses into decide, where shedding would
     leave work recovery must redo for no latency win. *)
  let rec prepare k on = function
    | [] -> Result.Ok on
    | (s, ops) :: rest -> (
        let record = encode_prep ~txid ~participants:parts ~ops in
        (* the instance the prepare is meant for, taken before the submit
           so that a swap during it cannot go unseen *)
        let db = view s in
        match
          stage c.h_prep Obs.Trace.Prepare ~tid ~arg:s ~rid @@ fun () ->
          submit ~deadline s (if skip_2pc then ops else [ (prep_key txid, Some record) ])
        with
        | Result.Ok () ->
            Obs.Metrics.incr c.c_prep ~tid;
            maybe_crash c (Prepare k);
            prepare (k + 1) ((s, db) :: on) rest
        | Error e ->
            abort ();
            Error (`Refused e))
  in
  match prepare 1 [] others with
  | Error _ as e -> e
  | Result.Ok prepared_on -> (
      match List.find_opt (moved ~view) prepared_on with
      | Some (down, _) ->
          (* A participant was quarantined between its prepare and the
             decision, or rebuilt under it: a prepare that entered the
             old instance's batcher may have committed there after the
             rebuild read its journal, so the fresh instance lacks it
             and a decided apply would find no guard.  No decision
             record exists, so this is a definite abort: roll the
             reachable prepares back and refuse.  Nothing durable
             commits on any shard — the mid-2PC-quarantine test's
             no-prefix-commit oracle. *)
          abort ();
          Error (`Shard_down down)
      | None -> (
          (* DECIDE: one transaction on the coordinator commits its own
             slice, the decision record and the token's outcome record —
             the commit point, the coordinator's apply and the
             exactly-once evidence at once — plus the deletes of earlier
             decisions it coordinated.  The slice is visible the moment
             it commits, so the transaction is registered and counted
             decided first: a snapshot overlapping the commit retries,
             and helpers settle it by the durable record.  The window
             flag marks this thread stall-hazardous until the entry is
             confirmed or withdrawn, which bounds a helper's wait on it.
             A retried 2PC attempt uses a fresh txid, so a duplicated
             commit leaves a second outcome record under the same token
             prefix (what the no-dedup-on-retry mutant must produce). *)
          c.window.(tid) <- true;
          Fun.protect ~finally:(fun () -> c.window.(tid) <- false) @@ fun () ->
          let epoch = 1 + A.fetch_and_add c.epoch_src 1 in
          let entry =
            { p_epoch = epoch; p_parts = parts; p_slices = others; p_confirmed = false }
          in
          let forgets =
            locked c ~tid (fun () ->
                Hashtbl.replace c.registry txid entry;
                A.incr c.decided;
                let f = Option.value (Hashtbl.find_opt c.forgets coord) ~default:[] in
                Hashtbl.remove c.forgets coord;
                f)
          in
          let dec_ops =
            coord_ops
            @ (if tok > 0 then [ outcome_op ~tok ~txid ~epoch ] else [])
            @ ((dec_key txid, Some (encode_decision ~txid ~epoch ~participants:parts))
              :: List.map (fun k -> (k, None)) forgets)
          in
          (* as for the prepares: a swap during the submit must not go
             unseen *)
          let db = view coord in
          let withdraw () =
            ignore (claim c ~tid txid);
            c.window.(tid) <- false
          in
          match
            stage c.h_dec Obs.Trace.Decide ~tid ~arg:coord ~rid @@ fun () ->
            submit ~deadline:0. coord dec_ops
          with
          | Error e ->
              (* a rejected submit was never committed: definite abort *)
              queue_forgets c ~tid coord forgets;
              withdraw ();
              abort ();
              Error (`Refused e)
          | exception (Injected_crash _ as ex) -> raise ex
          | exception _ ->
              (* unknown decide outcome after durable prepares: the one
                 case the engine cannot resolve itself — surface the
                 txid so the client can reason about the replay after
                 recovery.  Helpers settle the entry by the record once
                 this writer is gone. *)
              queue_forgets c ~tid coord forgets;
              Error (`In_doubt txid)
          | Result.Ok () -> (
              Obs.Metrics.incr c.c_dec ~tid;
              maybe_crash c Decide;
              (* A coordinator quarantined or rebuilt under the submit
                 may have taken the commit down with the dropped
                 instance: the answer is what the current view holds. *)
              match
                if moved ~view (coord, db) then fate_of c ~tid ~view (txid, parts)
                else Decided epoch
              with
              | Decided epoch ->
                  locked c ~tid (fun () -> entry.p_confirmed <- true);
                  (* confirmed: freezing this thread is harmless again *)
                  c.window.(tid) <- false;
                  if not (has c No_rollforward) then
                    settle c ~tid ~view ~by:(Writer rid) txid parts (Decided epoch)
                      others;
                  Result.Ok { txid; epoch }
              | Aborted ->
                  (* the forgets went down with the dropped instance *)
                  queue_forgets c ~tid coord forgets;
                  withdraw ();
                  abort ();
                  Error (`Shard_down coord)
              | Undecided ->
                  (* the coordinator is behind quarantine: its rebuild
                     settles the transaction by whatever record it
                     restores *)
                  queue_forgets c ~tid coord forgets;
                  withdraw ();
                  Error (`In_doubt txid))))
