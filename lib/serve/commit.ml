(* Cross-shard atomic commit (contract and record formats in
   commit.mli). *)

(* ---- key schema ---- *)

let user_key k = "u" ^ k
let user_of_internal k = String.sub k 1 (String.length k - 1)

(* The commit records live in two rings of slot keys per shard, one for
   prepare records and one for decisions.  Transaction [txid] uses slot
   [txid mod K] of each (see [create] for K); a slot is never deleted,
   only rewritten. *)
let prep_prefix = "m!p!"
let dec_prefix = "m!d!"
let prep_key slot = Printf.sprintf "%s%010d" prep_prefix slot
let dec_key slot = Printf.sprintf "%s%010d" dec_prefix slot

(* Outcome ledger for exactly-once client retries: a write carrying a
   client token leaves an OUTCOME record ("m!o!<token>!<txid>") on its
   coordinator shard, committed in the SAME transaction as the data (the
   decision batch for cross-shard, the write batch itself for
   single-shard) — so "the write is durable" and "its outcome is
   recorded" are one atomic event.  A retried token dedups against the
   ledger; TXSTAT answers from it after a crash.  Unlike prepare and
   decision records, outcomes are never overwritten: they are the only
   durable proof the transaction happened once a later txid has reused
   its slots.  Two records under one token = a duplicated commit — exactly
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

type ops = (string * string option) list

(* A slot record, prepare or decision alike: a one-word state flag,
   then the digest-framed body — epoch and txid as one little-endian
   word each, the participant shards, and the write set (this shard's
   slice for a prepare, empty for a decision).  The flag sits outside
   the digest and every number at a fixed offset, so settling a record
   (live to idle) rewrites only the flag word, plus the digest and epoch
   words when an apply records its commit epoch, and a later txid
   reusing the slot changes the header words and its write set's
   values. *)
type record = { live : bool; txid : int; epoch : int; parts : int list; ops : ops }

let live_flag = "live!!!!"
let idle_flag = "idle!!!!"

let encode r =
  let b = Buffer.create 128 in
  Buffer.add_int64_le b (Int64.of_int r.epoch);
  Buffer.add_int64_le b (Int64.of_int r.txid);
  add_int b (List.length r.parts);
  List.iter (add_int b) r.parts;
  add_int b (List.length r.ops);
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
    r.ops;
  (if r.live then live_flag else idle_flag) ^ frame (Buffer.contents b)

let take_word cur =
  if cur.pos + 8 > String.length cur.s then raise Bad_record;
  let n = Int64.to_int (String.get_int64_le cur.s cur.pos) in
  cur.pos <- cur.pos + 8;
  if n < 0 then raise Bad_record;
  n

let decode_record s =
  let flag = if String.length s < 8 then "" else String.sub s 0 8 in
  if flag <> live_flag && flag <> idle_flag then None
  else
    decode (String.sub s 8 (String.length s - 8)) (fun cur ->
        let epoch = take_word cur in
        let txid = take_word cur in
        let parts = take_ints cur in
        let ops =
          List.init (take_int cur) (fun _ ->
              match take_char cur with
              | 'P' ->
                  let k = take_str cur in
                  (k, Some (take_str cur))
              | 'D' -> (take_str cur, None)
              | _ -> raise Bad_record)
        in
        { live = flag = live_flag; txid; epoch; parts; ops })

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
   [Forget] after the decision record's idle rewrite was queued for the
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
  | Slot_reuse

let mutant_table =
  [
    (Skip_2pc, "skip-2pc");
    (No_rollforward, "no-rollforward");
    (No_read_validation, "no-read-validation");
    (No_dedup, "no-dedup-on-retry");
    (Ack_early, "ack-before-commit");
    (No_scrub_verify, "no-scrub-verify");
    (Serve_while_rebuilding, "serve-while-rebuilding");
    (Slot_reuse, "slot-reuse");
  ]

let mutant_names = List.map snd mutant_table
let pp_mutant m = List.assoc m mutant_table
let parse_mutant s = List.find_map (fun (m, n) -> if n = s then Some m else None) mutant_table

(* ---- the coordinator ---- *)

module A = Sched.Atomic

type ack = { txid : int; epoch : int }

(* One cross-shard transaction: its txid, its participants (shards
   ascending, the coordinator first) and the slot of each ring its
   records use.  The slot is [txid mod K] for a transaction this
   process started; one found on a shard keeps the slot it was found
   in. *)
type txn = { txid : int; parts : int list; slot : int }

(* A decision's idle rewrite (its forget): queued for the coordinator's
   next decision, or riding one not yet answered. *)
type forget = No_forget | Queued of (string * string option) | Riding

(* One transaction's claim on its slot: the one record of what may still
   write that transaction's slots, guarded by the claim lock.

   [decided] publishes a transaction counted as decided so that any
   reader can drive it to completion.  It is set BEFORE the merged
   commit is submitted (that commit makes the coordinator's slice
   visible), so [confirmed] says whether the writer has seen the
   decision commit; a helper settles an unconfirmed one by the durable
   decision record instead (see [help_one]). *)
type claim = {
  txn : txn;
  mutable writing : bool;  (* its writer is inside [two_phase] *)
  mutable decided : (record * (int * record) list) option;
      (* not yet completed: the decision record its merged commit
         writes, and the prepared participants' live prepare records *)
  mutable confirmed : bool;
  mutable settled : bool;  (* no record of it left that an apply or a forget needs *)
  mutable forget : forget;
}

type t = {
  mutants : mutant list ref;
  mutable crash_after : phase option;
  slots : int;  (* K, the length of each ring *)
  next_txid : int A.t;
  epoch_src : int A.t;  (* last granted commit epoch; gaps are harmless *)
  decided : int A.t;  (* cross-shard txns registered as decided *)
  applied : int A.t;  (* of those, completed *)
  lock : Sched.Mutex.t;  (* guards [claims] and every claim in it *)
  claims : claim list array;  (* per slot (mod K), the claims on it *)
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

(* K = 2 x shards x num_threads.  A slot is held by at most one commit
   in flight per thread, plus, per coordinator shard, the completed
   commits whose forgets wait for its next decision — at most those in
   flight at its last decision — so the txid source always finds a free
   slot within one turn of the ring. *)
let create ~shards ~num_threads ~mutants =
  let slots = 2 * shards * num_threads in
  {
    mutants;
    crash_after = None;
    slots;
    next_txid = A.make 1;
    epoch_src = A.make 0;
    decided = A.make 0;
    applied = A.make 0;
    lock = Sched.Mutex.create ();
    claims = Array.make slots [];
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
      ("pending_commits", Int (A.get c.decided - A.get c.applied));
    ]

let stall_hazard c ~tid =
  (tid >= 0 && tid < Array.length c.window && c.window.(tid))
  || Sched.Mutex.holder c.lock = Some tid

(* [f ()] under the claim lock; [f] never raises. *)
let locked c ~tid f =
  Sched.Mutex.lock c.lock ~tid;
  let r = f () in
  Sched.Mutex.unlock c.lock ~tid;
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

(* ---- slot claims ----

   A transaction claims its slot from the moment its txid is drawn until
   nothing can still write its records: its writer has left
   [two_phase], it is no longer published as decided, it is settled and
   no forget of it is queued or riding a decision.  Only then does
   [release] drop the claim, and a later txid may overwrite the slot.
   All of these run under the claim lock. *)

let find c (txn : txn) = List.find_opt (fun cl -> cl.txn = txn) c.claims.(txn.slot mod c.slots)
let fold_claims c f init = Array.fold_left (List.fold_left f) init c.claims

let release c cl =
  if (not cl.writing) && cl.decided = None && cl.settled && cl.forget = No_forget then
    let i = cl.txn.slot mod c.slots in
    c.claims.(i) <- List.filter (( != ) cl) c.claims.(i)

let add c txn ~writing =
  let cl = { txn; writing; decided = None; confirmed = false; settled = false; forget = No_forget } in
  let i = txn.slot mod c.slots in
  c.claims.(i) <- cl :: c.claims.(i);
  cl

(* Record whether [txn] is settled: a settled claim may be released; an
   unsettled transaction that recovery or a rebuild found keeps its
   slot. *)
let mark c txn ~settled =
  match (find c txn, settled) with
  | Some cl, true ->
      cl.settled <- true;
      release c cl
  | None, false -> ignore (add c txn ~writing:false)
  | _ -> ()

(* Draw a txid for a commit over [parts] and claim its slot: the next
   txid from the source whose slot nobody claims (the Slot_reuse mutant
   takes the next txid whatever claims its slot).  Should every slot be
   claimed, wait for a release. *)
let draw c ~tid parts =
  let rec go n =
    let found =
      locked c ~tid (fun () ->
          let rec next i =
            if i = c.slots then None
            else
              let txid = A.fetch_and_add c.next_txid 1 in
              let slot = txid mod c.slots in
              if c.claims.(slot) = [] || has c Slot_reuse then
                Some (add c { txid; parts; slot } ~writing:true)
              else next (i + 1)
          in
          next 0)
    in
    match found with
    | Some cl -> cl
    | None ->
        Park.pause n;
        go (n + 1)
  in
  go 0

(* ---- the resolver ---- *)

(* The reachable shards: [view s] is the instance to use for shard [s],
   or [None] while it is behind quarantine.  During a rebuild the view
   maps the rebuilt shard to its fresh instance. *)
type view = int -> Kv.Redodb.t option

(* [Decided d]: the coordinator's slot holds [d], this transaction's
   decision record, live or already idle. *)
type fate = Decided of record | Aborted | Undecided

(* Who settles: the committing writer (crash points armed, rid-linked
   spans), a helping reader, or crash recovery / a rebuild. *)
type by = Writer of int | Helper | Recovery

(* The completion point of a live commit: exactly one of the racing
   completers (writer, helping readers) finds [txn] published as
   decided, withdraws it and counts it applied.  That one queues
   [forget], the idle rewrite of its decision, for the coordinator's
   next decision.  [settle] marks the transaction settled: a helper that
   finds it aborted. *)
let complete ?(settle = false) ?forget c ~tid txn =
  locked c ~tid @@ fun () ->
  match find c txn with
  | None -> false
  | Some cl ->
      let mine = cl.decided <> None in
      if mine then begin
        cl.decided <- None;
        A.incr c.applied;
        Option.iter (fun op -> cl.forget <- Queued op) forget
      end;
      if settle then cl.settled <- true;
      release c cl;
      mine

(* Under the claim lock: the forgets queued for shard [coord], now
   riding its decision. *)
let board c coord =
  fold_claims c
    (fun acc cl ->
      match cl.forget with
      | Queued op when List.hd cl.txn.parts = coord ->
          cl.forget <- Riding;
          (cl, op) :: acc
      | _ -> acc)
    []

(* The decision that [riding] rode committed ([ok]: those decisions are
   idle) or did not (they queue again). *)
let landed c ~tid riding ~ok =
  if riding <> [] then
    locked c ~tid @@ fun () ->
    List.iter
      (fun (cl, op) ->
        if ok then begin
          cl.forget <- No_forget;
          cl.settled <- true;
          release c cl
        end
        else cl.forget <- Queued op)
      riding

(* Settle a live record in [key] on [db]: in one transaction, iff the
   slot still holds [r], apply [ops] and rewrite the record idle. *)
let guarded db ~tid key r ~idle ops =
  Kv.Redodb.apply_guarded db ~tid ~guard:(key, encode r) ~settled:(encode idle) ops

(* THE rule for one transaction over the shards reachable in [view];
   every path that finishes a cross-shard transaction ends here.
   [preps] are the participants' live prepare records (a missing one is
   already settled; the coordinator never has one).  [view] is asked
   again at each step, never remembered: a shard may be quarantined and
   rebuilt while a settle runs, and an apply that landed on the replaced
   instance is lost with it.

   - Decided: a guarded apply on every reachable participant — it
     commits the slice and rewrites the prepare idle, with the commit
     epoch, iff the slot still holds the live prepare, so racing
     settlers (writer, helpers, recovery, a rebuild) are harmless:
     exactly one commits per shard.  The decision record is forgotten
     (rewritten idle) only if every participant is reachable after the
     applies: a shard quarantined before then may have lost its apply,
     and its rebuild must roll the prepare forward from this very
     record.  A live commit queues the forget for the coordinator's next
     decision; recovery and a rebuild forget at once.
   - Aborted: rewrite every reachable live prepare idle.
   - Undecided: leave every prepare in doubt.

   Returns, for recovery, whether the transaction is settled: no record
   of it is left live on any participant. *)
let settle c ~tid ~view ~by (txn : txn) fate preps =
  match fate with
  | Undecided -> false
  | Aborted ->
      (* straight to the PTM, not through the batcher: an abort must also
         work while the batcher is rejecting during a crash start *)
      let dbs = List.filter_map (fun (s, r) -> Option.map (fun db -> (db, r)) (view s)) preps in
      List.iter
        (fun (db, r) -> ignore (guarded db ~tid (prep_key txn.slot) r ~idle:{ r with live = false } []))
        dbs;
      if dbs <> [] then Obs.Metrics.incr c.c_rollb ~tid;
      true
  | Decided d ->
      List.iteri
        (fun i (s, r) ->
          Option.iter
            (fun db ->
              let apply () =
                guarded db ~tid (prep_key txn.slot) r
                  ~idle:{ r with live = false; epoch = d.epoch }
                  r.ops
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
        preps;
      let idle = { d with live = false } in
      let reachable = List.for_all (fun s -> Option.is_some (view s)) txn.parts in
      match (by, view (List.hd txn.parts)) with
      | Recovery, Some db when reachable ->
          ignore (guarded db ~tid (dec_key txn.slot) { d with live = true } ~idle []);
          true
      | Recovery, _ -> false
      | (Writer _ | Helper), _ ->
          let forget = if reachable then Some (dec_key txn.slot, Some (encode idle)) else None in
          if complete c ~tid ?forget txn && reachable && by <> Helper then maybe_crash c Forget;
          true

(* Instance [db], taken from [view s] earlier, no longer serves shard
   [s] (quarantined or rebuilt since), or never did ([None]). *)
let moved ~view (s, db) =
  match (view s, db) with Some now, Some was -> now != was | _ -> true

(* The fate of [txn] by the coordinator's decision slot (the lowest
   participant holds the only decision).  The slot decides it only if it
   holds this transaction's record, live or idle: a slot holding another
   txid, or nothing, proves abort once every participant is reachable,
   provided the coordinator has returned — a decision is only ever
   written by its own transaction's writer, and a slot is reused only
   after its decision went idle, which happens once every participant
   applied.  A txid reused across a crash that hid a quarantined shard's
   records names a different participant list: its records never decide
   this transaction.  A read is trusted only if the instance it was made
   on still serves the coordinator afterwards: a commit that landed on an
   instance after its rebuild read the journal is lost with it, so what
   that instance says decides nothing. *)
let fate_of c ~tid ~view (txn : txn) =
  let coord = List.hd txn.parts in
  let db = view coord in
  let decision =
    if has c No_rollforward then None
    else Option.bind db (fun db -> Kv.Redodb.get db ~tid (dec_key txn.slot))
  in
  match Option.map decode_record decision with
  | _ when moved ~view (coord, db) -> Undecided
  | Some (Some d) when d.txid = txn.txid && d.parts = txn.parts -> Decided d
  | Some None -> Undecided (* a decision it cannot authenticate: never guess *)
  | _ when List.for_all (fun s -> Option.is_some (view s)) txn.parts -> Aborted
  | _ -> Undecided

(* Decide the fate of [txn] from the durable records on the reachable
   shards, then settle it; callers resolve only transactions whose
   coordinator has returned.  Returns whether it is settled. *)
let resolve c ~tid ~view (txn : txn) =
  let prepared s =
    match
      Option.map decode_record
        (Option.bind (view s) (fun db -> Kv.Redodb.get db ~tid (prep_key txn.slot)))
    with
    | Some (Some r) when r.live && r.txid = txn.txid && r.parts = txn.parts -> Some (s, r)
    | _ -> None
  in
  settle c ~tid ~view ~by:Recovery txn
    (fate_of c ~tid ~view txn)
    (List.filter_map prepared (List.tl txn.parts))

(* The earlier durable format kept one record per txid, unflagged (the
   digest frame alone), beside txid and epoch high-water keys.  Its
   records are not slots: read as slots, a store whose records were all
   forgotten would restart both sources at zero.  Such a store is
   refused by name, apart from corruption. *)
let old_hwm_keys = [ "m!he"; "m!ht" ]
let old_format v = Option.is_some (decode v (fun cur -> cur.pos <- String.length cur.s))

(* Fold one shard's slots: every transaction with a live record goes
   into [txns].  Returns the largest txid and epoch of any record, live
   or idle, and the keys that fail their digest or are in the earlier
   format. *)
let scan db ~tid txns =
  Kv.Redodb.fold db ~tid ~init:(0, 0, []) (fun ((mt, me, bad) as acc) k v ->
      let ring =
        if String.starts_with ~prefix:prep_prefix k then "prepare"
        else if String.starts_with ~prefix:dec_prefix k then "decision"
        else ""
      in
      let earlier () =
        Printf.sprintf "key %S is in the earlier per-txid commit-record format, not read here" k
      in
      if List.mem k old_hwm_keys then (mt, me, earlier () :: bad)
      else if ring = "" then acc
      else
        match (decode_record v, int_of_string_opt (String.sub k 4 (String.length k - 4))) with
        | Some r, Some slot ->
            if r.live then Hashtbl.replace txns { txid = r.txid; parts = r.parts; slot } ();
            (max mt r.txid, max me r.epoch, bad)
        | None, _ when old_format v -> (mt, me, earlier () :: bad)
        | _ -> (mt, me, Printf.sprintf "corrupt %s record %S" ring k :: bad))

(* Settle each of [txns], found by recovery or a rebuild, once its
   writer has returned; one left unsettled keeps its slot claimed. *)
let resolve_found c ~tid ~view txns =
  Hashtbl.iter
    (fun (txn : txn) () ->
      let writing () = Option.fold (find c txn) ~none:false ~some:(fun cl -> cl.writing) in
      let n = ref 0 in
      while locked c ~tid writing do
        Park.pause !n;
        incr n
      done;
      let ok = resolve c ~tid ~view txn in
      locked c ~tid (fun () -> mark c txn ~settled:ok))
    txns

(* Crash recovery, from the durable records alone (any prepare record
   names all participants): settle every transaction with a live record
   on a reachable shard.  A record that fails its digest is corruption
   the media-fault layer missed: recovery refuses to guess and the
   engine stays down.  The volatile state is rebuilt first — no
   coordinator survives a crash: the txid and epoch sources from the
   largest txid and epoch of any slot, live or idle (a slot is only
   ever overwritten by a later txid, and each acked epoch stays in its
   participants' prepare slots until a txid drawn after it overwrites
   them), and the slot claims from the transactions left unsettled. *)
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
      Array.fill c.claims 0 c.slots [];
      Sched.Mutex.reset c.lock;
      Array.fill c.window 0 (Array.length c.window) false;
      resolve_found c ~tid:0 ~view txns;
      Result.Ok ()

(* A rebuild settles every transaction with a live record on the
   rebuilt shard's fresh instance [db] (which [view] maps in) before
   readmission, each once its writer has returned — a short wait, as a
   writer's submits to a rebuilding shard are refused.  So a decision
   written during the rebuild is rolled forward before the shard serves
   again, and no prepare that may yet be decided is rolled back.  It
   also settles every unsettled transaction the shard takes part in,
   though no record of it is live there: one its coordinator left in
   doubt when its decision was lost with the dropped instance, whose
   live prepares sit on other shards; and a decided one whose decision
   could not be forgotten because this shard was unreachable after its
   apply (by the writer, or at recovery, where each coordinator's last
   decision is still live).  A transaction left unsettled holds its
   slot.  The txid and epoch sources are lifted past what recovery
   could not see. *)
let resolve_shard c ~tid ~view db =
  let txns = Hashtbl.create 16 in
  let mt, me, _ = scan db ~tid txns in
  let serves s = match view s with Some d -> d == db | None -> false in
  locked c ~tid (fun () ->
      fold_claims c
        (fun () cl ->
          if (not cl.settled) && List.exists serves cl.txn.parts then
            Hashtbl.replace txns cl.txn ())
        ());
  let rec lift src m =
    let n = A.get src in
    if n < m && not (A.compare_and_set src n m) then lift src m
  in
  lift c.next_txid (mt + 1);
  lift c.epoch_src me;
  resolve_found c ~tid ~view txns

(* Drive one registered transaction to completion.  A confirmed entry is
   rolled forward.  An unconfirmed one is settled by the [fate_of] rule:
   its decision record present, roll forward; absent while the writer is
   still inside [two_phase], wait for it — one transaction of the
   writer's, which its stall-hazard window keeps from being frozen;
   absent once the writer is gone, the merged commit never landed, so
   complete it as aborted and leave its prepares to be overwritten (no
   apply can match them).  The writer's liveness is read before the
   record, so a writer seen gone has already returned from its submit.
   A record read on a coordinator instance dropped since is no evidence
   either way ([fate_of] answers Undecided), so the helper waits or
   completes it, still holding its slot, for the coordinator's rebuild. *)
let help_one c ~tid ~view txn =
  let rec go n =
    match
      locked c ~tid (fun () ->
          Option.bind (find c txn) (fun cl ->
              Option.map (fun dp -> (dp, cl.confirmed, cl.writing)) cl.decided))
    with
    | None -> ()
    | Some ((dec, preps), confirmed, live) -> (
        let roll d = ignore (settle c ~tid ~view ~by:Helper txn (Decided d) preps) in
        if confirmed then roll dec
        else
          match fate_of c ~tid ~view txn with
          | Decided d -> roll d
          | Aborted | Undecided when live ->
              Park.pause n;
              go (n + 1)
          | Aborted -> ignore (complete ~settle:true c ~tid txn)
          | Undecided -> ignore (complete c ~tid txn))
  in
  go 0

(* Readers help every published decided commit to completion before
   taking their snapshots — the lock-free-style helping that keeps
   snapshot reads from blocking on (or being blocked by) writers. *)
let help c ~tid ~view =
  let pend =
    locked c ~tid (fun () ->
        fold_claims c (fun acc cl -> if cl.decided <> None then cl.txn :: acc else acc) [])
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
  let cl = draw c ~tid parts in
  let txn = cl.txn in
  let txid = txn.txid in
  Fun.protect ~finally:(fun () ->
      locked c ~tid (fun () ->
          cl.writing <- false;
          release c cl))
  @@ fun () ->
  Obs.Trace.span Obs.Trace.Commit ~tid ~arg:txid ~rid @@ fun () ->
  (* every epoch granted before this txid's slot was released is at most
     the source's value now: the prepares carry it until their applies
     record the commit epoch *)
  let floor = A.get c.epoch_src in
  let preps =
    List.map (fun (s, ops) -> (s, { live = true; txid; epoch = floor; parts; ops })) others
  in
  (* a definite abort: no decision of this txid is on the serving
     coordinator instance, so once the reachable prepares are idle the
     slot may be reused (an unreachable one is settled by its rebuild) *)
  let abort () =
    ignore (settle c ~tid ~view ~by:(Writer rid) txn Aborted preps);
    locked c ~tid (fun () -> mark c txn ~settled:true)
  in
  (* PREPARE: stage each other participant's slice, shards in index
     order; the coordinator's slice waits for the decision.  The request
     deadline covers the prepares only — once every prepare is durably
     staged the transaction crosses into decide, where shedding would
     leave work recovery must redo for no latency win. *)
  let rec prepare k on = function
    | [] -> Result.Ok on
    | (s, r) :: rest -> (
        (* the instance the prepare is meant for, taken before the submit
           so that a swap during it cannot go unseen *)
        let db = view s in
        match
          stage c.h_prep Obs.Trace.Prepare ~tid ~arg:s ~rid @@ fun () ->
          submit ~deadline s (if skip_2pc then r.ops else [ (prep_key txn.slot, Some (encode r)) ])
        with
        | Result.Ok () ->
            Obs.Metrics.incr c.c_prep ~tid;
            maybe_crash c (Prepare k);
            prepare (k + 1) ((s, db) :: on) rest
        | Error e ->
            abort ();
            Error (`Refused e))
  in
  match prepare 1 [] preps with
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
             exactly-once evidence at once — plus the idle rewrites of
             earlier decisions it coordinated.  The slice is visible the
             moment it commits, so the transaction is registered and
             counted decided first: a snapshot overlapping the commit
             retries, and helpers settle it by the durable record.  The
             window flag marks this thread stall-hazardous until the
             entry is confirmed or withdrawn, which bounds a helper's
             wait on it.  A retried 2PC attempt uses a fresh txid, so a
             duplicated commit leaves a second outcome record under the
             same token prefix (what the no-dedup-on-retry mutant must
             produce). *)
          c.window.(tid) <- true;
          Fun.protect ~finally:(fun () -> c.window.(tid) <- false) @@ fun () ->
          let epoch = 1 + A.fetch_and_add c.epoch_src 1 in
          let dec = { live = true; txid; epoch; parts; ops = [] } in
          let forgets =
            locked c ~tid (fun () ->
                cl.decided <- Some (dec, preps);
                A.incr c.decided;
                board c coord)
          in
          let dec_ops =
            coord_ops
            @ (if tok > 0 then [ outcome_op ~tok ~txid ~epoch ] else [])
            @ ((dec_key txn.slot, Some (encode dec)) :: List.map snd forgets)
          in
          (* as for the prepares: a swap during the submit must not go
             unseen *)
          let db = view coord in
          let withdraw () =
            ignore (complete c ~tid txn);
            c.window.(tid) <- false
          in
          match
            stage c.h_dec Obs.Trace.Decide ~tid ~arg:coord ~rid @@ fun () ->
            submit ~deadline:0. coord dec_ops
          with
          | Error e ->
              (* a rejected submit was never committed: definite abort *)
              landed c ~tid forgets ~ok:false;
              withdraw ();
              abort ();
              Error (`Refused e)
          | exception (Injected_crash _ as ex) -> raise ex
          | exception _ ->
              (* unknown decide outcome after durable prepares: the one
                 case the engine cannot resolve itself — surface the
                 txid so the client can reason about the replay after
                 recovery.  Helpers settle the entry by the record once
                 this writer is gone; it holds its slot meanwhile. *)
              landed c ~tid forgets ~ok:false;
              Error (`In_doubt txid)
          | Result.Ok () -> (
              Obs.Metrics.incr c.c_dec ~tid;
              (* A coordinator quarantined or rebuilt under the submit
                 may have taken the commit down with the dropped
                 instance: the answer is what the current view holds.
                 The forgets it carried committed iff the decision
                 did. *)
              let fate =
                if moved ~view (coord, db) then fate_of c ~tid ~view txn else Decided dec
              in
              landed c ~tid forgets ~ok:(match fate with Decided _ -> true | _ -> false);
              maybe_crash c Decide;
              match fate with
              | Decided d ->
                  locked c ~tid (fun () -> cl.confirmed <- true);
                  (* confirmed: freezing this thread is harmless again *)
                  c.window.(tid) <- false;
                  if not (has c No_rollforward) then
                    ignore (settle c ~tid ~view ~by:(Writer rid) txn (Decided d) preps);
                  Result.Ok ({ txid; epoch = d.epoch } : ack)
              | Aborted ->
                  withdraw ();
                  abort ();
                  Error (`Shard_down coord)
              | Undecided ->
                  (* the coordinator is behind quarantine: its rebuild
                     settles the transaction by whatever record it
                     restores, and the slot stays held until then *)
                  withdraw ();
                  Error (`In_doubt txid))))
