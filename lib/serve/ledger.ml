(* The exactly-once outcome ledger (see ledger.mli). *)

type tx_status =
  | Tx_committed of { txid : int; epoch : int; records : int }
  | Tx_aborted
  | Tx_unknown

type t = {
  mutants : Commit.mutant list ref;
  lock : Sched.Mutex.t;  (* guards [active] *)
  active : (int, unit) Hashtbl.t;
      (* client tokens with a write in flight: a concurrent TXSTAT
         answers UNKNOWN for them instead of the presumed-abort a missing
         outcome record would imply *)
  c_dedup : Obs.Metrics.counter;  (* tokened retries answered from the ledger *)
  c_txstat : Obs.Metrics.counter;
}

let create ~mutants =
  {
    mutants;
    lock = Sched.Mutex.create ();
    active = Hashtbl.create 16;
    c_dedup = Obs.Metrics.counter "serve.retry.dedup_hits";
    c_txstat = Obs.Metrics.counter "serve.txstat.queries";
  }

(* How many outcome records this token left behind, across all shards: a
   committed write leaves exactly one; a second record under the same
   token is durable proof of a duplicated (non-exactly-once) commit.
   Latest txid/epoch wins for the reported ack. *)
let records ~tid ~dbs tok =
  let prefix = Commit.outcome_prefix tok in
  let n = ref 0 and best = ref None in
  Array.iter
    (fun db ->
      let c = Kv.Redodb.seek db ~tid prefix in
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
      walk ())
    dbs;
  (!n, !best)

let locked l ~tid f =
  Sched.Mutex.lock l.lock ~tid;
  Fun.protect ~finally:(fun () -> Sched.Mutex.unlock l.lock ~tid) f

let with_active l ~tid toks f =
  let toks = List.filter (fun tok -> tok > 0) toks in
  let mark on =
    if toks <> [] then
      locked l ~tid (fun () ->
          List.iter
            (fun tok ->
              if on then Hashtbl.replace l.active tok () else Hashtbl.remove l.active tok)
            toks)
  in
  mark true;
  Fun.protect ~finally:(fun () -> mark false) f

(* A tokened retry whose first attempt already committed is answered
   from the ledger without re-running anything.  Single-shard tokened
   writes record outcome txid 0 — retries overwrite the same ledger key,
   so the record count stays 1 by construction and the dedup check is
   purely an optimisation there; for cross-shard 2PC (fresh txid per
   attempt) it is what keeps retries exactly-once. *)
let dedup l ~tid ~dbs tok =
  if tok <= 0 || List.mem Commit.No_dedup !(l.mutants) then None
  else
    match records ~tid ~dbs tok with
    | 0, _ | _, None -> None
    | _, Some (txid, epoch) ->
        Obs.Metrics.incr l.c_dedup ~tid;
        Some { Commit.txid; epoch }

(* The same answer for a single-key write (PUT, DEL), without the scan:
   its only possible record is the txid-0 one that rode in its own
   batch, on its key's shard [db]. *)
let dedup_key l ~tid ~db tok =
  if tok <= 0 || List.mem Commit.No_dedup !(l.mutants) then None
  else
    let key = Commit.outcome_key ~tok ~txid:0 in
    match Option.bind (Kv.Redodb.get db ~tid key) Commit.decode_outcome with
    | None -> None
    | Some (txid, epoch) ->
        Obs.Metrics.incr l.c_dedup ~tid;
        Some { Commit.txid; epoch }

(* Read the ledger first, and only then consult the volatile active set
   (presumed abort: see ledger.mli). *)
let status l ~tid ~dbs tok =
  Obs.Metrics.incr l.c_txstat ~tid;
  match records ~tid ~dbs tok with
  | 0, _ ->
      if locked l ~tid (fun () -> Hashtbl.mem l.active tok) then Tx_unknown
      else Tx_aborted
  | n, best ->
      let txid, epoch = Option.value best ~default:(0, 0) in
      Tx_committed { txid; epoch; records = n }

let stall_hazard l ~tid = Sched.Mutex.holder l.lock = Some tid

let reset l =
  Hashtbl.reset l.active;
  Sched.Mutex.reset l.lock
