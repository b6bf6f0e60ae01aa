(** RedoDB (§6): "the first wait-free in-memory key-value store database",
    built from a resizable hash map annotated with RedoOpt-PTM transactional
    semantics.  Provides the LevelDB/RocksDB API surface used by db_bench
    and durable-linearizable (serializable) transactions with null recovery.

    Persistent layout (inside the PTM's logical region):
    - root slot 1 -> header [bucket_count; count; buckets_ptr]
    - bucket chain node: [hash; key_ptr; val_ptr; next]
    - string block: [byte_length; packed bytes...] (8 bytes per word)

    Read operations run on their own snapshot (a shared-locked Combined
    replica), which is what gives RedoDB its read-while-write advantage in
    Figure 7.

    Overwrite in place.  A put over an existing key whose new value needs
    the same allocator block size as the old one rewrites the old block
    instead of freeing it and allocating another: no allocator metadata,
    block header or chain-node store, and within the block only the
    words that change.  A store may be skipped only for a word inside
    the old string — its length word and its [(old_len + 7) / 8] packed
    words.  A committed transaction wrote those words, so every valid
    replica holds the same value there (it was copied or replayed), and
    the word's line is clean or already in that replica's dirty set.
    Words in the block's slack, beyond the old string, are unspecified:
    replicas may disagree on them (an allocated block is never read
    before it is written, see Palloc), so they are always stored.

    The skip lives here, not in [Redo_ptm.set], because only this layer
    knows which words a committed transaction wrote.  A PTM-level "store
    only if different" drops a store that equals the executing replica's
    stale word — e.g. a 0 written into fresh memory — from the redo log,
    so a lagging replica that replays the log keeps whatever it held
    there. *)

module P = Ptm.Redo_ptm.Opt

let name = "RedoDB"

(* One committed write transaction's effective operations, as recorded
   by the (optional) volatile commit journal: plain puts and deletes.
   Replaying a journal oldest-first onto an older snapshot of the same
   store is last-writer-wins idempotent, so a record present in both the
   snapshot and the journal is harmless — which is what lets the journal
   cut and the snapshot export be two separate steps (see
   [journal_cut]). *)
type journal_rec = (string * string option) list

type journal = {
  jlock : Sched.Mutex.t;  (* held across commit + append: journal order = commit order *)
  mutable recs : journal_rec list;  (* newest first *)
}

type t = { p : P.t; num_threads : int; mutable journal : journal option }

let slot = 1
let node_words = 4

(* ---- string (de)serialisation through transactional words ---- *)

let string_words len = 1 + ((len + 7) / 8)

(* The one definition of the packed-bytes format: word [w] of [s] holds
   bytes [8w .. 8w+7] little-endian, bytes past the end of [s] zero.
   Both the stored layout ([write_string]) and the in-place prefix
   compare ([seek]) go through it. *)
let pack_word s w =
  let off = w * 8 in
  let n = String.length s - off in
  if n >= 8 then String.get_int64_le s off
  else begin
    let v = ref 0L in
    for b = 0 to n - 1 do
      v := Int64.logor !v (Int64.shift_left (Int64.of_int (Char.code s.[off + b])) (8 * b))
    done;
    !v
  end

let write_string tx addr s =
  let len = String.length s in
  P.set tx addr (Int64.of_int len);
  for w = 0 to ((len + 7) / 8) - 1 do
    P.set tx (addr + 1 + w) (pack_word s w)
  done

let read_string tx addr =
  let len = Int64.to_int (P.get tx addr) in
  let buf = Bytes.create len in
  let nwords = (len + 7) / 8 in
  for w = 0 to nwords - 1 do
    let v = P.get tx (addr + 1 + w) in
    for b = 0 to 7 do
      let i = (w * 8) + b in
      if i < len then
        Bytes.set buf i
          (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * b)) 0xffL)))
    done
  done;
  Bytes.to_string buf

let alloc_string tx s =
  let a = P.alloc tx (string_words (String.length s)) in
  write_string tx a s;
  a

(* Overwrite the string at [addr] (of committed length [old_len]) with
   [s], which fits the same block: words inside the old string are
   stored only where they change, slack words always (see the header). *)
let rewrite_string tx addr ~old_len s =
  let store_if_changed a v = if not (Int64.equal (P.get tx a) v) then P.set tx a v in
  let len = String.length s in
  let old_words = (old_len + 7) / 8 in
  store_if_changed addr (Int64.of_int len);
  for w = 0 to ((len + 7) / 8) - 1 do
    let a = addr + 1 + w in
    if w < old_words then store_if_changed a (pack_word s w) else P.set tx a (pack_word s w)
  done

let hash_string s = Int64.of_int (Hashtbl.hash s land 0x3FFFFFFF)

(* ---- hash map plumbing ---- *)

let header tx = Int64.to_int (P.get tx (Palloc.root_addr slot))
let bucket_count tx h = Int64.to_int (P.get tx h)
let db_count tx h = Int64.to_int (P.get tx (h + 1))
let buckets tx h = Int64.to_int (P.get tx (h + 2))

(* region sizing: user data + power-of-two allocator slack + table *)
let region_words ~capacity_bytes = max (1 lsl 16) (capacity_bytes / 8 * 6)

let format_db p num_threads =
  ignore
    (P.update p ~tid:0 (fun tx ->
         let hdr = P.alloc tx 3 in
         let nb = 64 in
         let b = P.alloc tx nb in
         for i = 0 to nb - 1 do
           P.set tx (b + i) 0L
         done;
         P.set tx hdr (Int64.of_int nb);
         P.set tx (hdr + 1) 0L;
         P.set tx (hdr + 2) (Int64.of_int b);
         P.set tx (Palloc.root_addr slot) (Int64.of_int hdr);
         0L));
  { p; num_threads; journal = None }

let open_db ~num_threads ~capacity_bytes () =
  let words = region_words ~capacity_bytes in
  let p = P.create ~num_threads ~words () in
  format_db p num_threads

(* File-backed variants: the PTM's durable image is a MAP_SHARED region
   file, so the store survives a real [kill -9] and a fresh process can
   [reopen_backed] it — which skips the header format (the mapped image
   already holds one) and runs the PTM's recovery instead. *)
let open_backed ~num_threads ~capacity_bytes ~backing () =
  let words = region_words ~capacity_bytes in
  let p = P.create_backed ~num_threads ~words ~backing () in
  format_db p num_threads

let reopen_backed ~num_threads ~backing () =
  let p = P.reopen ~num_threads ~backing () in
  { p; num_threads; journal = None }

(* ---- commit journal (volatile, off by default) ----
   When enabled, every committed write transaction appends its effective
   operations, in commit order (the journal lock is held across the PTM
   commit and the append).  The serving layer uses it as the shard
   rebuild ledger: last-good snapshot + journal replay reconstructs the
   store including every ack issued since the snapshot. *)

let enable_journal t =
  match t.journal with
  | Some _ -> ()
  | None -> t.journal <- Some { jlock = Sched.Mutex.create (); recs = [] }

let journaling t = t.journal <> None

(* Run [f] (a single write transaction) and append [rec_of result] to
   the journal, atomically with respect to other journaled writers. *)
let journaled t ~tid rec_of f =
  match t.journal with
  | None -> f ()
  | Some j ->
      Sched.Mutex.lock j.jlock ~tid;
      Fun.protect ~finally:(fun () -> Sched.Mutex.unlock j.jlock ~tid)
      @@ fun () ->
      let r = f () in
      (match rec_of r with Some jr -> j.recs <- jr :: j.recs | None -> ());
      r

(* Records so far, oldest first (commit order). *)
let journal_records t ~tid =
  match t.journal with
  | None -> []
  | Some j ->
      Sched.Mutex.lock j.jlock ~tid;
      Fun.protect ~finally:(fun () -> Sched.Mutex.unlock j.jlock ~tid)
      @@ fun () -> List.rev j.recs

(* Drop the accumulated records.  Cut FIRST, export the snapshot SECOND:
   a transaction committing in between lands in both the fresh journal
   and the snapshot, which replay tolerates (last-writer-wins); the
   other order could lose it from both. *)
let journal_cut t ~tid =
  match t.journal with
  | None -> ()
  | Some j ->
      Sched.Mutex.lock j.jlock ~tid;
      Fun.protect ~finally:(fun () -> Sched.Mutex.unlock j.jlock ~tid)
      @@ fun () -> j.recs <- []

let bucket_of tx h key_hash =
  buckets tx h + (Int64.to_int key_hash mod bucket_count tx h)

(* Find the node for [key] in its chain: (prev, node) with 0 sentinels. *)
let locate tx h key key_hash =
  let b = bucket_of tx h key_hash in
  let rec go prev cur =
    if cur = 0 then (b, prev, 0)
    else if
      Int64.equal (P.get tx cur) key_hash
      && String.equal (read_string tx (Int64.to_int (P.get tx (cur + 1)))) key
    then (b, prev, cur)
    else go cur (Int64.to_int (P.get tx (cur + 3)))
  in
  go 0 (Int64.to_int (P.get tx b))

let resize tx h =
  let old_n = bucket_count tx h in
  let old_b = buckets tx h in
  let new_n = 2 * old_n in
  let new_b = P.alloc tx new_n in
  for i = 0 to new_n - 1 do
    P.set tx (new_b + i) 0L
  done;
  for i = 0 to old_n - 1 do
    let rec rehash cur =
      if cur <> 0 then begin
        let nxt = Int64.to_int (P.get tx (cur + 3)) in
        let dst = new_b + (Int64.to_int (P.get tx cur) mod new_n) in
        P.set tx (cur + 3) (P.get tx dst);
        P.set tx dst (Int64.of_int cur);
        rehash nxt
      end
    in
    rehash (Int64.to_int (P.get tx (old_b + i)))
  done;
  P.set tx (h + 2) (Int64.of_int new_b);
  P.set tx h (Int64.of_int new_n);
  P.dealloc tx old_b

let put_tx tx ~key ~value =
  let h = header tx in
  let kh = hash_string key in
  let b, _, node = locate tx h key kh in
  if node <> 0 then begin
    (* overwrite: in place if the value keeps its block size (a value
       block is always allocated for its stored length's class), else
       swap the block *)
    let va = Int64.to_int (P.get tx (node + 2)) in
    let old_len = Int64.to_int (P.get tx va) in
    let block len = Palloc.block_words (string_words len) in
    if block (String.length value) = block old_len then
      rewrite_string tx va ~old_len value
    else begin
      P.dealloc tx va;
      P.set tx (node + 2) (Int64.of_int (alloc_string tx value))
    end
  end
  else begin
    let n = P.alloc tx node_words in
    P.set tx n kh;
    P.set tx (n + 1) (Int64.of_int (alloc_string tx key));
    P.set tx (n + 2) (Int64.of_int (alloc_string tx value));
    P.set tx (n + 3) (P.get tx b);
    P.set tx b (Int64.of_int n);
    let cnt = db_count tx h + 1 in
    P.set tx (h + 1) (Int64.of_int cnt);
    if cnt > 2 * bucket_count tx h then resize tx h
  end

let delete_tx tx key =
  let h = header tx in
  let kh = hash_string key in
  let b, prev, node = locate tx h key kh in
  if node = 0 then false
  else begin
    let nxt = P.get tx (node + 3) in
    if prev = 0 then P.set tx b nxt else P.set tx (prev + 3) nxt;
    P.dealloc tx (Int64.to_int (P.get tx (node + 1)));
    P.dealloc tx (Int64.to_int (P.get tx (node + 2)));
    P.dealloc tx node;
    P.set tx (h + 1) (Int64.of_int (db_count tx h - 1));
    true
  end

(* Db_op trace spans tag the operation kind in [arg]:
   0 = put, 1 = get, 2 = delete, 3 = write_batch (arg = 3; batch length is
   visible from the nested Tx span), 4 = fold or seek. *)

let put t ~tid ~key ~value =
  Obs.Trace.span Obs.Trace.Db_op ~tid ~arg:0 @@ fun () ->
  journaled t ~tid
    (fun () -> Some [ (key, Some value) ])
    (fun () -> ignore (P.update t.p ~tid (fun tx -> put_tx tx ~key ~value; 0L)))

let delete t ~tid key =
  Obs.Trace.span Obs.Trace.Db_op ~tid ~arg:2 @@ fun () ->
  journaled t ~tid
    (fun _ -> Some [ (key, None) ])
    (fun () ->
      P.update t.p ~tid (fun tx -> if delete_tx tx key then 1L else 0L) = 1L)

let write_batch t ~tid ops =
  Obs.Trace.span Obs.Trace.Db_op ~tid ~arg:3 @@ fun () ->
  journaled t ~tid
    (fun () -> Some ops)
    (fun () ->
      ignore
        (P.update t.p ~tid (fun tx ->
             List.iter
               (fun (key, v) ->
                 match v with
                 | Some value -> put_tx tx ~key ~value
                 | None -> ignore (delete_tx tx key))
               ops;
             0L)))

(* Value lookup usable inside any transaction (update or read-only). *)
let lookup_tx tx key =
  let h = header tx in
  let _, _, node = locate tx h key (hash_string key) in
  if node = 0 then None
  else Some (read_string tx (Int64.to_int (P.get tx (node + 2))))

(* Guarded conditional batch: in ONE transaction, iff [key] holds
   exactly [live], apply [ops] and overwrite [key] with [settled].
   Returns whether the guard held (i.e. the batch applied).  The guard
   is what makes cross-shard roll-forward idempotent: of all racing
   appliers of a decided transaction (the committing writer, helping
   readers, recovery) exactly one commits the data — a second attempt
   finds the guard settled and leaves the shard untouched, so it can
   never revert keys that newer transactions have since overwritten.
   [settled] keeps [live]'s length in the commit layer's use, so the
   overwrite stores only the words that change. *)
let apply_guarded t ~tid ~guard:(key, live) ~settled ops =
  Obs.Trace.span Obs.Trace.Db_op ~tid ~arg:3 @@ fun () ->
  journaled t ~tid
    (fun applied ->
      (* Journal only an APPLIED batch — and include the guard's
         overwrite, so a replayed journal leaves the guard settled
         exactly like the original commit did. *)
      if applied then Some (ops @ [ (key, Some settled) ]) else None)
  @@ fun () ->
  P.update t.p ~tid (fun tx ->
      if lookup_tx tx key <> Some live then 0L
      else begin
        List.iter
          (fun (key, v) ->
            match v with
            | Some value -> put_tx tx ~key ~value
            | None -> ignore (delete_tx tx key))
          ops;
        put_tx tx ~key ~value:settled;
        1L
      end)
  = 1L

(* Reads decode the value inside the read-only transaction (consistent
   snapshot) and pass it out via a ref: results are int64-typed. *)
let get t ~tid key =
  Obs.Trace.span Obs.Trace.Db_op ~tid ~arg:1 @@ fun () ->
  let out = ref None in
  ignore
    (P.read_only t.p ~tid (fun tx ->
         let h = header tx in
         let kh = hash_string key in
         let _, _, node = locate tx h key kh in
         if node <> 0 then
           out := Some (read_string tx (Int64.to_int (P.get tx (node + 2))));
         0L));
  !out

(* All lookups share one read-only snapshot: one shared-lock acquisition
   per batch instead of one per key, which is what the serving layer's
   MGET fast path relies on. *)
let get_batch t ~tid keys =
  Obs.Trace.span Obs.Trace.Db_op ~tid ~arg:1 @@ fun () ->
  let out = ref [] in
  ignore
    (P.read_only t.p ~tid (fun tx ->
         let h = header tx in
         out :=
           List.rev_map
             (fun key ->
               let _, _, node = locate tx h key (hash_string key) in
               if node = 0 then None
               else Some (read_string tx (Int64.to_int (P.get tx (node + 2)))))
             keys;
         0L));
  List.rev !out

let fold t ~tid ~init f =
  Obs.Trace.span Obs.Trace.Db_op ~tid ~arg:4 @@ fun () ->
  let acc = ref init in
  ignore
    (P.read_only t.p ~tid (fun tx ->
         let h = header tx in
         let n = bucket_count tx h in
         let b = buckets tx h in
         for i = 0 to n - 1 do
           let rec chain cur =
             if cur <> 0 then begin
               let k = read_string tx (Int64.to_int (P.get tx (cur + 1))) in
               let v = read_string tx (Int64.to_int (P.get tx (cur + 2))) in
               acc := f !acc k v;
               chain (Int64.to_int (P.get tx (cur + 3)))
             end
           in
           chain (Int64.to_int (P.get tx (b + i)))
         done;
         0L));
  !acc

let count t ~tid =
  Int64.to_int (P.read_only t.p ~tid (fun tx -> Int64.of_int (db_count tx (header tx))))

let crash_and_recover t =
  let t0 = Unix.gettimeofday () in
  P.crash_and_recover t.p;
  (* Null recovery, but the first update transaction after restart pays for
     a replica copy; include one to measure what the paper measures
     (Figure 8 right: "time to recover and execute the first fillrandom
     transaction"). *)
  put t ~tid:0 ~key:"__recovery_probe__" ~value:"x";
  ignore (delete t ~tid:0 "__recovery_probe__");
  Unix.gettimeofday () -. t0

let crash_with_faults t ~seed ~evict_prob ~torn_prob ~bitflips =
  let t0 = Unix.gettimeofday () in
  match P.crash_with_faults t.p ~seed ~evict_prob ~torn_prob ~bitflips with
  | () ->
      put t ~tid:0 ~key:"__recovery_probe__" ~value:"x";
      ignore (delete t ~tid:0 "__recovery_probe__");
      Ok (Unix.gettimeofday () -. t0)
  | exception Ptm.Ptm_intf.Unrecoverable { detail; _ } -> Error detail

let stats t = P.stats t.p
let reset_stats t = Pmem.reset_stats (P.pmem t.p)
let set_flush_cost t iters = Pmem.set_flush_cost (P.pmem t.p) iters
let memory_usage t = (P.nvm_usage_words t.p, P.volatile_usage_words t.p)

let live_words t ~tid =
  Int64.to_int
    (P.read_only t.p ~tid (fun tx ->
         Int64.of_int (Palloc.live_words { Palloc.get = P.get tx; set = P.set tx })))

(* Replay a journal, oldest first, one transaction per record (the
   record boundaries are the original commit boundaries).  Bypasses the
   target's own journal deliberately: a rebuilt store takes a fresh
   snapshot export right after replay, so re-journaling the replayed
   history would only duplicate it. *)
let replay_journal t ~tid recs =
  List.iter
    (fun ops ->
      ignore
        (P.update t.p ~tid (fun tx ->
             List.iter
               (fun (key, v) ->
                 match v with
                 | Some value -> put_tx tx ~key ~value
                 | None -> ignore (delete_tx tx key))
               ops;
             0L)))
    recs

(* ---- relocatable region snapshots ----
   Wire format of a sealed snapshot:
     "RDBSNAP1" | n:u64le | n * u64le image | digest:u64le
   The image is the PTM's logical word image of the live extent, [n]
   words (region-relative pointers only — see {!Ptm.Redo_ptm}; the
   region's size is in its allocator header), so it restores into ANY
   fresh region: different base, different replica count, different
   backing file. *)

let snapshot_magic = "RDBSNAP1"

let export_snapshot t ~tid =
  let img = P.export_image t.p ~tid in
  let n = Array.length img in
  let b = Buffer.create (24 + (n * 8)) in
  Buffer.add_string b snapshot_magic;
  Buffer.add_int64_le b (Int64.of_int n);
  Array.iter (Buffer.add_int64_le b) img;
  Buffer.add_int64_le b (Pmem.Checksum.digest img);
  Buffer.contents b

let open_from_snapshot ?backing ~num_threads snap =
  let mlen = String.length snapshot_magic in
  if String.length snap < mlen + 16 then Error "snapshot: truncated header"
  else if not (String.equal (String.sub snap 0 mlen) snapshot_magic) then
    Error "snapshot: bad magic"
  else begin
    let n = Int64.to_int (String.get_int64_le snap mlen) in
    if n <= 0 || String.length snap <> mlen + 8 + (n * 8) + 8 then
      Error "snapshot: length does not match header"
    else begin
      let img = Array.init n (fun i -> String.get_int64_le snap (mlen + 8 + (i * 8))) in
      let digest = String.get_int64_le snap (mlen + 8 + (n * 8)) in
      if not (Int64.equal digest (Pmem.Checksum.digest img)) then
        Error "snapshot: digest mismatch"
      else
        match P.create_from_image ?backing ~num_threads ~image:img () with
        | p -> Result.Ok { p; num_threads; journal = None }
        | exception Invalid_argument d -> Error ("snapshot: " ^ d)
    end
  end

(* Online scrub hooks: non-destructive verification of the durable
   sealed PTM metadata, and silent (durable-image-only) corruption
   injection for the scrub/quarantine harnesses. *)
let verify_meta t = P.verify_meta t.p
let corrupt_durable_meta t ~seed ~count = P.corrupt_durable_meta t.p ~seed ~count

(* ---- cursors ----
   The hash map is unordered, so a cursor materialises the keys that
   start with its prefix, key-sorted, inside one read-only transaction
   (the same own-snapshot mechanism that powers readwhilewriting) and
   then walks them without further synchronization, like a LevelDB
   iterator pinned to a snapshot.

   The walk visits every node but decodes only matches: a node's key
   block is tested in place — its length word, then the ceil(|prefix|/8)
   packed words against the prefix packed by the same [pack_word], the
   last partial word masked to the prefix's bytes.  The length test is
   what keeps a key shorter than the prefix out when the prefix ends in
   '\000' bytes (which pack exactly like the zero padding). *)

type cursor = {
  entries : (string * string) array;
  mutable pos : int;
}

let seek t ~tid prefix =
  Obs.Trace.span Obs.Trace.Db_op ~tid ~arg:4 @@ fun () ->
  let plen = String.length prefix in
  let nw = (plen + 7) / 8 in
  let pw = Array.init nw (pack_word prefix) in
  let last_mask =
    if plen mod 8 = 0 then -1L else Int64.pred (Int64.shift_left 1L (8 * (plen mod 8)))
  in
  let matches tx ka =
    let rec words w =
      w = nw
      ||
      let v = P.get tx (ka + 1 + w) in
      let v = if w = nw - 1 then Int64.logand v last_mask else v in
      Int64.equal v pw.(w) && words (w + 1)
    in
    Int64.to_int (P.get tx ka) >= plen && words 0
  in
  let found = ref [] in
  ignore
    (P.read_only t.p ~tid (fun tx ->
         (* a read that falls back to an update may run more than once *)
         found := [];
         let h = header tx in
         let b = buckets tx h in
         for i = 0 to bucket_count tx h - 1 do
           let rec chain cur =
             if cur <> 0 then begin
               let ka = Int64.to_int (P.get tx (cur + 1)) in
               if matches tx ka then
                 found :=
                   (read_string tx ka, read_string tx (Int64.to_int (P.get tx (cur + 2))))
                   :: !found;
               chain (Int64.to_int (P.get tx (cur + 3)))
             end
           in
           chain (Int64.to_int (P.get tx (b + i)))
         done;
         0L));
  let entries = Array.of_list !found in
  Array.sort (fun (a, _) (b, _) -> String.compare a b) entries;
  { entries; pos = 0 }

let entry c =
  if c.pos < Array.length c.entries then Some c.entries.(c.pos) else None

let next c =
  if c.pos < Array.length c.entries then begin
    c.pos <- c.pos + 1;
    c.pos < Array.length c.entries
  end
  else false
