(* Poisoned replica tails.  CX and Redo copy a replica, and flush a whole
   replica, only up to the source's live extent (Curcomb.extent), so the
   words above it in the destination keep whatever they held before.
   Palloc's rule makes that safe: no client reads an allocated word
   before writing it.  These tests fill the tail of every replica except
   replica 0 (the one a fresh region formats) with a poison pattern, in
   both the volatile and the durable image, before the first transaction,
   and require every result to equal the unpoisoned run's: the crash-point
   sweeps (strict, torn lines, bit flips) over the list workload, and a
   RedoDB put/overwrite/delete/resize workload across crashes. *)

module CE = Ptm.Crash_explorer

let poison = 0x0BADF00D5EEDDEADL

(* Curcomb's layout: a 64-word metadata block, then [nrep] replicas of one
   stride each. *)
let meta_words = 64

let poison_tails pm ~nrep =
  let stride = (Pmem.size_words pm - meta_words) / nrep in
  for i = 1 to nrep - 1 do
    let lo = meta_words + (i * stride) + Palloc.heap_base in
    let hi = meta_words + ((i + 1) * stride) - 1 in
    for a = lo to hi do
      Pmem.set_word pm ~tid:0 a poison
    done;
    Pmem.pwb_range pm ~tid:0 lo hi
  done;
  Pmem.pfence pm ~tid:0

module type NREP = sig
  (** Replicas a region made for [num_threads] threads holds. *)
  val nrep : num_threads:int -> int
end

module Redo_nrep = struct
  let nrep ~num_threads = num_threads + 1
end

module Cx_nrep = struct
  let nrep ~num_threads = 2 * num_threads
end

(* The same construction with its replica tails poisoned at creation, before
   the sweep turns step counting on: the step streams of the two targets
   stay aligned. *)
module Poisoned (P : Ptm.Ptm_intf.S) (R : NREP) = struct
  include CE.Of_ptm (P)

  let create ~num_threads ~words =
    let t = create ~num_threads ~words in
    poison_tails (P.pmem t) ~nrep:(R.nrep ~num_threads);
    t
end

module Make (P : Ptm.Ptm_intf.S) (R : NREP) = struct
  module Clean = CE.Make (CE.Of_ptm (P))
  module Dirty = CE.Make (Poisoned (P) (R))

  let ops = CE.default_ops ~n:12 ~seed:42 ()

  let same what (clean : CE.report) (dirty : CE.report) =
    List.iter
      (fun (v : CE.violation) ->
        Printf.printf "POISONED VIOLATION [%s] step=%d: %s\n" dirty.ptm v.step
          v.detail)
      dirty.violations;
    Alcotest.(check int) (what ^ ": clean violations") 0
      (List.length clean.violations);
    Alcotest.(check int) (what ^ ": poisoned violations") 0
      (List.length dirty.violations);
    Alcotest.(check int) (what ^ ": steps") clean.total_steps dirty.total_steps;
    Alcotest.(check int) (what ^ ": crashes") clean.crashes_injected
      dirty.crashes_injected;
    Alcotest.(check int) (what ^ ": detected") clean.detected dirty.detected

  let test_strict () =
    same "strict" (Clean.sweep_all ~seed:42 ~ops ()) (Dirty.sweep_all ~seed:42 ~ops ())

  let test_torn () =
    same "torn"
      (Clean.sweep_all ~evict_prob:0.7 ~torn_prob:1.0 ~seed:42 ~ops ())
      (Dirty.sweep_all ~evict_prob:0.7 ~torn_prob:1.0 ~seed:42 ~ops ())

  let test_bitflips () =
    same "bit flips"
      (Clean.sweep_all ~bitflips:2 ~seed:42 ~ops ())
      (Dirty.sweep_all ~bitflips:2 ~seed:42 ~ops ())

  let suites =
    [
      ( "poisoned-tail[" ^ P.name ^ "]",
        [
          Alcotest.test_case "strict crash points" `Quick test_strict;
          Alcotest.test_case "torn-line crash points" `Quick test_torn;
          Alcotest.test_case "bit-flip crash points" `Quick test_bitflips;
        ] );
    ]
end

(* ---- RedoDB ------------------------------------------------------------

   The poisoned region is built without running a transaction on it: an
   empty store's snapshot formats replica 0 of a region file, a second
   mapping of that file poisons the other replicas' tails (durably), and
   reopening the file loads both images from it. *)

module Db = Kv.Redodb

let num_threads = 2

let open_store ~poisoned backing =
  let empty =
    Db.export_snapshot
      (Db.open_db ~num_threads ~capacity_bytes:(1 lsl 16) ())
      ~tid:0
  in
  (match Db.open_from_snapshot ~backing ~num_threads empty with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  if poisoned then
    poison_tails
      (Pmem.reopen ~max_threads:1 ~backing ())
      ~nrep:(Redo_nrep.nrep ~num_threads);
  Db.reopen_backed ~num_threads ~backing ()

(* Seeded puts (new keys, past two table resizes), overwrites with values
   of changing length, deletes and reads, alternating the two thread ids,
   with a clean or a torn-line crash every 100 operations.  Every answer is
   checked against a model as it comes; returns the answers, then the
   store's final contents. *)
let workload db =
  let rng = Random.State.make [| 24 |] in
  let model = Hashtbl.create 512 in
  let seen = ref [] in
  let note s = seen := s :: !seen in
  let key k = Printf.sprintf "key-%04d" k in
  for i = 1 to 1200 do
    let tid = i mod num_threads in
    let k = key (Random.State.int rng 500) in
    (match Random.State.int rng 20 with
    | 0 | 1 | 2 ->
        let present = Db.delete db ~tid k in
        Alcotest.(check bool) ("delete " ^ k) (Hashtbl.mem model k) present;
        Hashtbl.remove model k;
        note (Printf.sprintf "del %s %b" k present)
    | 3 | 4 | 5 | 6 ->
        let v = Db.get db ~tid k in
        Alcotest.(check (option string)) ("get " ^ k) (Hashtbl.find_opt model k) v;
        note (Printf.sprintf "get %s %s" k (Option.value ~default:"-" v))
    | _ ->
        let len = 1 + Random.State.int rng 40 in
        let v = String.make len (Char.chr (97 + (i mod 26))) in
        Db.put db ~tid ~key:k ~value:v;
        Hashtbl.replace model k v);
    if i mod 200 = 100 then ignore (Db.crash_and_recover db);
    if i mod 200 = 0 then
      match
        Db.crash_with_faults db ~seed:i ~evict_prob:0.5 ~torn_prob:0.5
          ~bitflips:0
      with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e
  done;
  Alcotest.(check int) "count" (Hashtbl.length model) (Db.count db ~tid:0);
  let final =
    List.sort compare (Db.fold db ~tid:0 ~init:[] (fun acc k v -> (k, v) :: acc))
  in
  Alcotest.(check (list (pair string string)))
    "final contents"
    (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []))
    final;
  (List.rev !seen, final)

let with_region f =
  let backing = Filename.temp_file "poisoned-tail" ".pmem" in
  Fun.protect ~finally:(fun () -> Sys.remove backing) (fun () -> f backing)

let test_redodb () =
  let clean = with_region (fun b -> workload (open_store ~poisoned:false b)) in
  let dirty = with_region (fun b -> workload (open_store ~poisoned:true b)) in
  let clean_seen, clean_final = clean and dirty_seen, dirty_final = dirty in
  Alcotest.(check (list string)) "answers" clean_seen dirty_seen;
  Alcotest.(check (list (pair string string))) "final contents" clean_final
    dirty_final;
  Alcotest.(check bool) "past two table resizes (> 256 keys)" true
    (List.length clean_final > 256)

(* Overwrite in place on a poisoned region.  Values take lengths on both
   sides of word and block-size boundaries (0, 7-9, 15-17, 64, 119-121
   bytes), so an overwrite grows, shrinks or keeps its length within one
   block or changes block; each 8-byte word of a value is all zero or
   all one letter.  A value grown in place into a fresh block's slack
   thus often stores a zero word over the zero of replica 0's fresh
   memory, while the other replicas hold poison there and will only
   replay the store.  Every answer and, after every operation, the whole
   store (read on whichever replica is current) is checked against a
   model; an overwrite that keeps its block must leave the allocator's
   live count alone; the store crashes every 150 operations, clean and
   torn in turn. *)
let lengths = [| 0; 7; 8; 9; 15; 16; 17; 64; 119; 120; 121 |]

let block_of len = Palloc.block_words (1 + ((len + 7) / 8))

let in_place_workload db =
  let rng = Random.State.make [| 26 |] in
  let model = Hashtbl.create 128 in
  let key k = Printf.sprintf "key-%02d" k in
  let value () =
    let len = lengths.(Random.State.int rng (Array.length lengths)) in
    let word =
      Array.init ((len + 7) / 8) (fun _ ->
          if Random.State.bool rng then '\000' else Char.chr (97 + Random.State.int rng 26))
    in
    String.init len (fun i -> word.(i / 8))
  in
  let same_block = ref 0 in
  for i = 1 to 1500 do
    let tid = i mod num_threads in
    let k = key (Random.State.int rng 100) in
    (match Random.State.int rng 10 with
    | 0 ->
        Alcotest.(check bool) ("delete " ^ k) (Hashtbl.mem model k) (Db.delete db ~tid k);
        Hashtbl.remove model k
    | 1 | 2 ->
        Alcotest.(check (option string)) ("get " ^ k) (Hashtbl.find_opt model k)
          (Db.get db ~tid k)
    | _ ->
        let v = value () in
        let live = Db.live_words db ~tid in
        Db.put db ~tid ~key:k ~value:v;
        (match Hashtbl.find_opt model k with
        | Some old when block_of (String.length old) = block_of (String.length v) ->
            incr same_block;
            Alcotest.(check int) ("in-place overwrite of " ^ k ^ " allocates nothing") live
              (Db.live_words db ~tid)
        | _ -> ());
        Hashtbl.replace model k v);
    Alcotest.(check (list (pair string string)))
      (Printf.sprintf "contents after op %d" i)
      (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []))
      (List.sort compare (Db.fold db ~tid:0 ~init:[] (fun acc k v -> (k, v) :: acc)));
    if i mod 300 = 150 then ignore (Db.crash_and_recover db);
    if i mod 300 = 0 then
      match
        Db.crash_with_faults db ~seed:i ~evict_prob:0.5 ~torn_prob:0.5 ~bitflips:0
      with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e
  done;
  Alcotest.(check bool) "many same-block overwrites" true (!same_block > 200)

let test_in_place () = with_region (fun b -> in_place_workload (open_store ~poisoned:true b))

let db_suites =
  [
    ( "poisoned-tail[RedoDB]",
      [
        Alcotest.test_case "put/overwrite/delete/resize across crashes" `Quick
          test_redodb;
        Alcotest.test_case "overwrite in place across crashes" `Quick test_in_place;
      ] );
  ]
