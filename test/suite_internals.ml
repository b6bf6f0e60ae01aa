(* Unit tests for the PTM-internal building blocks: the SeqTidIdx control
   word, the physical write-set (redo/undo log), the dirty-line set, the
   breakdown profiler, and the rwlock upgrade path added for Redo-PTM. *)

module Seqtid = Ptm.Seqtid
module Wset = Ptm.Wset
module Line_set = Ptm.Line_set
module Breakdown = Ptm.Breakdown

(* ---- Seqtid ---- *)

let test_seqtid_roundtrip () =
  let t = Seqtid.pack ~seq:123456 ~tid:7 ~idx:31 in
  Alcotest.(check int) "seq" 123456 (Seqtid.seq t);
  Alcotest.(check int) "tid" 7 (Seqtid.tid t);
  Alcotest.(check int) "idx" 31 (Seqtid.idx t);
  let t64 = Seqtid.to_int64 t in
  Alcotest.(check int) "int64 roundtrip" t (Seqtid.of_int64 t64)

let test_seqtid_monotone_in_seq () =
  let a = Seqtid.pack ~seq:5 ~tid:255 ~idx:255 in
  let b = Seqtid.pack ~seq:6 ~tid:0 ~idx:0 in
  Alcotest.(check bool) "higher seq compares greater" true (b > a)

let qcheck_seqtid =
  QCheck.Test.make ~name:"seqtid pack/unpack" ~count:500
    QCheck.(triple (int_bound 1_000_000) (int_bound 255) (int_bound 255))
  @@ fun (seq, tid, idx) ->
  let t = Seqtid.pack ~seq ~tid ~idx in
  Seqtid.seq t = seq && Seqtid.tid t = tid && Seqtid.idx t = idx

(* ---- Wset ---- *)

let test_wset_append_mode_keeps_duplicates () =
  let w = Wset.create ~aggregate:false in
  Wset.record w 10 ~oldv:1L ~newv:2L;
  Wset.record w 10 ~oldv:2L ~newv:3L;
  Alcotest.(check int) "two entries" 2 (Wset.length w);
  Alcotest.(check (option int64)) "find returns latest" (Some 3L) (Wset.find w 10)

let test_wset_aggregate_mode_coalesces () =
  let w = Wset.create ~aggregate:true in
  Wset.record w 10 ~oldv:1L ~newv:2L;
  Wset.record w 10 ~oldv:2L ~newv:3L;
  Alcotest.(check int) "one entry" 1 (Wset.length w);
  let seen = ref [] in
  Wset.iter_entries w (fun addr ~oldv ~newv -> seen := (addr, oldv, newv) :: !seen);
  Alcotest.(check bool) "first old, last new" true (!seen = [ (10, 1L, 3L) ])

let test_wset_undo_order () =
  (* undo must revert repeated stores in reverse order *)
  let w = Wset.create ~aggregate:false in
  let mem = Hashtbl.create 4 in
  Hashtbl.replace mem 5 100L;
  let store addr v =
    let oldv = Option.value ~default:0L (Hashtbl.find_opt mem addr) in
    Wset.record w addr ~oldv ~newv:v;
    Hashtbl.replace mem addr v
  in
  store 5 200L;
  store 5 300L;
  Wset.iter_undo w (fun addr oldv -> Hashtbl.replace mem addr oldv);
  Alcotest.(check int64) "restored to first oldv" 100L (Hashtbl.find mem 5)

let test_wset_reset_is_cheap_and_complete () =
  let w = Wset.create ~aggregate:true in
  for i = 0 to 99 do
    Wset.record w i ~oldv:0L ~newv:(Int64.of_int i)
  done;
  Wset.reset w;
  Alcotest.(check int) "empty" 0 (Wset.length w);
  Alcotest.(check bool) "is_empty" true (Wset.is_empty w);
  Alcotest.(check (option int64)) "index cleared" None (Wset.find w 50);
  (* reuse after reset: stale index entries must not resurface *)
  Wset.record w 50 ~oldv:7L ~newv:8L;
  Alcotest.(check int) "fresh entry" 1 (Wset.length w);
  Alcotest.(check (option int64)) "fresh value" (Some 8L) (Wset.find w 50)

let test_wset_growth () =
  let w = Wset.create ~aggregate:true in
  for i = 0 to 9999 do
    Wset.record w i ~oldv:0L ~newv:(Int64.of_int (i * 2))
  done;
  Alcotest.(check int) "all distinct entries" 10000 (Wset.length w);
  Alcotest.(check (option int64)) "lookup after growth" (Some 4444L)
    (Wset.find w 2222)

let qcheck_wset_redo_matches_model =
  QCheck.Test.make ~name:"wset redo replay = final state" ~count:200
    QCheck.(pair bool (list (pair (int_bound 30) (int_bound 1000))))
  @@ fun (aggregate, stores) ->
  let w = Wset.create ~aggregate in
  let model = Hashtbl.create 16 in
  List.iter
    (fun (addr, v) ->
      let v = Int64.of_int v in
      let oldv = Option.value ~default:0L (Hashtbl.find_opt model addr) in
      Wset.record w addr ~oldv ~newv:v;
      Hashtbl.replace model addr v)
    stores;
  let replay = Hashtbl.create 16 in
  Wset.iter_redo w (fun addr v -> Hashtbl.replace replay addr v);
  Hashtbl.fold (fun k v acc -> acc && Hashtbl.find_opt replay k = Some v) model true

(* ---- Line_set ---- *)

let line_set_elements s =
  let seen = ref [] in
  Line_set.iter (fun l -> seen := l :: !seen) s;
  List.rev !seen

let test_line_set_growth_and_order () =
  let s = Line_set.create ~lines:300 in
  for round = 1 to 2 do
    for l = 299 downto 0 do
      Line_set.add s l;
      Line_set.add s l
    done;
    Alcotest.(check int) "deduplicated" 300 (Line_set.length s);
    Alcotest.(check (list int))
      (Printf.sprintf "insertion order, round %d" round)
      (List.init 300 (fun i -> 299 - i))
      (line_set_elements s);
    Line_set.clear s;
    Alcotest.(check int) "cleared" 0 (Line_set.length s)
  done;
  Alcotest.check_raises "line out of range"
    (Invalid_argument "index out of bounds") (fun () -> Line_set.add s 300)

(* Random add/clear sequences over 100 lines (so the 64-slot array grows)
   against an insertion-ordered Hashtbl model: after every operation the
   set holds exactly the model's lines, each visited once, in the order
   first added since the last clear.  A [clear] that left marks behind
   would drop every re-added line. *)
let qcheck_line_set_matches_model =
  QCheck.Test.make ~name:"line set = insertion-ordered model" ~count:300
    QCheck.(
      list_of_size
        Gen.(0 -- 400)
        (make
           ~print:(function None -> "clear" | Some l -> string_of_int l)
           Gen.(
             frequency
               [ (1, return None); (40, map Option.some (int_bound 99)) ])))
  @@ fun ops ->
  let s = Line_set.create ~lines:100 in
  let model = Hashtbl.create 16 and order = ref [] in
  List.for_all
    (fun op ->
      (match op with
      | None ->
          Line_set.clear s;
          Hashtbl.reset model;
          order := []
      | Some l ->
          Line_set.add s l;
          if not (Hashtbl.mem model l) then begin
            Hashtbl.replace model l ();
            order := l :: !order
          end);
      Line_set.length s = Hashtbl.length model
      && line_set_elements s = List.rev !order)
    ops

(* ---- Breakdown ---- *)

let test_breakdown_disabled_is_passthrough () =
  let bd = Breakdown.create ~num_threads:2 in
  let r = Breakdown.timed bd ~tid:0 Breakdown.Apply (fun () -> 41 + 1) in
  Alcotest.(check int) "result" 42 r;
  let s = Breakdown.snapshot bd in
  Alcotest.(check int) "nothing recorded" 0 s.Breakdown.update_txs

let test_breakdown_accumulates () =
  let bd = Breakdown.create ~num_threads:2 in
  Breakdown.enable bd true;
  ignore (Breakdown.timed bd ~tid:0 Breakdown.Flush (fun () -> Unix.sleepf 0.01));
  Breakdown.add_total bd ~tid:0 0.02;
  Breakdown.add_total bd ~tid:1 0.02;
  let s = Breakdown.snapshot bd in
  Alcotest.(check int) "two txs" 2 s.Breakdown.update_txs;
  Alcotest.(check bool) "flush fraction > 0" true
    (Breakdown.fraction s "flush" > 0.1);
  Alcotest.(check bool) "avg us sensible" true
    (Breakdown.avg_us s > 1_000. && Breakdown.avg_us s < 1_000_000.);
  Breakdown.reset bd;
  Alcotest.(check int) "reset" 0 (Breakdown.snapshot bd).Breakdown.update_txs

(* ---- Rwlock upgrade ---- *)

let test_rwlock_upgrade_after_downgrade () =
  let l = Sync_prims.Rwlock.create () in
  assert (Sync_prims.Rwlock.exclusive_try_lock l ~tid:0);
  Sync_prims.Rwlock.downgrade l ~tid:0;
  Alcotest.(check bool) "reader during downgrade" true
    (Sync_prims.Rwlock.shared_try_lock l ~tid:1);
  Sync_prims.Rwlock.shared_unlock l ~tid:1;
  Sync_prims.Rwlock.upgrade l ~tid:0;
  Alcotest.(check bool) "reader barred after upgrade" false
    (Sync_prims.Rwlock.shared_try_lock l ~tid:1);
  Sync_prims.Rwlock.exclusive_unlock l ~tid:0;
  Alcotest.(check bool) "free afterwards" true
    (Sync_prims.Rwlock.exclusive_try_lock l ~tid:1);
  Sync_prims.Rwlock.exclusive_unlock l ~tid:1

let test_rwlock_upgrade_drains_readers () =
  let l = Sync_prims.Rwlock.create () in
  assert (Sync_prims.Rwlock.exclusive_try_lock l ~tid:0);
  Sync_prims.Rwlock.downgrade l ~tid:0;
  assert (Sync_prims.Rwlock.shared_try_lock l ~tid:1);
  let upgraded = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Sync_prims.Rwlock.upgrade l ~tid:0;
        Atomic.set upgraded true)
  in
  Unix.sleepf 0.02;
  Alcotest.(check bool) "upgrade waits for reader" false (Atomic.get upgraded);
  Sync_prims.Rwlock.shared_unlock l ~tid:1;
  Domain.join d;
  Alcotest.(check bool) "upgrade completed after drain" true (Atomic.get upgraded);
  Sync_prims.Rwlock.exclusive_unlock l ~tid:0

let suites =
  [
    ( "seqtid",
      [
        Alcotest.test_case "roundtrip" `Quick test_seqtid_roundtrip;
        Alcotest.test_case "monotone" `Quick test_seqtid_monotone_in_seq;
        QCheck_alcotest.to_alcotest qcheck_seqtid;
      ] );
    ( "wset",
      [
        Alcotest.test_case "append keeps duplicates" `Quick
          test_wset_append_mode_keeps_duplicates;
        Alcotest.test_case "aggregate coalesces" `Quick
          test_wset_aggregate_mode_coalesces;
        Alcotest.test_case "undo order" `Quick test_wset_undo_order;
        Alcotest.test_case "O(1) reset" `Quick test_wset_reset_is_cheap_and_complete;
        Alcotest.test_case "growth" `Quick test_wset_growth;
        QCheck_alcotest.to_alcotest qcheck_wset_redo_matches_model;
      ] );
    ( "line-set",
      [
        Alcotest.test_case "growth, dedup and order" `Quick
          test_line_set_growth_and_order;
        QCheck_alcotest.to_alcotest qcheck_line_set_matches_model;
      ] );
    ( "breakdown",
      [
        Alcotest.test_case "disabled passthrough" `Quick
          test_breakdown_disabled_is_passthrough;
        Alcotest.test_case "accumulates" `Quick test_breakdown_accumulates;
      ] );
    ( "rwlock-upgrade",
      [
        Alcotest.test_case "upgrade after downgrade" `Quick
          test_rwlock_upgrade_after_downgrade;
        Alcotest.test_case "upgrade drains readers" `Slow
          test_rwlock_upgrade_drains_readers;
      ] );
  ]
