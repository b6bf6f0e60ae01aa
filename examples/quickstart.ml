(* Quickstart: a persistent counter and a persistent set in five minutes.

   Run with:  dune exec examples/quickstart.exe

   A PTM instance owns a region of simulated persistent memory.  You mutate
   it with update transactions (closures over a transaction handle) and read
   it with read-only transactions.  When [update] returns, the effects are
   durable: we demonstrate by crashing the "machine" and recovering. *)

module P = Ptm.Redo_ptm.Opt (* the paper's flagship PTM: RedoOpt *)
module Set = Pds.Hash_set.Make (P)

let counter_slot = Palloc.root_addr 1
let set_slot = 2

let () =
  print_endline "== quickstart: wait-free persistent transactions ==";

  (* A PTM for up to 4 threads over a 64k-word persistent region. *)
  let p = P.create ~num_threads:4 ~words:(1 lsl 16) () in

  (* 1. A persistent counter lives in a root slot. *)
  for _ = 1 to 10 do
    ignore
      (P.update p ~tid:0 (fun tx ->
           let v = Int64.add (P.get tx counter_slot) 1L in
           P.set tx counter_slot v;
           v))
  done;
  let v = P.read_only p ~tid:0 (fun tx -> P.get tx counter_slot) in
  Printf.printf "counter after 10 increments: %Ld\n" v;

  (* 2. A persistent hash set, rooted at another slot. *)
  Set.init p ~tid:0 ~slot:set_slot;
  List.iter
    (fun k -> ignore (Set.add p ~tid:0 ~slot:set_slot k))
    [ 3L; 1L; 4L; 1L; 5L; 9L; 2L; 6L ];
  Printf.printf "set size: %d (duplicate 1 was rejected)\n"
    (Set.cardinal p ~tid:0 ~slot:set_slot);

  (* 3. Transactions are ACID across multiple structures: move "4" out of
     the set and count the move, atomically. *)
  ignore
    (P.update p ~tid:0 (fun tx ->
         (* transactional code can freely mix structures in one region *)
         P.set tx counter_slot (Int64.add (P.get tx counter_slot) 100L);
         0L));

  (* 4. Crash the machine.  Everything committed above is durable. *)
  print_endline "simulating a power failure...";
  P.crash_and_recover p;
  Printf.printf "after recovery: counter=%Ld, set size=%d, contains 9: %b\n"
    (P.read_only p ~tid:0 (fun tx -> P.get tx counter_slot))
    (Set.cardinal p ~tid:0 ~slot:set_slot)
    (Set.contains p ~tid:0 ~slot:set_slot 9L);

  (* 5. Flush instructions were counted all along — the paper's key metric. *)
  let s = P.stats p in
  Printf.printf "device stats: %d pwbs, %d fences\n" s.Pmem.Stats.pwb
    (Pmem.Stats.fences s);
  print_endline "done."
