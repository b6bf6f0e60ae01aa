(* Tests for the persistent allocator, run against a plain in-memory word
   array (the allocator only sees get/set callbacks, so any backing works). *)

let mk_mem words =
  let a = Array.make words 0L in
  ( { Palloc.get = (fun i -> a.(i)); set = (fun i v -> a.(i) <- v) },
    a )

let formatted ?(words = 4096) () =
  let mem, a = mk_mem words in
  Palloc.format mem ~words;
  (mem, a)

let test_layout_constants () =
  Alcotest.(check int) "root 1" 1 (Palloc.root_addr 1);
  Alcotest.(check int) "root 63" 63 (Palloc.root_addr Palloc.root_slots);
  Alcotest.check_raises "root 0 invalid" (Invalid_argument "Palloc.root_addr")
    (fun () -> ignore (Palloc.root_addr 0));
  Alcotest.(check bool) "heap after meta" true (Palloc.heap_base > 64);
  Alcotest.(check int) "heap line aligned" 0 (Palloc.heap_base mod 8)

let test_block_words_powers_of_two () =
  Alcotest.(check int) "1 word -> 2" 2 (Palloc.block_words 1);
  Alcotest.(check int) "2 words -> 4" 4 (Palloc.block_words 2);
  Alcotest.(check int) "3 words -> 4" 4 (Palloc.block_words 3);
  Alcotest.(check int) "7 words -> 8" 8 (Palloc.block_words 7);
  Alcotest.(check int) "8 words -> 16" 16 (Palloc.block_words 8)

let test_alloc_returns_heap_addresses () =
  let mem, _ = formatted () in
  let a = Palloc.alloc mem 4 in
  Alcotest.(check bool) "in heap" true (a > Palloc.heap_base);
  let b = Palloc.alloc mem 4 in
  Alcotest.(check bool) "distinct" true (a <> b)

let test_blocks_do_not_overlap () =
  let mem, _ = formatted () in
  let blocks = List.init 50 (fun i -> (Palloc.alloc mem (1 + (i mod 9)), 1 + (i mod 9))) in
  (* Write a distinct pattern in each block, then verify none was clobbered. *)
  List.iteri
    (fun i (addr, n) ->
      for j = 0 to n - 1 do
        mem.Palloc.set (addr + j) (Int64.of_int ((i * 100) + j))
      done)
    blocks;
  List.iteri
    (fun i (addr, n) ->
      for j = 0 to n - 1 do
        Alcotest.(check int64)
          "block intact"
          (Int64.of_int ((i * 100) + j))
          (mem.Palloc.get (addr + j))
      done)
    blocks

let test_free_then_reuse () =
  let mem, _ = formatted () in
  let a = Palloc.alloc mem 4 in
  Palloc.dealloc mem a;
  let b = Palloc.alloc mem 4 in
  Alcotest.(check int) "same class block reused" a b

let test_free_lists_are_per_class () =
  let mem, _ = formatted () in
  let a = Palloc.alloc mem 1 in
  Palloc.dealloc mem a;
  let b = Palloc.alloc mem 100 in
  Alcotest.(check bool) "different class, no reuse" true (a <> b)

let test_live_words_accounting () =
  let mem, _ = formatted () in
  Alcotest.(check int) "starts at zero" 0 (Palloc.live_words mem);
  let a = Palloc.alloc mem 3 in
  Alcotest.(check int) "one block" (Palloc.block_words 3) (Palloc.live_words mem);
  let b = Palloc.alloc mem 10 in
  Alcotest.(check int) "two blocks"
    (Palloc.block_words 3 + Palloc.block_words 10)
    (Palloc.live_words mem);
  Palloc.dealloc mem a;
  Palloc.dealloc mem b;
  Alcotest.(check int) "back to zero" 0 (Palloc.live_words mem)

let test_used_words_high_water () =
  let mem, _ = formatted () in
  let a = Palloc.alloc mem 4 in
  let hw = Palloc.used_words mem in
  Palloc.dealloc mem a;
  Alcotest.(check int) "free does not shrink high-water" hw
    (Palloc.used_words mem);
  let _ = Palloc.alloc mem 4 in
  Alcotest.(check int) "reuse does not grow it" hw (Palloc.used_words mem)

let test_out_of_memory () =
  let mem, _ = formatted ~words:(Palloc.heap_base + 16) () in
  let _ = Palloc.alloc mem 7 in
  let _ = Palloc.alloc mem 7 in
  Alcotest.check_raises "heap exhausted" Palloc.Out_of_memory (fun () ->
      ignore (Palloc.alloc mem 7))

let test_double_free_detected () =
  let mem, _ = formatted () in
  let a = Palloc.alloc mem 4 in
  Palloc.dealloc mem a;
  Alcotest.check_raises "double free"
    (Invalid_argument "Palloc.dealloc: corrupt or double-freed block")
    (fun () -> Palloc.dealloc mem a)

let test_invalid_args () =
  let mem, _ = formatted () in
  Alcotest.check_raises "alloc 0" (Invalid_argument "Palloc.alloc") (fun () ->
      ignore (Palloc.alloc mem 0));
  Alcotest.check_raises "dealloc below heap"
    (Invalid_argument "Palloc.dealloc: bad address") (fun () ->
      Palloc.dealloc mem 5)

let qcheck_alloc_free_consistency =
  (* Random alloc/free interleavings: blocks never overlap, contents are
     preserved, and freeing everything returns live_words to zero.  A long
     draw can fill the heap: Out_of_memory ends the draw when the block
     truly cannot fit — no freed block of its size to recycle and no room
     left past the high-water mark — and fails the property otherwise. *)
  QCheck.Test.make ~name:"random alloc/free keeps blocks disjoint" ~count:100
    QCheck.(list (int_bound 20))
    (fun sizes ->
      let mem, _ = mk_mem 65536 in
      Palloc.format mem ~words:65536;
      let live = Hashtbl.create 16 in
      (* per block size, the freed blocks still on the free lists: an
         allocation that leaves used_words unchanged recycled one *)
      let free = Hashtbl.create 8 in
      let freed bs = Option.value (Hashtbl.find_opt free bs) ~default:0 in
      let next_tag = ref 1 in
      let check_all () =
        Hashtbl.iter
          (fun addr (n, tag) ->
            for j = 0 to n - 1 do
              if mem.Palloc.get (addr + j) <> Int64.of_int (tag + j) then
                QCheck.Test.fail_reportf "block %d corrupted" addr
            done)
          live
      in
      let rec run i = function
        | [] -> ()
        | _ :: rest when i mod 3 = 2 && Hashtbl.length live > 0 ->
            (* free an arbitrary live block *)
            let addr, (n, _) = Hashtbl.fold (fun a v _ -> (a, v)) live (0, (0, 0)) in
            Palloc.dealloc mem addr;
            Hashtbl.remove live addr;
            let bs = Palloc.block_words n in
            Hashtbl.replace free bs (freed bs + 1);
            check_all ();
            run (i + 1) rest
        | sz :: rest -> (
            let n = 1 + sz in
            let bs = Palloc.block_words n in
            let used = Palloc.used_words mem in
            match Palloc.alloc mem n with
            | exception Palloc.Out_of_memory ->
                if freed bs > 0 || Palloc.heap_base + used + bs <= Palloc.heap_end mem then
                  QCheck.Test.fail_reportf "out of memory with room for a %d-word block" bs
            | addr ->
                if Palloc.used_words mem = used then Hashtbl.replace free bs (freed bs - 1);
                let tag = !next_tag in
                next_tag := tag + 1000;
                for j = 0 to n - 1 do
                  mem.Palloc.set (addr + j) (Int64.of_int (tag + j))
                done;
                Hashtbl.replace live addr (n, tag);
                check_all ();
                run (i + 1) rest)
      in
      run 0 sizes;
      Hashtbl.iter (fun addr _ -> Palloc.dealloc mem addr) live;
      Palloc.live_words mem = 0)

let suites =
  [
    ( "palloc",
      [
        Alcotest.test_case "layout constants" `Quick test_layout_constants;
        Alcotest.test_case "power-of-two blocks" `Quick
          test_block_words_powers_of_two;
        Alcotest.test_case "alloc in heap" `Quick test_alloc_returns_heap_addresses;
        Alcotest.test_case "blocks disjoint" `Quick test_blocks_do_not_overlap;
        Alcotest.test_case "free then reuse" `Quick test_free_then_reuse;
        Alcotest.test_case "per-class free lists" `Quick
          test_free_lists_are_per_class;
        Alcotest.test_case "live words accounting" `Quick
          test_live_words_accounting;
        Alcotest.test_case "high-water mark" `Quick test_used_words_high_water;
        Alcotest.test_case "out of memory" `Quick test_out_of_memory;
        Alcotest.test_case "double free detected" `Quick test_double_free_detected;
        Alcotest.test_case "invalid arguments" `Quick test_invalid_args;
        QCheck_alcotest.to_alcotest qcheck_alloc_free_consistency;
      ] );
  ]
