type mem = {
  get : int -> int64;
  set : int -> int64 -> unit;
}

exception Out_of_memory

let root_slots = 63

let root_addr i =
  if i < 1 || i > root_slots then invalid_arg "Palloc.root_addr";
  i

let n_classes = 24 (* block sizes 2^0 .. 2^23 words *)
let meta_base = 64
let meta_bump = meta_base
let meta_heap_end = meta_base + 1
let meta_live = meta_base + 2
let meta_freelist c = meta_base + 3 + c

let heap_base =
  let after_meta = meta_base + 3 + n_classes in
  (after_meta + 7) / 8 * 8

(* The block header (one word) stores the size class, plus a FREE bit while
   the block sits on a free list (catching double frees); the next-free link
   then lives in the block's second word (every block has >= 2 words). *)

let free_bit = 1 lsl 40

let class_of_block_words b =
  let rec go c size = if size >= b then c else go (c + 1) (size * 2) in
  go 0 1

let block_words n =
  if n < 1 then invalid_arg "Palloc.block_words";
  1 lsl (class_of_block_words (n + 1))

let format mem ~words =
  if words <= heap_base then invalid_arg "Palloc.format: region too small";
  mem.set meta_bump (Int64.of_int heap_base);
  mem.set meta_heap_end (Int64.of_int words);
  mem.set meta_live 0L;
  for c = 0 to n_classes - 1 do
    mem.set (meta_freelist c) 0L
  done

let heap_end mem = Int64.to_int (mem.get meta_heap_end)

let alloc mem n =
  if n < 1 then invalid_arg "Palloc.alloc";
  let c = class_of_block_words (n + 1) in
  if c >= n_classes then raise Out_of_memory;
  let bs = 1 lsl c in
  let live = Int64.to_int (mem.get meta_live) in
  let head = Int64.to_int (mem.get (meta_freelist c)) in
  let block =
    if head <> 0 then begin
      mem.set (meta_freelist c) (mem.get (head + 1));
      head
    end
    else begin
      let bump = Int64.to_int (mem.get meta_bump) in
      let heap_end = heap_end mem in
      if bump + bs > heap_end then raise Out_of_memory;
      mem.set meta_bump (Int64.of_int (bump + bs));
      bump
    end
  in
  mem.set block (Int64.of_int c);
  mem.set meta_live (Int64.of_int (live + bs));
  block + 1

let dealloc mem addr =
  let block = addr - 1 in
  if block < heap_base then invalid_arg "Palloc.dealloc: bad address";
  let c = Int64.to_int (mem.get block) in
  if c < 0 || c >= n_classes then
    invalid_arg "Palloc.dealloc: corrupt or double-freed block";
  mem.set block (Int64.of_int (c lor free_bit));
  mem.set (block + 1) (mem.get (meta_freelist c));
  mem.set (meta_freelist c) (Int64.of_int block);
  let live = Int64.to_int (mem.get meta_live) in
  mem.set meta_live (Int64.of_int (live - (1 lsl c)))

let live_words mem = Int64.to_int (mem.get meta_live)
let used_words mem = Int64.to_int (mem.get meta_bump) - heap_base
