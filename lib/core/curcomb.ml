(* The durable curComb metadata of CX and Redo.  See curcomb.mli. *)

type t = { pm : Pmem.t; ptm : string; nrep : int; stride : int }

let meta_words = 64
let header_addr = 0
let max_records = 62
let record_addr i = 1 + i
let nrecords t = min t.nrep max_records

let create ?backing ~ptm ~max_threads ~nrep ~words () =
  if words <= Palloc.heap_base then invalid_arg (ptm ^ ".create: words");
  let stride =
    (words + Pmem.words_per_line - 1) / Pmem.words_per_line * Pmem.words_per_line
  in
  let pm =
    Pmem.create ?backing ~max_threads ~words:(meta_words + (nrep * stride)) ()
  in
  { pm; ptm; nrep; stride }

let reopen ~ptm ~max_threads ~nrep ~backing () =
  let pm = Pmem.reopen ~max_threads ~backing () in
  let total = Pmem.size_words pm in
  if total <= meta_words || (total - meta_words) mod nrep <> 0 then
    invalid_arg
      (Printf.sprintf "%s.reopen: %s holds %d words, not 64 + %d replica strides"
         ptm backing total nrep);
  let stride = (total - meta_words) / nrep in
  if stride mod Pmem.words_per_line <> 0 || stride <= Palloc.heap_base then
    invalid_arg
      (Printf.sprintf "%s.reopen: %s replica stride %d words is invalid" ptm
         backing stride);
  { pm; ptm; nrep; stride }

let pmem t = t.pm
let stride t = t.stride
let base t i = meta_words + (i * t.stride)
let index t base = (base - meta_words) / t.stride
let seal st = Pmem.Checksum.seal (Int64.to_int (Seqtid.to_int64 st))
let unseal w = Option.map (fun p -> Seqtid.of_int64 (Int64.of_int p)) (Pmem.Checksum.unseal w)

let unrecoverable t detail =
  Obs.recovery_unrecoverable ();
  raise (Ptm_intf.Unrecoverable { ptm = t.ptm; detail })

let used_of get = Palloc.used_words { Palloc.get; set = (fun _ _ -> ()) }

let used_words t i =
  let b = base t i in
  used_of (fun a -> Pmem.get_word t.pm (b + a))

(* Words [0, heap_base + used), rounded up to a whole line and clamped to
   the stride.  An optimistic reader may see a replica mid-mutation, hence
   the clamp; its caller validates the copy anyway. *)
let extent_of ~stride used =
  let w = Palloc.heap_base + used in
  let w = (w + Pmem.words_per_line - 1) / Pmem.words_per_line * Pmem.words_per_line in
  max Palloc.heap_base (min stride w)

let extent t i = extent_of ~stride:t.stride (used_words t i)

let pwb_extent t ~tid i lines =
  let b = base t i in
  let n = extent t i in
  Pmem.pwb_range t.pm ~tid b (b + n - 1);
  Line_set.iter
    (fun line ->
      if line * Pmem.words_per_line >= n then
        Pmem.pwb t.pm ~tid (b + (line * Pmem.words_per_line)))
    lines

let format ?image t =
  let b0 = base t 0 in
  let set a v = Pmem.set_word t.pm ~tid:0 (b0 + a) v in
  (match image with
  | None ->
      Palloc.format
        { Palloc.get = (fun a -> Pmem.get_word t.pm (b0 + a)); set }
        ~words:t.stride
  | Some img ->
      for a = 0 to extent_of ~stride:t.stride (used_of (Array.get img)) - 1 do
        set a img.(a)
      done);
  Pmem.pwb_range t.pm ~tid:0 b0 (b0 + extent t 0 - 1);
  Pmem.set_word t.pm ~tid:0 header_addr (seal (Seqtid.pack ~seq:0 ~tid:0 ~idx:0));
  Pmem.set_word t.pm ~tid:0 (record_addr 0)
    (seal (Seqtid.pack ~seq:0 ~tid:0 ~idx:0));
  Pmem.pwb_range t.pm ~tid:0 header_addr (record_addr 0);
  Pmem.psync t.pm ~tid:0

let header_word t = Pmem.get_word t.pm header_addr

let decode t w =
  match Pmem.Checksum.unseal w with
  | Some p -> Seqtid.of_int64 (Int64.of_int p)
  | None -> unrecoverable t (Printf.sprintf "curComb header corrupt (%Lx)" w)

let cas_header t ~tid ~expected desired =
  Pmem.cas_word t.pm ~tid header_addr ~expected ~desired:(seal desired)

(* The header only moves by CAS to a larger seq, so its durable value can
   never regress. *)
let advance t ~tid desired =
  let old = header_word t in
  if Seqtid.seq (decode t old) < Seqtid.seq desired then
    ignore (cas_header t ~tid ~expected:old desired);
  Seqtid.seq (decode t (header_word t))

let persist_header t ~tid =
  Pmem.pwb t.pm ~tid header_addr;
  Pmem.psync t.pm ~tid

let write_record t ~tid i ~seq =
  if i < max_records then begin
    Pmem.set_word t.pm ~tid (record_addr i) (seal (Seqtid.pack ~seq ~tid:0 ~idx:i));
    Pmem.pwb t.pm ~tid (record_addr i)
  end

let retire_record t ~tid i =
  if i < max_records then begin
    Pmem.set_word t.pm ~tid (record_addr i) 0L;
    Pmem.pwb t.pm ~tid (record_addr i)
  end

(* What replica [i]'s record word [w] says: [Ok None] retired, [Ok (Some
   seq)] sealed at [seq], [Error] corrupt.  Live operation only ever
   writes a record sealed with its own index, or zero. *)
let record i w =
  if Int64.equal w 0L then Ok None
  else
    match unseal w with
    | Some st when Seqtid.idx st = i -> Ok (Some (Seqtid.seq st))
    | Some _ -> Error (Printf.sprintf "replica record %d carries a foreign index" i)
    | None -> Error (Printf.sprintf "replica record %d fails its seal (%Lx)" i w)

let recover_replica t =
  match unseal (header_word t) with
  | Some st ->
      let ci = Seqtid.idx st in
      if ci >= t.nrep then
        unrecoverable t
          (Printf.sprintf "curComb header names replica %d of %d" ci t.nrep);
      ci
  | None ->
      (* Newest record wins.  A tie between distinct replicas is ambiguous
         (one of them may have lost a race and reverted), and a corrupt
         record may hide the true newest replica, so falling back past
         either could silently roll back committed transactions: refuse. *)
      let best = ref None in
      let suspect = ref false in
      for i = 0 to nrecords t - 1 do
        match record i (Pmem.get_word t.pm (record_addr i)) with
        | Ok None -> ()
        | Ok (Some seq) -> (
            match !best with
            | Some (bseq, _, _) when seq < bseq -> ()
            | Some (bseq, _, _) when seq = bseq -> best := Some (bseq, i, true)
            | _ -> best := Some (seq, i, false))
        | Error _ -> suspect := true
      done;
      if !suspect then
        unrecoverable t
          "curComb header and a replica record are both corrupt; surviving \
           records may be stale";
      (match !best with
      | None ->
          unrecoverable t "curComb header corrupt and no replica record validates"
      | Some (_, _, true) ->
          unrecoverable t "curComb header corrupt and newest replica records tie"
      | Some (_, i, false) ->
          Obs.recovery_fell_back ();
          i)

(* Tickets restart at 0 in the new epoch: the header is rewritten, or its
   stale (huge) seq would win every monotonicity check and keep naming a
   pre-crash replica.  Only the recovered replica is consistent now. *)
let reset_epoch t header =
  let ci = Seqtid.idx header in
  ignore (cas_header t ~tid:0 ~expected:(header_word t) header);
  for i = 0 to nrecords t - 1 do
    Pmem.set_word t.pm ~tid:0 (record_addr i)
      (if i = ci then seal (Seqtid.pack ~seq:0 ~tid:0 ~idx:i) else 0L)
  done;
  Pmem.pwb_range t.pm ~tid:0 header_addr (record_addr (nrecords t - 1));
  Pmem.psync t.pm ~tid:0

let meta_ranges t = [ (header_addr, record_addr (nrecords t - 1)) ]

(* Live operation only persists valid headers and records, so a violation
   in the durable image is media rot, caught before the next crash reloads
   the volatile image from it. *)
let verify t =
  let hw = Pmem.durable_word t.pm header_addr in
  match unseal hw with
  | None -> Error (Printf.sprintf "durable curComb header fails its seal (%Lx)" hw)
  | Some st when Seqtid.idx st >= t.nrep ->
      Error
        (Printf.sprintf "durable curComb header names replica %d of %d"
           (Seqtid.idx st) t.nrep)
  | Some _ ->
      let rec check i =
        if i >= nrecords t then Ok ()
        else
          match record i (Pmem.durable_word t.pm (record_addr i)) with
          | Ok _ -> check (i + 1)
          | Error e -> Error ("durable " ^ e)
      in
      check 0

let corrupt_durable t ~seed ~count =
  Pmem.corrupt_durable_words_in t.pm ~seed ~count ~ranges:(meta_ranges t)
