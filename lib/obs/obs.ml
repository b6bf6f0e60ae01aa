(* Unified observability layer.

   Three pieces, all dependency-free (unix only) so every other library
   can sit on top of it:

   - [Json]: a tiny JSON value type with a printer and a parser, so
     benches can emit machine-readable results and tools can validate
     them without external dependencies.
   - [Metrics]: a global registry of named per-thread counters and
     log-bucketed latency histograms (p50/p90/p99/p999/max).
   - [Trace]: fixed-size per-thread ring buffers of typed events with
     an exporter to Chrome trace-event JSON (loadable in Perfetto or
     chrome://tracing).

   Both layers are behind global enables; the disabled path of every
   recording function is a single branch on a bool ref. *)

let max_tids = 128
let tid_mask = max_tids - 1

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  let escape_to b s =
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | '\r' -> Buffer.add_string b "\\r"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'

  (* Non-finite floats have no JSON encoding; emit null rather than an
     unparsable token. *)
  let float_str f =
    if not (Float.is_finite f) then "null"
    else if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.1f" f
    else Printf.sprintf "%.9g" f

  let rec to_buffer b = function
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f -> Buffer.add_string b (float_str f)
    | String s -> escape_to b s
    | List xs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char b ',';
            to_buffer b x)
          xs;
        Buffer.add_char b ']'
    | Obj kvs ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            escape_to b k;
            Buffer.add_char b ':';
            to_buffer b v)
          kvs;
        Buffer.add_char b '}'

  let to_string j =
    let b = Buffer.create 1024 in
    to_buffer b j;
    Buffer.contents b

  let to_channel oc j =
    let b = Buffer.create 65536 in
    to_buffer b j;
    Buffer.output_buffer oc b

  let member k = function
    | Obj kvs -> List.assoc_opt k kvs
    | _ -> None

  exception Parse_error of string

  let parse (s : string) : (t, string) result =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg =
      raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos))
    in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let skip_ws () =
      while
        !pos < n
        && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
      do
        incr pos
      done
    in
    let expect c =
      if !pos < n && s.[!pos] = c then incr pos
      else fail (Printf.sprintf "expected %C" c)
    in
    let lit word v =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        v
      end
      else fail "invalid literal"
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        let c = s.[!pos] in
        incr pos;
        if c = '"' then Buffer.contents b
        else if c = '\\' then begin
          if !pos >= n then fail "truncated escape";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !pos + 4 > n then fail "truncated \\u escape";
              let h = String.sub s !pos 4 in
              pos := !pos + 4;
              let code =
                match int_of_string_opt ("0x" ^ h) with
                | Some c -> c
                | None -> fail "bad \\u escape"
              in
              (* BMP code points re-encoded as UTF-8. *)
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else if code < 0x800 then begin
                Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
              end
              else begin
                Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
              end
          | _ -> fail "bad escape");
          go ()
        end
        else begin
          Buffer.add_char b c;
          go ()
        end
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let is_num = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && is_num s.[!pos] do
        incr pos
      done;
      let tok = String.sub s start (!pos - start) in
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt tok with
          | Some f -> Float f
          | None -> fail "bad number")
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '{' ->
          incr pos;
          skip_ws ();
          if peek () = Some '}' then begin
            incr pos;
            Obj []
          end
          else
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  incr pos;
                  members ((k, v) :: acc)
              | Some '}' ->
                  incr pos;
                  Obj (List.rev ((k, v) :: acc))
              | _ -> fail "expected ',' or '}'"
            in
            members []
      | Some '[' ->
          incr pos;
          skip_ws ();
          if peek () = Some ']' then begin
            incr pos;
            List []
          end
          else
            let rec elems acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  incr pos;
                  elems (v :: acc)
              | Some ']' ->
                  incr pos;
                  List (List.rev (v :: acc))
              | _ -> fail "expected ',' or ']'"
            in
            elems []
      | Some '"' -> String (parse_string ())
      | Some 't' -> lit "true" (Bool true)
      | Some 'f' -> lit "false" (Bool false)
      | Some 'n' -> lit "null" Null
      | Some ('-' | '0' .. '9') -> parse_number ()
      | Some c -> fail (Printf.sprintf "unexpected character %C" c)
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Parse_error m -> Error m

  let parse_file path =
    match In_channel.with_open_bin path In_channel.input_all with
    | s -> parse s
    | exception Sys_error m -> Error m
end

module Metrics = struct
  let enabled = ref false
  let enable b = enabled := b
  let is_on () = !enabled

  (* Per-tid cells are strided so concurrent writers from different
     domains land on different cache lines. *)
  let stride = 16

  type counter = { cname : string; cells : int array }

  let add c ~tid n =
    if !enabled then begin
      let i = (tid land tid_mask) * stride in
      c.cells.(i) <- c.cells.(i) + n
    end

  let incr c ~tid = add c ~tid 1
  let counter_value c = Array.fold_left ( + ) 0 c.cells
  let counter_per_thread c = Array.init max_tids (fun t -> c.cells.(t * stride))
  let reset_counter c = Array.fill c.cells 0 (Array.length c.cells) 0

  (* ---- log-bucketed histograms ----
     Values are non-negative integers (nanoseconds by convention).
     Major bucket = floor(log2 v) with [sub] linear sub-buckets per
     major, so the worst-case relative quantization error is ~1/sub. *)

  let sub_bits = 4
  let sub = 1 lsl sub_bits
  let n_buckets = (62 - sub_bits + 2) * sub

  let bucket_of v =
    if v < sub then if v < 0 then 0 else v
    else begin
      let major = ref 0 and x = ref v in
      while !x > 1 do
        major := !major + 1;
        x := !x lsr 1
      done;
      let m = !major in
      ((m - sub_bits + 1) * sub) + ((v lsr (m - sub_bits)) land (sub - 1))
    end

  (* Representative value: midpoint of the bucket's range. *)
  let bucket_value i =
    if i < sub then i
    else begin
      let m = (i lsr sub_bits) + sub_bits - 1 in
      let s = i land (sub - 1) in
      let width = 1 lsl (m - sub_bits) in
      (1 lsl m) + (s * width) + (width / 2)
    end

  type histogram = {
    hname : string;
    rows : int array array; (* per tid, allocated on first record *)
    hcount : int array; (* per tid, strided *)
    hsum : float array;
    hmax : int array;
  }

  let make_histogram ?(name = "") () =
    {
      hname = name;
      rows = Array.make max_tids [||];
      hcount = Array.make (max_tids * stride) 0;
      hsum = Array.make (max_tids * stride) 0.;
      hmax = Array.make (max_tids * stride) 0;
    }

  (* Recording is NOT gated on [enabled]: callers that own a histogram
     (Breakdown, bench harness) decide when to measure. *)
  let record_ns h ~tid v =
    let tid = tid land tid_mask in
    let v = if v < 0 then 0 else v in
    let row =
      let r = h.rows.(tid) in
      if Array.length r > 0 then r
      else begin
        let r = Array.make n_buckets 0 in
        h.rows.(tid) <- r;
        r
      end
    in
    let b = bucket_of v in
    row.(b) <- row.(b) + 1;
    let i = tid * stride in
    h.hcount.(i) <- h.hcount.(i) + 1;
    h.hsum.(i) <- h.hsum.(i) +. float_of_int v;
    if v > h.hmax.(i) then h.hmax.(i) <- v

  let record_span_s h ~tid dt = record_ns h ~tid (int_of_float (dt *. 1e9))

  type hsnap = {
    count : int;
    mean_ns : float;
    max_ns : int;
    p50 : int;
    p90 : int;
    p99 : int;
    p999 : int;
  }

  let hsnap_zero =
    { count = 0; mean_ns = 0.; max_ns = 0; p50 = 0; p90 = 0; p99 = 0; p999 = 0 }

  (* Percentile snapshot of one merged bucket array — shared between the
     registry histograms and the sliding windows. *)
  let snap_of_merged merged ~count ~sum ~max_v =
    if count = 0 then hsnap_zero
    else begin
      let percentile q =
        let rank =
          let r = int_of_float (ceil (q *. float_of_int count)) in
          if r < 1 then 1 else r
        in
        let acc = ref 0 and res = ref max_v in
        (try
           for i = 0 to n_buckets - 1 do
             acc := !acc + merged.(i);
             if !acc >= rank then begin
               res := bucket_value i;
               raise Exit
             end
           done
         with Exit -> ());
        if !res > max_v then max_v else !res
      in
      {
        count;
        mean_ns = sum /. float_of_int count;
        max_ns = max_v;
        p50 = percentile 0.50;
        p90 = percentile 0.90;
        p99 = percentile 0.99;
        p999 = percentile 0.999;
      }
    end

  let hsnapshot h =
    let count = ref 0 and sum = ref 0. and max_v = ref 0 in
    for t = 0 to max_tids - 1 do
      let i = t * stride in
      count := !count + h.hcount.(i);
      sum := !sum +. h.hsum.(i);
      if h.hmax.(i) > !max_v then max_v := h.hmax.(i)
    done;
    if !count = 0 then hsnap_zero
    else begin
      let merged = Array.make n_buckets 0 in
      Array.iter
        (fun row ->
          if Array.length row > 0 then
            Array.iteri (fun i c -> merged.(i) <- merged.(i) + c) row)
        h.rows;
      snap_of_merged merged ~count:!count ~sum:!sum ~max_v:!max_v
    end

  let reset_histogram h =
    Array.iter
      (fun row -> if Array.length row > 0 then Array.fill row 0 (Array.length row) 0)
      h.rows;
    Array.fill h.hcount 0 (Array.length h.hcount) 0;
    Array.fill h.hsum 0 (Array.length h.hsum) 0.;
    Array.fill h.hmax 0 (Array.length h.hmax) 0

  let hsnap_json (s : hsnap) : Json.t =
    Json.Obj
      [
        ("count", Json.Int s.count);
        ("mean_ns", Json.Float s.mean_ns);
        ("max_ns", Json.Int s.max_ns);
        ("p50_ns", Json.Int s.p50);
        ("p90_ns", Json.Int s.p90);
        ("p99_ns", Json.Int s.p99);
        ("p999_ns", Json.Int s.p999);
      ]

  (* ---- registry ---- *)

  let reg_mutex = Mutex.create ()
  let reg_counters : (string, counter) Hashtbl.t = Hashtbl.create 32
  let reg_histograms : (string, histogram) Hashtbl.t = Hashtbl.create 32
  let counter_order : counter list ref = ref []
  let histogram_order : histogram list ref = ref []

  let counter name =
    Mutex.protect reg_mutex (fun () ->
        match Hashtbl.find_opt reg_counters name with
        | Some c -> c
        | None ->
            let c =
              { cname = name; cells = Array.make (max_tids * stride) 0 }
            in
            Hashtbl.add reg_counters name c;
            counter_order := c :: !counter_order;
            c)

  let histogram name =
    Mutex.protect reg_mutex (fun () ->
        match Hashtbl.find_opt reg_histograms name with
        | Some h -> h
        | None ->
            let h = make_histogram ~name () in
            Hashtbl.add reg_histograms name h;
            histogram_order := h :: !histogram_order;
            h)

  let counter_name c = c.cname
  let histogram_name h = h.hname
  let all_counters () = List.rev !counter_order
  let all_histograms () = List.rev !histogram_order

  let reset_all () =
    List.iter reset_counter (all_counters ());
    List.iter reset_histogram (all_histograms ())

  let to_json () : Json.t =
    let counter_json c =
      let per = counter_per_thread c in
      let nz = ref [] in
      Array.iteri
        (fun t v -> if v <> 0 then nz := (string_of_int t, Json.Int v) :: !nz)
        per;
      Json.Obj
        [
          ("total", Json.Int (counter_value c));
          ("per_thread", Json.Obj (List.rev !nz));
        ]
    in
    Json.Obj
      [
        ( "counters",
          Json.Obj
            (List.map (fun c -> (c.cname, counter_json c)) (all_counters ())) );
        ( "histograms",
          Json.Obj
            (List.filter_map
               (fun h ->
                 let s = hsnapshot h in
                 if s.count = 0 then None else Some (h.hname, hsnap_json s))
               (all_histograms ())) );
      ]

  let dump ppf =
    Format.fprintf ppf "--- metrics ---@.";
    List.iter
      (fun c ->
        let v = counter_value c in
        if v <> 0 then Format.fprintf ppf "%-28s %d@." c.cname v)
      (all_counters ());
    List.iter
      (fun h ->
        let s = hsnapshot h in
        if s.count > 0 then
          Format.fprintf ppf
            "%-28s n=%d mean=%.0fns p50=%d p90=%d p99=%d p999=%d max=%d@."
            h.hname s.count s.mean_ns s.p50 s.p90 s.p99 s.p999 s.max_ns)
      (all_histograms ())
end

(* Sliding-window histograms: the live telemetry plane.  A window is a
   ring of [epochs] bucket arrays, each covering [epoch_s] seconds;
   recording lands in the slot of the value's absolute epoch and slots
   the clock has moved past are recycled in place, so the record path
   never allocates and a read merges at most [epochs] preallocated
   arrays.  Deliberately lock-free with plain int cells: a lost
   increment under concurrent recorders skews a telemetry percentile by
   one sample, which is harmless; the registry itself is mutexed. *)
module Window = struct
  type t = {
    wname : string;
    epochs : int;
    epoch_s : float;
    wbuckets : int array array;  (* epochs x n_buckets *)
    wcount : int array;
    wsum : float array;
    wmax : int array;
    mutable cur_abs : int;  (* absolute epoch owning the current slot *)
  }

  let make ?(epochs = 10) ?(epoch_s = 1.0) name =
    if epochs < 1 then invalid_arg "Obs.Window.create: epochs";
    if epoch_s <= 0. then invalid_arg "Obs.Window.create: epoch_s";
    {
      wname = name;
      epochs;
      epoch_s;
      wbuckets = Array.make_matrix epochs Metrics.n_buckets 0;
      wcount = Array.make epochs 0;
      wsum = Array.make epochs 0.;
      wmax = Array.make epochs 0;
      cur_abs = 0;
    }

  let wmutex = Mutex.create ()
  let wreg : (string, t) Hashtbl.t = Hashtbl.create 8
  let worder : t list ref = ref []

  let create ?epochs ?epoch_s name =
    Mutex.protect wmutex (fun () ->
        match Hashtbl.find_opt wreg name with
        | Some w -> w
        | None ->
            let w = make ?epochs ?epoch_s name in
            Hashtbl.add wreg name w;
            worder := w :: !worder;
            w)

  let name w = w.wname
  let window_s w = float_of_int w.epochs *. w.epoch_s
  let all () = List.rev !worder
  let find name = Mutex.protect wmutex (fun () -> Hashtbl.find_opt wreg name)

  let clear_slot w i =
    Array.fill w.wbuckets.(i) 0 Metrics.n_buckets 0;
    w.wcount.(i) <- 0;
    w.wsum.(i) <- 0.;
    w.wmax.(i) <- 0

  (* Advance to absolute epoch [abs]: every slot the clock moved past is
     stale (its epoch fell out of the window) and is recycled. *)
  let rotate w abs =
    if abs > w.cur_abs then begin
      let gap = abs - w.cur_abs in
      let n = if gap > w.epochs then w.epochs else gap in
      for k = 1 to n do
        clear_slot w ((w.cur_abs + k) mod w.epochs)
      done;
      w.cur_abs <- abs
    end

  let abs_of w now = int_of_float (now /. w.epoch_s)

  let record_ns w ?now v =
    let now = match now with Some t -> t | None -> Unix.gettimeofday () in
    let v = if v < 0 then 0 else v in
    rotate w (abs_of w now);
    let i = w.cur_abs mod w.epochs in
    let b = Metrics.bucket_of v in
    w.wbuckets.(i).(b) <- w.wbuckets.(i).(b) + 1;
    w.wcount.(i) <- w.wcount.(i) + 1;
    w.wsum.(i) <- w.wsum.(i) +. float_of_int v;
    if v > w.wmax.(i) then w.wmax.(i) <- v

  let record_span_s w ?now dt = record_ns w ?now (int_of_float (dt *. 1e9))

  let snapshot ?now w =
    let now = match now with Some t -> t | None -> Unix.gettimeofday () in
    rotate w (abs_of w now);
    let count = ref 0 and sum = ref 0. and max_v = ref 0 in
    for i = 0 to w.epochs - 1 do
      count := !count + w.wcount.(i);
      sum := !sum +. w.wsum.(i);
      if w.wmax.(i) > !max_v then max_v := w.wmax.(i)
    done;
    if !count = 0 then Metrics.hsnap_zero
    else begin
      let merged = Array.make Metrics.n_buckets 0 in
      Array.iter
        (fun row -> Array.iteri (fun i c -> merged.(i) <- merged.(i) + c) row)
        w.wbuckets;
      Metrics.snap_of_merged merged ~count:!count ~sum:!sum ~max_v:!max_v
    end

  let reset w =
    for i = 0 to w.epochs - 1 do
      clear_slot w i
    done

  let to_json ?now () =
    Json.Obj
      (List.map
         (fun w ->
           let s = snapshot ?now w in
           ( w.wname,
             Json.Obj
               (("window_s", Json.Float (window_s w))
               ::
               (match Metrics.hsnap_json s with
               | Json.Obj kvs -> kvs
               | _ -> [])) ))
         (all ()))
end

module Trace = struct
  type kind =
    | Tx
    | Tx_abort
    | Combine
    | Helping
    | Copy
    | Apply
    | Flush
    | Lambda
    | Sleep
    | Fence
    | Rwlock_acquire
    | Rwlock_contend
    | Recovery
    | Checkpoint
    | Crash
    | Db_op
    | Serve_op
    | Batch
    | Commit
    | Ingress
    | Prepare
    | Decide
    | Ack

  let kind_name = function
    | Tx -> "tx"
    | Tx_abort -> "tx_abort"
    | Combine -> "combine"
    | Helping -> "helping"
    | Copy -> "replica_copy"
    | Apply -> "apply"
    | Flush -> "flush"
    | Lambda -> "lambda"
    | Sleep -> "sleep"
    | Fence -> "fence"
    | Rwlock_acquire -> "rwlock_acquire"
    | Rwlock_contend -> "rwlock_contend"
    | Recovery -> "recovery"
    | Checkpoint -> "checkpoint"
    | Crash -> "crash"
    | Db_op -> "db_op"
    | Serve_op -> "serve_op"
    | Batch -> "batch"
    | Commit -> "commit"
    | Ingress -> "ingress"
    | Prepare -> "prepare"
    | Decide -> "decide"
    | Ack -> "ack"

  let kind_cat = function
    | Fence | Crash -> "pm"
    | Rwlock_acquire | Rwlock_contend | Sleep -> "sync"
    | Db_op | Serve_op | Batch | Commit | Ingress | Prepare | Decide | Ack ->
        "db"
    | _ -> "ptm"

  type ring = {
    mutable n : int; (* total events ever recorded on this ring *)
    ks : kind array;
    rts : float array; (* absolute microseconds *)
    rdur : float array; (* microseconds; < 0 encodes an instant *)
    rarg : int array;
    rrid : int array; (* request id; 0 = none *)
  }

  let default_capacity = 16384
  let cap = ref default_capacity
  let on = ref false
  let rings : ring option array = Array.make max_tids None
  let base_us = ref 0.
  let now_us () = Unix.gettimeofday () *. 1e6
  let clear () = Array.fill rings 0 max_tids None

  let enable ?(capacity = default_capacity) () =
    clear ();
    cap := max 16 capacity;
    base_us := now_us ();
    on := true

  let disable () = on := false
  let is_on () = !on

  let ring_for tid =
    match rings.(tid) with
    | Some r -> r
    | None ->
        let c = !cap in
        let r =
          {
            n = 0;
            ks = Array.make c Tx;
            rts = Array.make c 0.;
            rdur = Array.make c 0.;
            rarg = Array.make c 0;
            rrid = Array.make c 0;
          }
        in
        rings.(tid) <- Some r;
        r

  let record k ~tid ~ts ~dur ~arg ~rid =
    let tid = tid land tid_mask in
    let r = ring_for tid in
    let i = r.n mod Array.length r.ks in
    r.ks.(i) <- k;
    r.rts.(i) <- ts;
    r.rdur.(i) <- dur;
    r.rarg.(i) <- arg;
    r.rrid.(i) <- rid;
    r.n <- r.n + 1

  let instant ?(arg = 0) ?(rid = 0) k ~tid =
    if !on then record k ~tid ~ts:(now_us ()) ~dur:(-1.) ~arg ~rid

  (* [t0] is Unix.gettimeofday () sampled at span start, in seconds. *)
  let complete ?(arg = 0) ?(rid = 0) k ~tid ~t0 =
    if !on then begin
      let ts = t0 *. 1e6 in
      record k ~tid ~ts ~dur:(now_us () -. ts) ~arg ~rid
    end

  let span ?(arg = 0) ?(rid = 0) k ~tid f =
    if not !on then f ()
    else begin
      let t0 = Unix.gettimeofday () in
      match f () with
      | r ->
          complete ~arg ~rid k ~tid ~t0;
          r
      | exception e ->
          complete ~arg ~rid k ~tid ~t0;
          raise e
    end

  let recorded () =
    Array.fold_left
      (fun acc -> function None -> acc | Some r -> acc + r.n)
      0 rings

  let dropped () =
    Array.fold_left
      (fun acc -> function
        | None -> acc
        | Some r -> acc + max 0 (r.n - Array.length r.ks))
      0 rings

  let export () : Json.t =
    let evs = ref [] in
    for tid = max_tids - 1 downto 0 do
      match rings.(tid) with
      | None -> ()
      | Some r ->
          let c = Array.length r.ks in
          let first = max 0 (r.n - c) in
          for j = r.n - 1 downto first do
            let i = j mod c in
            let args =
              let v = [ ("v", Json.Int r.rarg.(i)) ] in
              if r.rrid.(i) <> 0 then ("rid", Json.Int r.rrid.(i)) :: v else v
            in
            let common =
              [
                ("name", Json.String (kind_name r.ks.(i)));
                ("cat", Json.String (kind_cat r.ks.(i)));
                ("ts", Json.Float (r.rts.(i) -. !base_us));
                ("pid", Json.Int 0);
                ("tid", Json.Int tid);
                ("args", Json.Obj args);
              ]
            in
            let ev =
              if r.rdur.(i) < 0. then
                Json.Obj (("ph", Json.String "i") :: ("s", Json.String "t") :: common)
              else
                Json.Obj
                  (("ph", Json.String "X") :: ("dur", Json.Float r.rdur.(i)) :: common)
            in
            evs := ev :: !evs
          done
    done;
    let meta =
      Json.Obj
        [
          ("name", Json.String "process_name");
          ("ph", Json.String "M");
          ("pid", Json.Int 0);
          ("args", Json.Obj [ ("name", Json.String "repro") ]);
        ]
    in
    Json.Obj
      [
        ("traceEvents", Json.List (meta :: !evs));
        ("displayTimeUnit", Json.String "ms");
      ]

  let write_file path =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        Json.to_channel oc (export ());
        output_char oc '\n')
end

let is_active () = Metrics.is_on () || Trace.is_on ()

(* Prometheus text exposition 0.0.4.  Metric names must match
   [a-zA-Z_:][a-zA-Z0-9_:]*; registry names use dots, so sanitize. *)
let prom_name s =
  String.mapi
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> c
      | '0' .. '9' when i > 0 -> c
      | _ -> '_')
    s

let prom_float f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

let prometheus ?(extra = []) () =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  List.iter
    (fun c ->
      let v = Metrics.counter_value c in
      if v <> 0 then begin
        let n = prom_name (Metrics.counter_name c) in
        line "# TYPE %s counter" n;
        line "%s %d" n v
      end)
    (Metrics.all_counters ());
  let summary name ?(labels = "") (s : Metrics.hsnap) =
    let n = prom_name name in
    let q ql v =
      let sep = if labels = "" then "" else "," in
      line "%s{quantile=\"%s\"%s%s} %d" n ql sep labels v
    in
    line "# TYPE %s summary" n;
    q "0.5" s.Metrics.p50;
    q "0.9" s.Metrics.p90;
    q "0.99" s.Metrics.p99;
    q "0.999" s.Metrics.p999;
    line "%s_sum %s" n (prom_float (s.Metrics.mean_ns *. float_of_int s.Metrics.count));
    line "%s_count %d" n s.Metrics.count
  in
  List.iter
    (fun h ->
      let s = Metrics.hsnapshot h in
      if s.Metrics.count > 0 then summary (Metrics.histogram_name h) s)
    (Metrics.all_histograms ());
  List.iter
    (fun w ->
      let s = Window.snapshot w in
      if s.Metrics.count > 0 then
        summary (Window.name w)
          ~labels:(Printf.sprintf "window=\"%s\"" (prom_float (Window.window_s w)))
          s)
    (Window.all ());
  List.iter
    (fun (name, v) ->
      let base =
        match String.index_opt name '{' with
        | Some i -> String.sub name 0 i
        | None -> name
      in
      line "# TYPE %s gauge" base;
      line "%s %s" name (prom_float v))
    extra;
  Buffer.contents buf

(* Standard cross-PTM instruments. *)
let tx_commits = Metrics.counter "ptm.tx.commit"
let tx_aborts = Metrics.counter "ptm.tx.abort"
let help_count = Metrics.counter "ptm.helping"
let copy_count = Metrics.counter "ptm.replica_copy"
let rwlock_contention = Metrics.counter "sync.rwlock.contend"
let backoff_yields = Metrics.counter "sync.backoff.yield"
let tx_latency = Metrics.histogram "ptm.tx.latency"

let tx_committed ~tid ~t0 =
  if Metrics.is_on () then begin
    Metrics.incr tx_commits ~tid;
    Metrics.record_ns tx_latency ~tid
      (int_of_float ((Unix.gettimeofday () -. t0) *. 1e9))
  end;
  Trace.complete Trace.Tx ~tid ~t0

let tx_aborted ~tid =
  if Metrics.is_on () then Metrics.incr tx_aborts ~tid;
  Trace.instant Trace.Tx_abort ~tid

let helped ~tid =
  if Metrics.is_on () then Metrics.incr help_count ~tid;
  Trace.instant Trace.Helping ~tid

let replica_copied ~tid =
  if Metrics.is_on () then Metrics.incr copy_count ~tid

let rwlock_acquired ~tid = Trace.instant Trace.Rwlock_acquire ~tid

let rwlock_contended ~tid =
  if Metrics.is_on () then Metrics.incr rwlock_contention ~tid;
  Trace.instant Trace.Rwlock_contend ~tid

let backoff_yielded ~tid =
  if Metrics.is_on () then Metrics.incr backoff_yields ~tid

let drain_aborts = Metrics.counter "sync.rwlock.drain_aborted"

let rwlock_drain_aborted ~tid =
  if Metrics.is_on () then Metrics.incr drain_aborts ~tid;
  Trace.instant Trace.Rwlock_contend ~tid

(* Progress instruments for the deterministic-scheduler harness: how
   helping behaves when the announcing thread is stalled or dead. *)
let progress_helped = Metrics.counter "ptm.progress.helped_completion"
let progress_stalled_done = Metrics.counter "ptm.progress.stalled_op_completed"
let progress_gap = Metrics.histogram "ptm.progress.announce_to_done_steps"

let progress_op_completed ~tid ~helped:h ~stalled_announcer ~gap_steps =
  if Metrics.is_on () then begin
    if h then Metrics.incr progress_helped ~tid;
    if stalled_announcer then Metrics.incr progress_stalled_done ~tid;
    if gap_steps >= 0 then Metrics.record_ns progress_gap ~tid gap_steps
  end

(* Media-fault and hardened-recovery instruments.  Fault injection happens
   on a quiesced region (at/after a simulated crash), so the counters are
   attributed to tid 0. *)
let fault_torn = Metrics.counter "pmem.fault.torn_line"
let fault_flip = Metrics.counter "pmem.fault.bit_flip"
let recovery_fallbacks = Metrics.counter "ptm.recovery.fallback"
let recovery_truncations = Metrics.counter "ptm.recovery.log_truncated"
let recovery_failures = Metrics.counter "ptm.recovery.unrecoverable"

let torn_line_persisted () =
  if Metrics.is_on () then Metrics.incr fault_torn ~tid:0

let bit_flip_injected () =
  if Metrics.is_on () then Metrics.incr fault_flip ~tid:0

let recovery_fell_back () =
  if Metrics.is_on () then Metrics.incr recovery_fallbacks ~tid:0

let recovery_truncated_log () =
  if Metrics.is_on () then Metrics.incr recovery_truncations ~tid:0

let recovery_unrecoverable () =
  if Metrics.is_on () then Metrics.incr recovery_failures ~tid:0
