(* Wire protocol of the RedoDB serving front-end.

   Framing: every message (request or response) is one frame

     <decimal payload length> '\n' <payload bytes>

   The payload is a line of space-separated tokens.  A token is either an
   atom (command word, integer, float — no spaces, never starts with
   "digits:") or a netstring-encoded string "<len>:<bytes>", which makes
   keys and values binary-safe (spaces, newlines, NULs).  Examples:

     12\nGET 3:abc             -> VAL 5:hello | NIL
     PUT 3:abc 5:hello         -> OK | OVERLOADED | ERR 8:crashing
     DEL 3:abc                 -> OK
     MGET 1:a 1:b              -> VALS V 2:v1 N
     MPUT 1:a 2:v1 1:b 2:v2    -> COMMITTED 7 3 (txid, commit epoch)
                                | UNAVAILABLE 8:crashing (retryable)
                                | INDOUBT 7 (outcome unknown until recovery)
     SCAN 5:user: 100          -> KVS 2 6:user:1 3:ada 6:user:2 5:grace
     STATS                     -> JSON <netstring of a JSON document>
     METRICS                   -> TEXT <netstring of Prometheus exposition>
     CRASH 42 0.5 0.3 0        -> OK 12.5 (recovery ms) | ERR <detail>
     PING                      -> OK

   Shard-health admin verbs (PR 9 fault isolation):

     HEALTH                    -> JSON <per-shard health document>
     FREEZE 2                  -> OK (shard 2 quarantined) | ERR <detail>
     REBUILD 2                 -> OK 3.1 (rebuild ms) | ERR <detail>
     CORRUPT 2 42 3            -> OK (3 silent bit flips, seed 42, into
                                  shard 2's durable metadata — torture
                                  hook, like CRASH)

   A data request whose shard is quarantined or rebuilding answers

     SHARD_UNAVAILABLE <s>     (retryable after the shard readmits;
                                every other shard keeps serving)

   Request envelope: any request payload may start with up to three
   optional prefixes, in this order —

     RID <n>   (n > 0)  client-assigned trace id, echoed on the response
     TTL <us>  (us > 0) deadline budget in microseconds: if the request
                        is still queued when it expires, the server sheds
                        it with the retryable TIMEOUT response instead of
                        wasting engine work
     TOK <n>   (n > 0)  client write token (PUT/DEL/MPUT): the commit
                        leaves a durable outcome record under the token,
                        so a retried token dedups server-side
                        (exactly-once) and TXSTAT can resolve its fate

   e.g.  RID 7 TTL 50000 TOK 91 MPUT 1:a 2:v1 1:b 2:v2

   Absent prefixes = 0, so old clients and servers interoperate.  Only
   RID is echoed on responses.

     TXSTAT 91                 -> TXSTAT COMMITTED 7 3 1
                                  (txid, commit epoch, outcome records)
                                | TXSTAT ABORTED | TXSTAT UNKNOWN
     (shed request)            -> TIMEOUT  (retryable: nothing executed)

   The same grammar is documented for humans in README.md ("Serving"). *)

(* Frames above this size are rejected rather than buffered: admission
   control starts at the protocol layer. *)
let max_frame = 1 lsl 24

type req =
  | Ping
  | Get of string
  | Put of string * string
  | Del of string
  | Scan of { prefix : string; max : int }
  | Mget of string list
  | Mput of (string * string) list
  | Stats
  | Metrics
  | Crash of { seed : int; evict_prob : float; torn_prob : float; bitflips : int }
  | Txstat of int  (* resolve the fate of the write carrying this token *)
  | Health  (* per-shard health states + counters, as JSON *)
  | Freeze of int  (* quarantine one shard by hand *)
  | Rebuild of int  (* rebuild a quarantined shard online *)
  | Corrupt of { shard : int; seed : int; count : int }
      (* inject silent durable-metadata rot (torture hook, like CRASH) *)

(* Request envelope: the optional RID/TTL/TOK prefixes (0 = absent). *)
type env = { rid : int; ttl_us : int; tok : int }

type resp =
  | Ok
  | Ok_ms of float
  | Val of string
  | Nil
  | Vals of string option list
  | Kvs of (string * string) list
  | Json of string
  | Text of string
  | Overloaded
  | Committed of { txid : int; epoch : int }
  | Unavail of string
  | In_doubt of int
  | Timeout  (* shed before execution (TTL expired / overload): retryable *)
  | Shard_unavailable of int
      (* the one shard this request needed is quarantined or rebuilding;
         other shards keep serving — retryable after readmission *)
  | Txstat_committed of { txid : int; epoch : int; records : int }
  | Txstat_aborted
  | Txstat_unknown
  | Err of string

(* ---- payload encoding ---- *)

let add_str b s =
  Buffer.add_string b (string_of_int (String.length s));
  Buffer.add_char b ':';
  Buffer.add_string b s

let add_sep b = Buffer.add_char b ' '

let payload f =
  let b = Buffer.create 64 in
  f b;
  Buffer.contents b

(* "RID <n> " trace-context prefix; omitted when the id is 0. *)
let with_rid rid p = if rid > 0 then Printf.sprintf "RID %d %s" rid p else p

(* Full request envelope, fixed prefix order RID, TTL, TOK. *)
let with_env { rid; ttl_us; tok } p =
  let p = if tok > 0 then Printf.sprintf "TOK %d %s" tok p else p in
  let p = if ttl_us > 0 then Printf.sprintf "TTL %d %s" ttl_us p else p in
  with_rid rid p

let encode_req ?(rid = 0) ?(ttl_us = 0) ?(tok = 0) req =
  with_env { rid; ttl_us; tok }
  @@
  match req with
  | Ping -> "PING"
  | Get k -> payload (fun b -> Buffer.add_string b "GET "; add_str b k)
  | Put (k, v) ->
      payload (fun b ->
          Buffer.add_string b "PUT ";
          add_str b k;
          add_sep b;
          add_str b v)
  | Del k -> payload (fun b -> Buffer.add_string b "DEL "; add_str b k)
  | Scan { prefix; max } ->
      payload (fun b ->
          Buffer.add_string b "SCAN ";
          add_str b prefix;
          Buffer.add_string b (Printf.sprintf " %d" max))
  | Mget keys ->
      payload (fun b ->
          Buffer.add_string b "MGET";
          List.iter (fun k -> add_sep b; add_str b k) keys)
  | Mput kvs ->
      payload (fun b ->
          Buffer.add_string b "MPUT";
          List.iter
            (fun (k, v) ->
              add_sep b;
              add_str b k;
              add_sep b;
              add_str b v)
            kvs)
  | Stats -> "STATS"
  | Metrics -> "METRICS"
  | Crash { seed; evict_prob; torn_prob; bitflips } ->
      Printf.sprintf "CRASH %d %g %g %d" seed evict_prob torn_prob bitflips
  | Txstat tok -> Printf.sprintf "TXSTAT %d" tok
  | Health -> "HEALTH"
  | Freeze s -> Printf.sprintf "FREEZE %d" s
  | Rebuild s -> Printf.sprintf "REBUILD %d" s
  | Corrupt { shard; seed; count } ->
      Printf.sprintf "CORRUPT %d %d %d" shard seed count

let encode_resp ?(rid = 0) resp =
  with_rid rid
  @@
  match resp with
  | Ok -> "OK"
  | Ok_ms ms -> Printf.sprintf "OK %g" ms
  | Val v -> payload (fun b -> Buffer.add_string b "VAL "; add_str b v)
  | Nil -> "NIL"
  | Vals vs ->
      payload (fun b ->
          Buffer.add_string b "VALS";
          List.iter
            (function
              | Some v -> add_sep b; Buffer.add_string b "V "; add_str b v
              | None -> add_sep b; Buffer.add_char b 'N')
            vs)
  | Kvs kvs ->
      payload (fun b ->
          Buffer.add_string b (Printf.sprintf "KVS %d" (List.length kvs));
          List.iter
            (fun (k, v) ->
              add_sep b;
              add_str b k;
              add_sep b;
              add_str b v)
            kvs)
  | Json j -> payload (fun b -> Buffer.add_string b "JSON "; add_str b j)
  | Text t -> payload (fun b -> Buffer.add_string b "TEXT "; add_str b t)
  | Overloaded -> "OVERLOADED"
  | Committed { txid; epoch } -> Printf.sprintf "COMMITTED %d %d" txid epoch
  | Unavail d -> payload (fun b -> Buffer.add_string b "UNAVAILABLE "; add_str b d)
  | In_doubt txid -> Printf.sprintf "INDOUBT %d" txid
  | Timeout -> "TIMEOUT"
  | Shard_unavailable s -> Printf.sprintf "SHARD_UNAVAILABLE %d" s
  | Txstat_committed { txid; epoch; records } ->
      Printf.sprintf "TXSTAT COMMITTED %d %d %d" txid epoch records
  | Txstat_aborted -> "TXSTAT ABORTED"
  | Txstat_unknown -> "TXSTAT UNKNOWN"
  | Err msg -> payload (fun b -> Buffer.add_string b "ERR "; add_str b msg)

(* ---- payload decoding ---- *)

type token = Atom of string | Str of string

(* Tokenizer: a run of digits followed by ':' opens a netstring; anything
   else is an atom up to the next space. *)
let tokenize s =
  let n = String.length s in
  let rec digits i = if i < n && s.[i] >= '0' && s.[i] <= '9' then digits (i + 1) else i in
  let rec atom_end i = if i < n && s.[i] <> ' ' then atom_end (i + 1) else i in
  let rec go acc i =
    if i >= n then Result.Ok (List.rev acc)
    else if s.[i] = ' ' then go acc (i + 1)
    else
      let d = digits i in
      if d > i && d < n && s.[d] = ':' then begin
        let len = int_of_string (String.sub s i (d - i)) in
        if len > n - d - 1 then Error "truncated string token"
        else go (Str (String.sub s (d + 1) len) :: acc) (d + 1 + len)
      end
      else
        let e = atom_end i in
        go (Atom (String.sub s i (e - i)) :: acc) e
  in
  go [] 0

let str_tok = function Str s -> Result.Ok s | Atom a -> Error ("expected string, got " ^ a)

let int_tok = function
  | Atom a -> (
      match int_of_string_opt a with
      | Some i -> Result.Ok i
      | None -> Error ("expected int, got " ^ a))
  | Str _ -> Error "expected int, got string"

let float_tok = function
  | Atom a -> (
      match float_of_string_opt a with
      | Some f -> Result.Ok f
      | None -> Error ("expected float, got " ^ a))
  | Str _ -> Error "expected float, got string"

let ( let* ) = Result.bind

let rec strs acc = function
  | [] -> Result.Ok (List.rev acc)
  | t :: rest ->
      let* s = str_tok t in
      strs (s :: acc) rest

let rec pairs acc = function
  | [] -> Result.Ok (List.rev acc)
  | [ _ ] -> Error "odd number of strings in pair list"
  | k :: v :: rest ->
      let* k = str_tok k in
      let* v = str_tok v in
      pairs ((k, v) :: acc) rest

let split_rid = function
  | Atom "RID" :: n :: rest ->
      let* rid = int_tok n in
      if rid <= 0 then Error "RID must be positive" else Result.Ok (rid, rest)
  | toks -> Result.Ok (0, toks)

(* RID, then TTL, then TOK — each optional, each positive. *)
let split_env toks =
  let* rid, toks = split_rid toks in
  let* ttl_us, toks =
    match toks with
    | Atom "TTL" :: n :: rest ->
        let* us = int_tok n in
        if us <= 0 then Error "TTL must be positive" else Result.Ok (us, rest)
    | toks -> Result.Ok (0, toks)
  in
  let* tok, toks =
    match toks with
    | Atom "TOK" :: n :: rest ->
        let* tok = int_tok n in
        if tok <= 0 then Error "TOK must be positive" else Result.Ok (tok, rest)
    | toks -> Result.Ok (0, toks)
  in
  Result.Ok ({ rid; ttl_us; tok }, toks)

let decode_req_toks toks =
  match toks with
  | [ Atom "PING" ] -> Result.Ok Ping
  | [ Atom "GET"; k ] ->
      let* k = str_tok k in
      Result.Ok (Get k)
  | [ Atom "PUT"; k; v ] ->
      let* k = str_tok k in
      let* v = str_tok v in
      Result.Ok (Put (k, v))
  | [ Atom "DEL"; k ] ->
      let* k = str_tok k in
      Result.Ok (Del k)
  | [ Atom "SCAN"; prefix; max ] ->
      let* prefix = str_tok prefix in
      let* max = int_tok max in
      Result.Ok (Scan { prefix; max })
  | Atom "MGET" :: keys ->
      let* keys = strs [] keys in
      Result.Ok (Mget keys)
  | Atom "MPUT" :: kvs ->
      let* kvs = pairs [] kvs in
      Result.Ok (Mput kvs)
  | [ Atom "STATS" ] -> Result.Ok Stats
  | [ Atom "METRICS" ] -> Result.Ok Metrics
  | [ Atom "CRASH"; seed; evict; torn; flips ] ->
      let* seed = int_tok seed in
      let* evict_prob = float_tok evict in
      let* torn_prob = float_tok torn in
      let* bitflips = int_tok flips in
      Result.Ok (Crash { seed; evict_prob; torn_prob; bitflips })
  | [ Atom "TXSTAT"; tok ] ->
      let* tok = int_tok tok in
      if tok <= 0 then Error "TXSTAT token must be positive"
      else Result.Ok (Txstat tok)
  | [ Atom "HEALTH" ] -> Result.Ok Health
  | [ Atom "FREEZE"; s ] ->
      let* s = int_tok s in
      if s < 0 then Error "FREEZE shard must be non-negative"
      else Result.Ok (Freeze s)
  | [ Atom "REBUILD"; s ] ->
      let* s = int_tok s in
      if s < 0 then Error "REBUILD shard must be non-negative"
      else Result.Ok (Rebuild s)
  | [ Atom "CORRUPT"; shard; seed; count ] ->
      let* shard = int_tok shard in
      let* seed = int_tok seed in
      let* count = int_tok count in
      if shard < 0 then Error "CORRUPT shard must be non-negative"
      else Result.Ok (Corrupt { shard; seed; count })
  | Atom c :: _ -> Error ("unknown or malformed command " ^ c)
  | _ -> Error "empty or malformed request"

let decode_req_env p =
  let* toks = tokenize p in
  let* env, toks = split_env toks in
  let* req = decode_req_toks toks in
  Result.Ok (env, req)

let decode_req_rid p =
  Result.map (fun (env, req) -> (env.rid, req)) (decode_req_env p)

let decode_req p = Result.map snd (decode_req_rid p)

let rec vals acc = function
  | [] -> Result.Ok (List.rev acc)
  | Atom "N" :: rest -> vals (None :: acc) rest
  | Atom "V" :: v :: rest ->
      let* v = str_tok v in
      vals (Some v :: acc) rest
  | _ -> Error "malformed VALS item"

let decode_resp_toks toks =
  match toks with
  | [ Atom "OK" ] -> Result.Ok Ok
  | [ Atom "OK"; ms ] ->
      let* ms = float_tok ms in
      Result.Ok (Ok_ms ms)
  | [ Atom "VAL"; v ] ->
      let* v = str_tok v in
      Result.Ok (Val v)
  | [ Atom "NIL" ] -> Result.Ok Nil
  | Atom "VALS" :: items ->
      let* vs = vals [] items in
      Result.Ok (Vals vs)
  | Atom "KVS" :: count :: items ->
      let* n = int_tok count in
      let* kvs = pairs [] items in
      if List.length kvs <> n then Error "KVS count mismatch"
      else Result.Ok (Kvs kvs)
  | [ Atom "JSON"; j ] ->
      let* j = str_tok j in
      Result.Ok (Json j)
  | [ Atom "TEXT"; t ] ->
      let* t = str_tok t in
      Result.Ok (Text t)
  | [ Atom "OVERLOADED" ] -> Result.Ok Overloaded
  | [ Atom "COMMITTED"; txid; epoch ] ->
      let* txid = int_tok txid in
      let* epoch = int_tok epoch in
      Result.Ok (Committed { txid; epoch })
  | [ Atom "UNAVAILABLE"; d ] ->
      let* d = str_tok d in
      Result.Ok (Unavail d)
  | [ Atom "INDOUBT"; txid ] ->
      let* txid = int_tok txid in
      Result.Ok (In_doubt txid)
  | [ Atom "TIMEOUT" ] -> Result.Ok Timeout
  | [ Atom "SHARD_UNAVAILABLE"; s ] ->
      let* s = int_tok s in
      Result.Ok (Shard_unavailable s)
  | [ Atom "TXSTAT"; Atom "COMMITTED"; txid; epoch; records ] ->
      let* txid = int_tok txid in
      let* epoch = int_tok epoch in
      let* records = int_tok records in
      Result.Ok (Txstat_committed { txid; epoch; records })
  | [ Atom "TXSTAT"; Atom "ABORTED" ] -> Result.Ok Txstat_aborted
  | [ Atom "TXSTAT"; Atom "UNKNOWN" ] -> Result.Ok Txstat_unknown
  | [ Atom "ERR"; msg ] ->
      let* msg = str_tok msg in
      Result.Ok (Err msg)
  | _ -> Error "malformed response"

let decode_resp_rid p =
  let* toks = tokenize p in
  let* rid, toks = split_rid toks in
  let* resp = decode_resp_toks toks in
  Result.Ok (rid, resp)

let decode_resp p = Result.map snd (decode_resp_rid p)

(* ---- framed IO over a file descriptor ---- *)

module Io = struct
  exception Read_timeout

  (* Incremental (resumable) frame decoder: bytes are appended to a
     growable per-connection buffer as they arrive, and [next] either
     carves a complete frame out of it or answers [`Need_more] — it
     never blocks, which is what lets one reactor domain interleave
     thousands of half-received connections.  Consumed bytes are
     reclaimed by compaction (on demand, when space is needed) instead
     of per-frame allocation. *)
  module Decoder = struct
    type t = {
      mutable buf : Bytes.t;
      mutable pos : int;  (* next unconsumed byte *)
      mutable len : int;  (* filled bytes *)
    }

    let create ?(initial = 8192) () =
      { buf = Bytes.create (max 64 initial); pos = 0; len = 0 }

    let pending t = t.len - t.pos

    (* Make at least [n] writable bytes available after [len]:
       compact first (cheap, shifts only the live tail), then double. *)
    let ensure t n =
      if Bytes.length t.buf - t.len < n then begin
        let live = t.len - t.pos in
        if t.pos > 0 then begin
          Bytes.blit t.buf t.pos t.buf 0 live;
          t.pos <- 0;
          t.len <- live
        end;
        if Bytes.length t.buf - t.len < n then begin
          let cap = ref (Bytes.length t.buf) in
          while !cap - live < n do
            cap := !cap * 2
          done;
          let b = Bytes.create !cap in
          Bytes.blit t.buf 0 b 0 live;
          t.buf <- b
        end
      end

    (* Zero-copy fill: read straight into [buffer] at [write_off]
       (after [ensure]), then account the bytes with [filled]. *)
    let buffer t = t.buf
    let write_off t = t.len
    let room t = Bytes.length t.buf - t.len

    let filled t n =
      if n < 0 || n > room t then invalid_arg "Decoder.filled";
      t.len <- t.len + n

    let feed t src off n =
      ensure t n;
      Bytes.blit src off t.buf t.len n;
      t.len <- t.len + n

    let feed_string t s = feed t (Bytes.unsafe_of_string s) 0 (String.length s)

    (* Carve the next frame.  A decode error poisons the stream (the
       position past a malformed header is unknowable); callers answer
       once and close, exactly like the blocking path always did. *)
    let next t =
      let n = t.len in
      let rec digits i = if i < n && Bytes.get t.buf i >= '0' && Bytes.get t.buf i <= '9' then digits (i + 1) else i in
      let d = digits t.pos in
      if d - t.pos > 9 then `Error "frame header too long"
      else if d >= n then begin
        (* all digits so far; header still incomplete *)
        ensure t 64;
        `Need_more
      end
      else if Bytes.get t.buf d <> '\n' then
        `Error (Printf.sprintf "bad frame header byte %C" (Bytes.get t.buf d))
      else if d = t.pos then `Error "empty frame header"
      else begin
        let flen = int_of_string (Bytes.sub_string t.buf t.pos (d - t.pos)) in
        if flen > max_frame then `Error "frame too large"
        else if n - d - 1 >= flen then begin
          let p = Bytes.sub_string t.buf (d + 1) flen in
          t.pos <- d + 1 + flen;
          if t.pos = t.len then begin
            (* frame boundary: recycle the whole buffer for free *)
            t.pos <- 0;
            t.len <- 0
          end;
          `Frame p
        end
        else begin
          (* Reserve the rest of the payload up front so the reader
             can pull it in big slabs. *)
          ensure t (flen - (n - d - 1));
          `Need_more
        end
      end

    (* Why an EOF here is dirty, or [None] if the stream is at a clean
       frame boundary. *)
    let eof_reason t =
      if pending t = 0 then None
      else begin
        let n = t.len in
        let rec digits i = if i < n && Bytes.get t.buf i >= '0' && Bytes.get t.buf i <= '9' then digits (i + 1) else i in
        if digits t.pos >= n then Some "EOF inside frame header"
        else Some "EOF inside frame payload"
      end
  end

  type t = {
    fd : Unix.file_descr;
    dec : Decoder.t;
    mutable deadline : float;  (* absolute wall time; 0. = block forever *)
    mutable more : bool;  (* the last read filled the buffer: bytes may remain *)
  }

  let of_fd fd = { fd; dec = Decoder.create (); deadline = 0.; more = false }
  let set_deadline t d = t.deadline <- d
  let decoder t = t.dec

  let await_readable t =
    match Aio.wait_readable ~deadline:t.deadline t.fd with
    | `Ready -> ()
    | `Timed_out -> raise Read_timeout

  (* Blocking wrapper over the incremental decoder.  One frame;
     [Ok None] is a clean EOF at a frame boundary.  Waits go through
     [Aio]: a fiber parks on its loop, anything else blocks in select.
     An armed deadline waits before reading, so a blocking fd honours
     it too; otherwise the wait follows EAGAIN.  A read that filled the
     buffer may have left bytes behind that no new edge will announce,
     so the next read goes first.  EINTR and spurious wakeups leave the
     decoder untouched and just read again. *)
  let read_frame t =
    let rec fill ~wait =
      if wait then await_readable t;
      let room = Decoder.room t.dec in
      match Unix.read t.fd (Decoder.buffer t.dec) (Decoder.write_off t.dec) room with
      | n ->
          t.more <- n = room;
          n
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill ~wait:false
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          t.more <- false;
          fill ~wait:true
    in
    let rec go () =
      match Decoder.next t.dec with
      | `Frame p -> Result.Ok (Some p)
      | `Error reason -> Error reason
      | `Need_more -> (
          match fill ~wait:(t.deadline > 0. && not t.more) with
          | 0 -> (
              match Decoder.eof_reason t.dec with
              | None -> Result.Ok None
              | Some reason -> Error reason)
          | n ->
              Decoder.filled t.dec n;
              go ())
    in
    go ()

  (* One [Unix.write] per frame unless the socket is full: EAGAIN parks
     until the fd is writable. *)
  let write_all fd s =
    let b = Bytes.unsafe_of_string s in
    let rec go off len =
      if len > 0 then
        match Unix.write fd b off len with
        | n -> go (off + n) (len - n)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off len
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            ignore (Aio.wait_writable fd);
            go off len
    in
    go 0 (String.length s)

  let write_frame t p =
    write_all t.fd (string_of_int (String.length p) ^ "\n" ^ p)
end
