(* Closed-loop load over loopback TCP against a child redodb_server, and
   the phases of one serving-workload run: set-up, warm-up, measured
   window, drain, audit, power-fail, audit. *)

module P = Serve.Protocol
module D = P.Io.Decoder

(* The server stopped answering, closed the connection or sent garbage. *)
exception Lost of string

let now = Clock.now
let host = "127.0.0.1"
let recv_timeout_s = 10.
let max_spans_per_conn = 50_000

type inflight = { op : Gen.op; t_send : float; wr : (Audit.log * int) option }
type phase = { t0 : float; t_end : float; measure : bool; trace : bool }

type conn = {
  id : int;  (* writer id - 1 *)
  fd : Unix.file_descr;
  io : P.Io.t;
  depth : int;
  st : Gen.stream;
  plog : Audit.log;
  glog : Audit.log;
  inflight : (int, inflight) Hashtbl.t;
  mutable rid : int;
  reads : Audit.reads;
  mutable scans : (int * (string * string) list * float) list;
  rec_ : Outcome.recorder;  (* measured window *)
  mutable attempted : int;
  mutable failed : int;
  mutable spans : Outcome.span list;
  mutable nspans : int;
}

let connect ~port ~id ~depth ~st ~(audit : Audit.t) ~seconds =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.TCP_NODELAY true;
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO recv_timeout_s;
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     Unix.close fd;
     raise e);
  {
    id;
    fd;
    io = P.Io.of_fd fd;
    depth;
    st;
    plog = audit.plogs.(id);
    glog = audit.glogs.(id);
    inflight = Hashtbl.create 64;
    rid = 0;
    reads = Audit.reads ();
    scans = [];
    rec_ = Outcome.recorder ~seconds;
    attempted = 0;
    failed = 0;
    spans = [];
    nspans = 0;
  }

let send c =
  let op = Gen.next c.st in
  let log = match op with Put _ -> Some c.plog | Mput _ -> Some c.glog | _ -> None in
  let seq = match log with Some l -> l.n | None -> 0 in
  c.rid <- c.rid + 1;
  let payload = P.encode_req ~rid:c.rid (Gen.request ~writer:(c.id + 1) ~seq op) in
  let t_send = now () in
  let wr =
    match (op, log) with
    | (Put target | Mput target), Some l -> Some (l, Audit.record l ~target ~t_send)
    | _ -> None
  in
  Hashtbl.replace c.inflight c.rid { op; t_send; wr };
  c.attempted <- c.attempted + 1;
  P.Io.write_frame c.io payload

let complete c ph rid resp t =
  match Hashtbl.find_opt c.inflight rid with
  | None -> raise (Lost (Printf.sprintf "reply to unknown request id %d" rid))
  | Some f ->
      Hashtbl.remove c.inflight rid;
      let ok =
        match (f.op, resp) with
        | Get k, P.Val v ->
            let seen =
              match Gen.tag_of_value v with Some tag -> Audit.Tag tag | None -> Audit.Garbled v
            in
            Audit.add_read c.reads ~key:k seen ~t_reply:t;
            true
        | Get k, P.Nil ->
            Audit.add_read c.reads ~key:k Missing ~t_reply:t;
            true
        | Put _, P.Ok | Mput _, P.Committed _ -> true
        | Scan p, P.Kvs kvs ->
            c.scans <- (p, kvs, t) :: c.scans;
            true
        | _ -> false
      in
      (match f.wr with Some (l, seq) -> if ok then Audit.ack l seq ~t else Audit.fail l seq | None -> ());
      if not ok then c.failed <- c.failed + 1
      else if ph.measure then begin
        let cls = Gen.cls_of f.op in
        Outcome.record c.rec_ ~t0:ph.t0 ~t_end:ph.t_end cls ~t_send:f.t_send ~t_ack:t;
        if ph.trace && c.nspans < max_spans_per_conn then begin
          c.spans <- { conn = c.id; rid; cls; t0 = f.t_send; t1 = t } :: c.spans;
          c.nspans <- c.nspans + 1
        end
      end

(* Keep [depth] requests in flight until [ph.t_end], then drain. *)
let run_phase c ph =
  let dec = P.Io.decoder c.io in
  let rec frames () =
    match D.next dec with
    | `Need_more -> ()
    | `Error e -> raise (Lost ("bad frame: " ^ e))
    | `Frame payload ->
        let t = now () in
        (match P.decode_resp_rid payload with
        | Ok (rid, resp) -> complete c ph rid resp t
        | Error e -> raise (Lost ("bad reply: " ^ e)));
        if t < ph.t_end then send c;
        frames ()
  in
  try
    while Hashtbl.length c.inflight < c.depth && now () < ph.t_end do
      send c
    done;
    while Hashtbl.length c.inflight > 0 do
      D.ensure dec 65536;
      (match Unix.read c.fd (D.buffer dec) (D.write_off dec) (D.room dec) with
      | 0 -> raise (Lost "server closed the connection")
      | n -> D.filled dec n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          raise (Lost (Printf.sprintf "no reply within %.0f s" recv_timeout_s))
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      frames ()
    done
  with Unix.Unix_error (e, fn, _) -> raise (Lost (fn ^ ": " ^ Unix.error_message e))

(* [f] on every item, the first in this domain and each other in a
   domain of its own; re-raises the first failure after all have ended. *)
let parallel items f =
  match items with
  | [] -> ()
  | x0 :: rest ->
      let ds = List.map (fun x -> Domain.spawn (fun () -> f x)) rest in
      let r0 = try Ok (f x0) with e -> Error e in
      let rs = List.map (fun d -> try Ok (Domain.join d) with e -> Error e) ds in
      List.iter (function Error e -> raise e | Ok () -> ()) (r0 :: rs)

(* ---- set-up ---- *)

(* An engine used only for [shard_of], to route preload chunks. *)
let router =
  lazy
    (Serve.Engine.create
       {
         Serve.Engine.default_config with
         shards = Child.shards;
         num_threads = 1;
         capacity_bytes = 0;
         batch = false;
       })

let rec chunks n l =
  if l = [] then []
  else
    let rec take k acc = function
      | x :: tl when k > 0 -> take (k - 1) (x :: acc) tl
      | rest -> (List.rev acc, rest)
    in
    let c, rest = take n [] l in
    c :: chunks n rest

(* Preload pairs grouped by owning shard, [n] per group. *)
let by_shard n pairs =
  let r = Lazy.force router in
  let buckets = Array.make (Serve.Engine.shards r) [] in
  List.iter (fun ((k, _) as kv) -> let s = Serve.Engine.shard_of r k in buckets.(s) <- kv :: buckets.(s)) pairs;
  List.concat_map (fun b -> chunks n (List.rev b)) (Array.to_list buckets)

(* Keys per preload transaction. *)
let preload_chunk = 256

(* Every key, by single-shard MPUTs: one PTM transaction per chunk and
   no two-phase commit, so set-up leaves few samples (under 1% of a
   run's) in the server's histograms. *)
let preload ~port w =
  let c = Serve.Client.connect ~retries:100 ~retry_delay:0.02 ~host ~port () in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
  let p = Serve.Client.Pipeline.create ~window:32 c in
  let tickets =
    List.map (fun chunk -> Serve.Client.Pipeline.submit p (P.Mput chunk)) (by_shard preload_chunk (Gen.preload_pairs w))
  in
  List.iter
    (fun tk ->
      match Serve.Client.Pipeline.await p tk with
      | P.Committed _ -> ()
      | _ -> failwith "preload MPUT refused")
    tickets

(* Start a server and preload it; the set-up time covers both. *)
let setup ~extra w =
  let t0 = now () in
  let ch = Child.spawn ~extra () in
  (try preload ~port:ch.port w
   with e ->
     ignore (Child.stop ch);
     raise e);
  (ch, now () -. t0)

(* ---- audit over the wire ---- *)

let mget c keys =
  match Serve.Client.mget c keys with
  | Ok vs -> vs
  | Error _ -> failwith "audit MGET refused"

(* Final values of every point key and every group. *)
let read_all c (w : Gen.workload) =
  let points = Array.of_list (List.concat_map (mget c) (chunks 256 (List.init w.points Gen.point_key))) in
  let groups =
    Array.init w.groups (fun g -> mget c (List.init Gen.group_size (Gen.group_key g)))
  in
  (points, groups)

let audit_final a (points, groups) =
  Array.iteri (Audit.check_point a) points;
  Array.iteri (Audit.check_group a) groups

let metrics_of stats = Option.value (Obs.Json.member "metrics" stats) ~default:Obs.Json.Null

let stats c =
  match Serve.Client.stats c with Ok j -> j | Error e -> failwith ("STATS refused: " ^ e)

let nvm_mb stats =
  match Obs.Json.member "shard_stats" stats with
  | Some (Obs.Json.List rows) ->
      let words =
        List.fold_left
          (fun acc r -> match Obs.Json.member "nvm_words" r with Some (Obs.Json.Int n) -> acc + n | _ -> acc)
          0 rows
      in
      float_of_int (words * 8) /. 1048576.
  | _ -> failwith "STATS without shard_stats"

let with_client port f =
  let c = Serve.Client.connect ~retries:50 ~retry_delay:0.02 ~host ~port () in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> f c)

(* One run of a serving workload.  [trace_file] turns on the server's
   metrics and span trace (written there when it drains). *)
let run (w : Gen.workload) ~seed ~seconds ~warmup ~setups ~trace_file : Outcome.t =
  let extra = match trace_file with None -> [] | Some f -> [ "--metrics"; "--trace"; f ] in
  let traced = trace_file <> None in
  let rec set_up k acc =
    let ch, s = setup ~extra w in
    if k <= 1 then (ch, List.rev (s :: acc))
    else begin
      ignore (Child.stop ch);
      set_up (k - 1) (s :: acc)
    end
  in
  let ch, setup_s = set_up setups [] in
  Fun.protect ~finally:(fun () -> ignore (Child.stop ch)) @@ fun () ->
  let audit = Audit.create ~points:w.points ~groups:w.groups ~writers:w.conns in
  let zipf = match w.dist with Zipf theta -> Some (Gen.Zipf.create ~n:w.points ~theta) | Uniform -> None in
  let conns =
    List.init w.conns (fun id ->
        connect ~port:ch.port ~id ~depth:w.depth ~st:(Gen.stream ?zipf w ~seed ~id) ~audit ~seconds)
  in
  let check_alive () =
    if not (Child.alive ch) then
      failwith ("server died during the run: " ^ Child.describe (Option.get ch.status))
  in
  let phase ~t0 ~secs ~measure =
    try parallel conns (fun c -> run_phase c { t0; t_end = t0 +. secs; measure; trace = traced })
    with Lost why ->
      check_alive ();
      failwith ("server stopped answering: " ^ why)
  in
  phase ~t0:(now ()) ~secs:warmup ~measure:false;
  let m0 = if traced then with_client ch.port (fun c -> metrics_of (stats c)) else Obs.Json.Null in
  let cpu0 = Unix.times () and scpu0 = Child.cpu_s ch.pid and t0 = now () in
  phase ~t0 ~secs:seconds ~measure:true;
  let cpu1 = Unix.times () and scpu1 = Child.cpu_s ch.pid and t1 = now () in
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns;
  check_alive ();
  let rss_mb = Child.peak_rss_mb (string_of_int ch.pid) in
  let m1, nvm_mb, crash_ms =
    with_client ch.port @@ fun c ->
    let s = stats c in
    List.iter
      (fun cn ->
        Audit.check_reads audit cn.reads;
        List.iter (fun (p, kvs, t_reply) -> Audit.check_scan audit p kvs ~t_reply) cn.scans)
      conns;
    let before = read_all c w in
    audit_final audit before;
    let crash_ms =
      match Serve.Client.crash c ~seed ~evict_prob:0.5 ~torn_prob:0. ~bitflips:0 with
      | Ok ms -> ms
      | Error e -> failwith ("CRASH did not recover: " ^ e)
    in
    let after = read_all c w in
    audit_final audit after;
    if before <> after then Audit.violate audit "a value changed across the power failure";
    (metrics_of s, nvm_mb s, crash_ms)
  in
  (match Child.stop ch with
  | Unix.WEXITED 0 -> ()
  | st -> Audit.violate audit "server did not drain cleanly: %s" (Child.describe st));
  let cpu (t : Unix.process_times) = t.tms_utime +. t.tms_stime in
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 conns in
  let slice_ops_s, slice_lat, lat = Outcome.merge ~seconds (List.map (fun c -> c.rec_) conns) in
  {
    Outcome.seconds;
    slice_ops_s;
    slice_lat;
    lat;
    attempted = sum (fun c -> c.attempted);
    failed = sum (fun c -> c.failed);
    setup_s;
    rss_mb;
    nvm_mb;
    crash_ms;
    driver_cpu_frac = (cpu cpu1 -. cpu cpu0) /. ((t1 -. t0) *. float_of_int w.conns);
    server_cpu_s = scpu1 -. scpu0;
    violations = audit.violations;
    examples = Audit.examples audit;
    m0;
    m1;
    pmem = Pmem.Stats.zero;
    spans = List.concat_map (fun c -> c.spans) conns;
  }
