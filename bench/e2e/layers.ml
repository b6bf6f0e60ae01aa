(* Per-layer metrics of the traced run, each computed from outside the
   program: client spans, the server's STATS registry, /proc, and the
   in-process replays.  A metric that does not apply to a workload reads
   0 and carries the reason. *)

module J = Obs.Json

type row = { name : string; unit : string; value : float; why_zero : string option }

(* Everything a traced run measured. *)
type inputs = {
  w : Gen.workload;
  u : Outcome.t;  (** untraced half *)
  tr : Outcome.t;  (** traced half *)
  eng : Replay.engine option;  (** serving workloads only *)
  db : (Replay.t * Pmem.Stats.snapshot) option;
  codec_ns : float option;
  flush_us : float;
}

let ( >>= ) = Option.bind

let num = function
  | Some (J.Int n) -> Some (float_of_int n)
  | Some (J.Float f) -> Some f
  | _ -> None

let counter m name = Option.value ~default:0. (num (J.member "counters" m >>= J.member name >>= J.member "total"))
let hist m name field = num (J.member "histograms" m >>= J.member name >>= J.member field)
let delta (o : Outcome.t) name = counter o.m1 name -. counter o.m0 name

(* A percentile field of a registry histogram, ns to µs *)
let hist_us (o : Outcome.t) name q = Option.map (fun ns -> ns /. 1e3) (hist o.m1 name q)

(* Mean of the window's samples only: (sum1 - sum0) / (n1 - n0). *)
let hist_window_mean (o : Outcome.t) name =
  let sum m = Option.value ~default:0. (hist m name "count") *. Option.value ~default:0. (hist m name "mean_ns") in
  let n = Option.value ~default:0. (hist o.m1 name "count") -. Option.value ~default:0. (hist o.m0 name "count") in
  if n > 0. then Some ((sum o.m1 -. sum o.m0) /. n) else None

let p50 (lat : float array array) c =
  let a = lat.(Gen.cls_index c) in
  if Array.length a = 0 then None else Some (Stat.percentile a 0.5)

let ratio a b = if b > 0. then Some (a /. b) else None

let rows (x : inputs) =
  let w = x.w and u = x.u and tr = x.tr in
  let served = not w.in_process in
  let ops = float_of_int (Outcome.completed tr) in
  let cls_ops c = float_of_int (Array.length tr.lat.(Gen.cls_index c)) in
  let row name unit ?(why = "") v =
    match v with
    | Some v when Float.is_finite v -> { name; unit; value = v; why_zero = None }
    | _ -> { name; unit; value = 0.; why_zero = Some (if why = "" then "no samples" else why) }
  in
  let no_server = "kv_direct has no server" in
  let stat name unit ?(why = "no samples in the server's histogram") v =
    row name unit ~why:(if served then why else no_server) (if served then v else None)
  in
  let in_db = "kv_direct's own latencies are its Kv.Redodb calls: client.*, put_p50_us" in
  let eng_p50 c = x.eng >>= fun e -> p50 e.e.lat c in
  let db_p50 c = x.db >>= fun (d, _) -> p50 d.lat c in
  let absent c = Printf.sprintf "no %s in the mix" (Gen.cls_name c) in
  let self c =
    let why =
      if not served then no_server
      else if w.depth > 1 then "depth > 1: wire time includes queueing"
      else absent c
    in
    row ("frontend.self_" ^ Gen.cls_name c ^ "_us") "us" ~why
      (if served && w.depth = 1 then
         p50 u.lat c >>= fun wire -> eng_p50 c >>= fun e -> Some (wire -. e)
       else None)
  in
  let eng_self c =
    row ("engine.self_" ^ Gen.cls_name c ^ "_us") "us"
      ~why:(if served then absent c else no_server)
      (eng_p50 c >>= fun e -> db_p50 c >>= fun d -> Some (e -. d))
  in
  (* the server times parsing with a microsecond clock *)
  let parse =
    match hist_us tr "serve.stage.parse" "p50_ns" with
    | Some 0. when served ->
        row "frontend.parse_p50_us" "us" ~why:"under the server's 1 us clock resolution" None
    | v -> stat "frontend.parse_p50_us" "us" v
  in
  let pmem f name =
    let snap, writes =
      match x.db with
      | Some (d, s) -> (Some s, d.writes)
      | None -> ((if w.in_process then Some u.pmem else None), Outcome.writes u)
    in
    row name "count/write" (snap >>= fun s -> ratio (float_of_int (f s)) (float_of_int writes))
  in
  let client c q =
    let a = u.lat.(Gen.cls_index c) in
    let name = Printf.sprintf "client.%s_%s_us" (Gen.cls_name c) q in
    if Array.length a = 0 then row name "us" ~why:(absent c) None
    else if q = "p50" then row name "us" (Some (Stat.percentile a 0.5))
    else
      row name "us"
        ~why:(Printf.sprintf "%d samples, under %d" (Array.length a) Stat.min_p99_samples)
        (Stat.p99 a)
  in
  [
    row "bench.driver_cpu_frac" "ratio" (Some u.driver_cpu_frac);
    row "protocol.codec_ns_per_op" "ns" ~why:no_server x.codec_ns;
    self C_get;
    self C_put;
    parse;
    stat "aio.polls_per_op" "count/op" (ratio (delta tr "aio.polls") ops);
    stat "aio.fibers_per_op" "count/op" (ratio (delta tr "aio.fibers.spawned") ops);
    stat "aio.io_waits_per_op" "count/op" (ratio (delta tr "aio.io.waits") ops);
    row "server.cpu_us_per_op" "us" (ratio (u.server_cpu_s *. 1e6) (float_of_int (Outcome.completed u)));
    stat "dispatch.request_p50_us" "us" (hist_us tr "serve.request_ns" "p50_ns");
    stat "dispatch.request_p99_us" "us" (hist_us tr "serve.request_ns" "p99_ns");
    row "engine.get_us" "us" ~why:(if served then absent C_get else no_server) (eng_p50 C_get);
    row "engine.put_us" "us" ~why:no_server (eng_p50 C_put);
    row "engine.mput_us" "us" ~why:(if served then absent C_mput else no_server) (eng_p50 C_mput);
    row "engine.scan_us" "us" ~why:(if served then absent C_scan else no_server) (eng_p50 C_scan);
    eng_self C_get;
    eng_self C_put;
    row "engine.crash_outage_ms" "ms" ~why:no_server (x.eng >>= fun e -> Some e.crash_ms);
    stat "batcher.batch_size_mean" "count" (hist_window_mean tr "serve.batch_size");
    stat "batcher.queue_wait_p50_us" "us" (hist_us tr "serve.stage.queue" "p50_ns");
    stat "batcher.linger_p50_us" "us" ~why:"no linger at --linger-us 0"
      (hist_us tr "serve.stage.linger" "p50_ns");
    stat "batcher.txn_p50_us" "us" (hist_us tr "serve.stage.txn" "p50_ns");
    stat "batcher.overloads" "count" (Some (delta tr "serve.overload_rejections"));
    stat "commit.prepare_p50_us" "us" ~why:(absent C_mput) (hist_us tr "serve.stage.prepare" "p50_ns");
    stat "commit.decide_p50_us" "us" ~why:(absent C_mput) (hist_us tr "serve.stage.decide" "p50_ns");
    stat "commit.apply_p50_us" "us" ~why:(absent C_mput) (hist_us tr "serve.stage.apply" "p50_ns");
    row "commit.ptm_txns_per_mput" "count"
      ~why:(if served then absent C_mput else no_server)
      (x.eng >>= fun e -> Some e.txns_per_mput);
    stat "commit.snapshot_retries_per_scan" "count" ~why:(absent C_scan)
      (ratio (delta tr "serve.commit.snapshot_retries") (cls_ops C_scan));
    stat "commit.helped_applies" "count" (Some (delta tr "serve.commit.helped_applies"));
    row "db.get_us" "us" ~why:(if served then absent C_get else in_db) (db_p50 C_get);
    row "db.put_us" "us" ~why:in_db (db_p50 C_put);
    row "db.scan_us" "us" ~why:(if served then absent C_scan else in_db) (db_p50 C_scan);
    row "ptm.tx_p50_us" "us" (hist_us tr "ptm.tx.latency" "p50_ns");
    row "ptm.tx_p99_us" "us" (hist_us tr "ptm.tx.latency" "p99_ns");
    row "ptm.helped_frac" "ratio" (ratio (delta tr "ptm.helping") (delta tr "ptm.tx.commit"));
    row "ptm.replica_copies_per_tx" "ratio"
      (ratio (delta tr "ptm.replica_copy") (delta tr "ptm.tx.commit"));
    pmem (fun s -> s.pwb) "pmem.pwb_per_write";
    pmem Pmem.Stats.fences "pmem.fence_per_write";
    pmem (fun s -> s.ntstore) "pmem.ntstore_per_write";
    row "pmem.flush_us_per_line" "us" (Some x.flush_us);
    row "obs.overhead_pct" "%"
      (Some ((Outcome.ops_s u -. Outcome.ops_s tr) /. Outcome.ops_s u *. 100.));
    row "client.op_p99_us" "us" ~why:"fewer than 1000 samples per slice" (Outcome.op_p99 u);
    row "client.put_p99_us" "us" ~why:"fewer than 1000 samples per slice" (Outcome.put_p99 u);
    client C_get "p50";
    client C_get "p99";
    client C_mput "p50";
    client C_mput "p99";
    client C_scan "p50";
    client C_scan "p99";
  ]
