(* In-process measurements of single layers for the traced run: the
   workload's first ops replayed against [Serve.Engine] and
   [Kv.Redodb] from one domain, a codec loop over its frames, and the
   simulated device's cost per flushed line.  Each call is timed from
   outside the layer. *)

module P = Serve.Protocol

let now = Clock.now
let ops = 20_000
let budget_s = 3.  (* a replay stops early rather than run past this *)

type t = {
  lat : float array array;  (** sorted µs per class *)
  spans : Outcome.span list;
  writes : int;  (** puts and mputs replayed *)
}

(* Time [f] on each op until the budget runs out; [lane] names the
   replay in the trace. *)
let time_ops ~lane ops f =
  let bufs = Array.init 4 (fun _ -> Stat.Buf.create ()) in
  let spans = ref [] and writes = ref 0 in
  let stop = now () +. budget_s in
  Array.iteri
    (fun i op ->
      if now () < stop then begin
        let cls = Gen.cls_of op in
        let t0 = now () in
        f i op;
        let t1 = now () in
        Stat.Buf.add bufs.(Gen.cls_index cls) ((t1 -. t0) *. 1e6);
        spans := { Outcome.conn = lane; rid = i + 1; cls; t0; t1 } :: !spans;
        match op with Put _ | Mput _ -> incr writes | Get _ | Scan _ -> ()
      end)
    ops;
  { lat = Array.map (fun b -> Stat.Buf.sorted [ b ]) bufs; spans = !spans; writes = !writes }

let value i = Gen.value_of_tag { kind = Point; writer = 1; seq = i }
let group_ops g v = List.init Gen.group_size (fun j -> (Gen.group_key g j, Some v))
let ok what = function Ok x -> x | Error e -> failwith (what ^ ": " ^ Serve.Engine.pp_error e)

(* [Serve.Engine] built with the server's configuration. *)
let engine_config =
  {
    Serve.Engine.default_config with
    shards = Child.shards;
    num_threads = Child.workers + 1;
    capacity_bytes = Child.capacity_bytes;
    batch = true;
    max_batch = Child.max_batch;
    linger_us = 0.;
    queue_cap = Child.queue_cap;
  }

type engine = {
  e : t;
  txns_per_mput : float;  (** [nan] without MPUTs *)
  crash_ms : float;
}

let engine (w : Gen.workload) ~seed =
  let module E = Serve.Engine in
  let e = E.create engine_config in
  List.iter
    (fun chunk -> ignore (ok "preload" (E.multi_put e ~tid:0 (List.map (fun (k, v) -> (k, Some v)) chunk))))
    (Wire.by_shard Wire.preload_chunk (Gen.preload_pairs w));
  E.set_flush_cost e Child.flush_cost;
  let r =
    time_ops ~lane:100 (Gen.prefix w ~seed ops) (fun i -> function
      | Get k -> ignore (ok "get" (E.get e ~tid:0 (Gen.point_key k)))
      | Put k -> ok "put" (E.put e ~tid:0 ~key:(Gen.point_key k) ~value:(value i))
      | Mput g -> ignore (ok "mput" (E.multi_put e ~tid:0 (group_ops g (value i))))
      | Scan p -> ignore (ok "scan" (E.scan e ~tid:0 ~prefix:(Gen.scan_prefix p) ~max:Gen.scan_max)))
  in
  (* PTM transactions behind one MPUT, counted over 100 more *)
  let txns_per_mput =
    if w.mix.mput = 0 then nan
    else begin
      let c = Obs.Metrics.counter "ptm.tx.commit" in
      Obs.Metrics.enable true;
      let v0 = Obs.Metrics.counter_value c in
      for g = 0 to 99 do
        ignore (ok "mput" (E.multi_put e ~tid:0 (group_ops (g mod w.groups) (value (ops + g)))))
      done;
      let v1 = Obs.Metrics.counter_value c in
      Obs.Metrics.enable false;
      float_of_int (v1 - v0) /. 100.
    end
  in
  let crash_ms =
    match E.crash_with_faults e ~tid:0 ~seed ~evict_prob:0.5 ~torn_prob:0. ~bitflips:0 with
    | Ok s -> s *. 1e3
    | Error why -> failwith ("engine crash did not recover: " ^ why)
  in
  { e = r; txns_per_mput; crash_ms }

(* A single [Kv.Redodb] store holding every key, at the server's flush
   cost.  Returns the replay and the device counters it moved. *)
let db (w : Gen.workload) ~seed =
  let module R = Kv.Redodb in
  let db = R.open_db ~num_threads:1 ~capacity_bytes:Child.capacity_bytes () in
  List.iter
    (fun chunk -> R.write_batch db ~tid:0 (List.map (fun (k, v) -> (k, Some v)) chunk))
    (Wire.chunks Wire.preload_chunk (Gen.preload_pairs w));
  R.set_flush_cost db Child.flush_cost;
  let p0 = R.stats db in
  let r =
    time_ops ~lane:101 (Gen.prefix w ~seed ops) (fun i -> function
      | Get k -> ignore (R.get db ~tid:0 (Gen.point_key k))
      | Put k -> R.put db ~tid:0 ~key:(Gen.point_key k) ~value:(value i)
      | Mput g -> R.write_batch db ~tid:0 (group_ops g (value i))
      | Scan p ->
          let prefix = Gen.scan_prefix p in
          let c = R.seek db ~tid:0 prefix in
          let rec walk n =
            match R.entry c with
            | Some (k, _) when n < Gen.scan_max && String.starts_with ~prefix k ->
                ignore (R.next c);
                walk (n + 1)
            | _ -> ()
          in
          walk 0)
  in
  (r, Pmem.Stats.diff (R.stats db) p0)

(* Encode each request and decode its reply, over the stream's first
   100k frames. *)
let codec_ns_per_op (w : Gen.workload) ~seed =
  let n = 100_000 in
  let ops = Gen.prefix w ~seed n in
  let reqs = Array.mapi (fun i op -> Gen.request ~writer:1 ~seq:i op) ops in
  let preload_value kind seq = Gen.value_of_tag { kind; writer = 0; seq } in
  let resps =
    Array.mapi
      (fun i (op : Gen.op) ->
        P.encode_resp ~rid:(i + 1)
          (match op with
          | Get k -> P.Val (preload_value Point k)
          | Put _ -> P.Ok
          | Mput _ -> P.Committed { txid = 1; epoch = 1 }
          | Scan p ->
              P.Kvs
                (List.concat
                   (List.init Gen.scan_groups (fun i ->
                        let g = (p * Gen.scan_groups) + i in
                        List.init Gen.group_size (fun j -> (Gen.group_key g j, preload_value Group g)))))))
      ops
  in
  let t0 = now () in
  Array.iteri
    (fun i r ->
      ignore (Sys.opaque_identity (P.encode_req ~rid:(i + 1) r));
      ignore (Sys.opaque_identity (P.decode_resp_rid resps.(i))))
    reqs;
  (now () -. t0) *. 1e9 /. float_of_int n

(* Write 10k lines of a fresh region, then time their pwb + one pfence
   at the server's flush cost. *)
let flush_us_per_line () =
  let lines = 10_000 and wpl = Pmem.words_per_line in
  let pm = Pmem.create ~max_threads:1 ~words:(lines * wpl) () in
  Pmem.set_flush_cost pm Child.flush_cost;
  for l = 0 to lines - 1 do
    Pmem.set_word pm ~tid:0 (l * wpl) 1L
  done;
  let t0 = now () in
  for l = 0 to lines - 1 do
    Pmem.pwb pm ~tid:0 (l * wpl)
  done;
  Pmem.pfence pm ~tid:0;
  (now () -. t0) *. 1e6 /. float_of_int lines
