(* The in-process workload: domains calling [Kv.Redodb] directly, with
   no protocol, reactor, dispatch, engine, batcher or commit layer in
   the way.  Flush cost 0: at 150 the simulated device spin would hide
   the CPU costs this workload isolates. *)

let now = Clock.now

let open_and_preload (w : Gen.workload) =
  let db = Kv.Redodb.open_db ~num_threads:(w.conns + 1) ~capacity_bytes:Child.capacity_bytes () in
  List.iter
    (fun chunk -> Kv.Redodb.write_batch db ~tid:0 (List.map (fun (k, v) -> (k, Some v)) chunk))
    (Wire.chunks Wire.preload_chunk (Gen.preload_pairs w));
  db

type worker = {
  tid : int;
  st : Gen.stream;
  plog : Audit.log;
  rec_ : Outcome.recorder;
  mutable bad_reads : (int * Audit.seen) list;
  mutable attempted : int;
  mutable spans : Outcome.span list;
  mutable nspans : int;
}

let run_phase db wk ~t0:w0 ~t_end ~measure ~trace =
  while now () < t_end do
    let op = Gen.next wk.st in
    let t0, t1 =
      match op with
      | Get k ->
          let t0 = now () in
          let v = Kv.Redodb.get db ~tid:wk.tid (Gen.point_key k) in
          let t1 = now () in
          (* Checked here, not logged: at this rate a read log would be
             the largest thing in the serving process.  No in-process
             write can fail, so only the value's shape is at stake. *)
          (match v with
          | Some v -> (
              match Gen.tag_of_value v with
              | Some { kind = Point; writer; seq } when writer <= wk.st.w.conns && (writer > 0 || seq = k) -> ()
              | Some t -> wk.bad_reads <- (k, Audit.Tag t) :: wk.bad_reads
              | None -> wk.bad_reads <- (k, Audit.Garbled v) :: wk.bad_reads)
          | None -> wk.bad_reads <- (k, Audit.Missing) :: wk.bad_reads);
          (t0, t1)
      | Put k ->
          let value = Gen.value_of_tag { kind = Point; writer = wk.tid; seq = wk.plog.n } in
          let t0 = now () in
          let seq = Audit.record wk.plog ~target:k ~t_send:t0 in
          Kv.Redodb.put db ~tid:wk.tid ~key:(Gen.point_key k) ~value;
          let t1 = now () in
          Audit.ack wk.plog seq ~t:t1;
          (t0, t1)
      | Mput _ | Scan _ -> invalid_arg "kv_direct runs gets and puts only"
    in
    wk.attempted <- wk.attempted + 1;
    if measure then begin
      let cls = Gen.cls_of op in
      Outcome.record wk.rec_ ~t0:w0 ~t_end cls ~t_send:t0 ~t_ack:t1;
      if trace && wk.nspans < Wire.max_spans_per_conn then begin
        wk.spans <- { conn = wk.tid - 1; rid = wk.attempted; cls; t0; t1 } :: wk.spans;
        wk.nspans <- wk.nspans + 1
      end
    end
  done

let read_all db (w : Gen.workload) =
  Array.of_list
    (List.concat_map (Kv.Redodb.get_batch db ~tid:0) (Wire.chunks 256 (List.init w.points Gen.point_key)))

(* One run.  [traced] turns on the in-process metrics registry and span
   trace for the measured window. *)
let run (w : Gen.workload) ~seed ~seconds ~warmup ~setups ~traced : Outcome.t =
  let setup () =
    Gc.compact ();
    let t0 = now () in
    let db = open_and_preload w in
    (db, now () -. t0)
  in
  let db, first_setup = setup () in
  (* The bench's own logs share this process and grow with throughput,
     so the serving memory is read once the store is loaded. *)
  let rss_mb = Child.peak_rss_mb "self" in
  Kv.Redodb.set_flush_cost db 0;
  let audit = Audit.create ~points:w.points ~groups:0 ~writers:w.conns in
  let workers =
    List.init w.conns (fun i ->
        {
          tid = i + 1;
          st = Gen.stream w ~seed ~id:i;
          plog = audit.plogs.(i);
          rec_ = Outcome.recorder ~seconds;
          bad_reads = [];
          attempted = 0;
          spans = [];
          nspans = 0;
        })
  in
  let phase ~t0 ~secs ~measure =
    Wire.parallel workers (fun wk -> run_phase db wk ~t0 ~t_end:(t0 +. secs) ~measure ~trace:traced)
  in
  phase ~t0:(now ()) ~secs:warmup ~measure:false;
  if traced then begin
    Obs.Metrics.enable true;
    Obs.Trace.enable ();
    Obs.Metrics.reset_all ()
  end;
  let m0 = if traced then Obs.Metrics.to_json () else Obs.Json.Null in
  let p0 = Kv.Redodb.stats db in
  let cpu0 = Unix.times () and t0 = now () in
  phase ~t0 ~secs:seconds ~measure:true;
  let cpu1 = Unix.times () and t1 = now () in
  let pmem = Pmem.Stats.diff (Kv.Redodb.stats db) p0 in
  let m1 = if traced then Obs.Metrics.to_json () else Obs.Json.Null in
  if traced then begin
    Obs.Metrics.enable false;
    Obs.Trace.disable ()
  end;
  List.iter
    (fun wk -> List.iter (fun (k, seen) -> Audit.check_seen audit k seen ~t_reply:infinity) wk.bad_reads)
    workers;
  let before = read_all db w in
  Array.iteri (Audit.check_point audit) before;
  let crash_ms = Kv.Redodb.crash_and_recover db *. 1e3 in
  let after = read_all db w in
  Array.iteri (Audit.check_point audit) after;
  if before <> after then Audit.violate audit "a value changed across the power failure";
  let nvm_mb = float_of_int (fst (Kv.Redodb.memory_usage db) * 8) /. 1048576. in
  (* The other set-ups come last, once the measured store is garbage:
     earlier they would leave freed regions in this process's peak RSS. *)
  let setup_s = first_setup :: List.init (setups - 1) (fun _ -> snd (setup ())) in
  let cpu (t : Unix.process_times) = t.tms_utime +. t.tms_stime in
  let sum f = List.fold_left (fun acc wk -> acc + f wk) 0 workers in
  let slice_ops_s, slice_lat, lat = Outcome.merge ~seconds (List.map (fun wk -> wk.rec_) workers) in
  {
    Outcome.seconds;
    slice_ops_s;
    slice_lat;
    lat;
    attempted = sum (fun wk -> wk.attempted);
    failed = 0;
    setup_s;
    rss_mb;
    nvm_mb;
    crash_ms;
    driver_cpu_frac = (cpu cpu1 -. cpu cpu0) /. ((t1 -. t0) *. float_of_int w.conns);
    server_cpu_s = cpu cpu1 -. cpu cpu0;
    violations = audit.violations;
    examples = Audit.examples audit;
    m0;
    m1;
    pmem;
    spans = List.concat_map (fun wk -> wk.spans) workers;
  }
