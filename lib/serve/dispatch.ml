(* Request execution for the Reactor front-end.  One Dispatch.t per
   engine owns the op-class sliding windows, the shed counters, and the
   STATS/METRICS assembly (including the reactor's connection-occupancy
   figures, read through the [conn_stats] callback given at [create]).

   Degradation order under pressure: TTL-expired requests are shed
   first (queued writes by the batcher, reads here at execution), then
   scans, then multi-gets — cheap point ops and writes keep flowing
   until admission control itself pushes back. *)

(* Overload shedding thresholds, as fractions of the busiest shard's
   admission queue (Engine.overload_hint): scans go well before the
   queue is full, multi-gets only when it is nearly so. *)
let shed_scan_level = 0.5
let shed_mget_level = 0.75

type t = {
  eng : Engine.t;
  h_req : Obs.Metrics.histogram;
  c_shed_scan : Obs.Metrics.counter;
  c_shed_mget : Obs.Metrics.counter;
  c_shed_read : Obs.Metrics.counter;  (* reads whose TTL expired pre-execution *)
  wins : Obs.Window.t array;  (* per op class, indexed like win_class *)
  conn_stats : unit -> int * int;
      (* (open, rejected) connection occupancy of the front-end;
         surfaces in STATS and the Prometheus gauges *)
}

(* Sliding-window class of a request, or -1 for untracked admin ops.
   These windows are the always-on telemetry plane (STATS "windows", the
   SLO gates): recording is NOT gated on Metrics.enable. *)
let win_names = [| "serve.win.get"; "serve.win.put"; "serve.win.del";
                   "serve.win.mget"; "serve.win.mput"; "serve.win.scan" |]

let win_class : Protocol.req -> int = function
  | Get _ -> 0
  | Put _ -> 1
  | Del _ -> 2
  | Mget _ -> 3
  | Mput _ -> 4
  | Scan _ -> 5
  | Ping | Stats | Metrics | Crash _ | Txstat _ | Health | Freeze _
  | Rebuild _ | Corrupt _ ->
      -1

let create eng ~conn_stats =
  {
    eng;
    h_req = Obs.Metrics.histogram "serve.request_ns";
    c_shed_scan = Obs.Metrics.counter "serve.shed.scan";
    c_shed_mget = Obs.Metrics.counter "serve.shed.mget";
    c_shed_read = Obs.Metrics.counter "serve.shed.read_expired";
    wins = Array.map Obs.Window.create win_names;
    conn_stats;
  }

let err_of_engine = function
  | Engine.Overloaded -> Protocol.Overloaded
  | Engine.Unavailable d -> Protocol.Unavail d
  | Engine.In_doubt txid -> Protocol.In_doubt txid
  | Engine.Timed_out -> Protocol.Timeout
  | Engine.Shard_down s -> Protocol.Shard_unavailable s

(* Engine gauges appended to the Prometheus exposition: the live values
   a scraper wants that are not registry counters/histograms. *)
let prom_gauges t =
  let depths =
    List.mapi
      (fun i d -> (Printf.sprintf "redodb_shard_queue_depth{shard=\"%d\"}" i, float_of_int d))
      (Engine.queue_depths t.eng)
  in
  let decided, applied = Commit.stats (Engine.commit t.eng) in
  (* Per-shard health gauges: 0 healthy, 1 suspect, 2 quarantined,
     3 rebuilding — plus scrub progress and the serve.health.* totals. *)
  let health_code = function
    | "healthy" -> 0.
    | "suspect" -> 1.
    | "quarantined" -> 2.
    | "rebuilding" -> 3.
    | _ -> -1.
  in
  let health =
    List.concat
      (List.init (Engine.shards t.eng) (fun s ->
           let state, _, passes = Health.shard (Engine.health t.eng) s in
           [
             ( Printf.sprintf "redodb_shard_health{shard=\"%d\"}" s,
               health_code state );
             ( Printf.sprintf "redodb_shard_scrub_passes{shard=\"%d\"}" s,
               float_of_int passes );
           ]))
  in
  let totals =
    List.map
      (fun (k, v) ->
        (* "serve.health.suspects" -> redodb_health_suspects *)
        let short =
          match String.rindex_opt k '.' with
          | Some i -> String.sub k (i + 1) (String.length k - i - 1)
          | None -> k
        in
        ("redodb_health_" ^ short, float_of_int v))
      (Health.counters (Engine.health t.eng))
  in
  let conns_open, conns_rejected = t.conn_stats () in
  [
    ("redodb_engine_shards", float_of_int (Engine.shards t.eng));
    ("redodb_engine_epoch", float_of_int (Commit.current_epoch (Engine.commit t.eng)));
    ("redodb_engine_commits_decided", float_of_int decided);
    ("redodb_engine_commits_applied", float_of_int applied);
    ("redodb_conns_open", float_of_int conns_open);
    ("redodb_conns_rejected", float_of_int conns_rejected);
  ]
  @ depths @ health @ totals

(* STATS: the engine document plus front-end connection occupancy. *)
let stats_json t =
  let conns_open, conns_rejected = t.conn_stats () in
  let conns =
    ( "conns",
      Obs.Json.Obj
        [
          ("open", Obs.Json.Int conns_open);
          ("rejected", Obs.Json.Int conns_rejected);
        ] )
  in
  match Engine.stats_json t.eng with
  | Obs.Json.Obj fields -> Obs.Json.Obj (fields @ [ conns ])
  | j -> j

(* [deadline] is absolute ([Unix.gettimeofday]; 0. = none), computed at
   ingress from the TTL envelope prefix.  Writes carry it into the
   engine (the batcher sheds queued expired requests); reads check it
   here at execution — either way an expired request answers the
   retryable [Timeout], never a half-executed result.  PUT and DEL have
   already run as part of their unit's write group: [written] hands
   over the engine's result for this one. *)
let execute t ~tid ~env ~deadline ~written (req : Protocol.req) : Protocol.resp =
  let rid = env.Protocol.rid and tok = env.Protocol.tok in
  let expired () = deadline > 0. && Unix.gettimeofday () > deadline in
  let shed_read c =
    Obs.Metrics.incr c ~tid;
    Protocol.Timeout
  in
  match req with
  | Ping -> Ok
  | Get k ->
      if expired () then shed_read t.c_shed_read
      else (
        match Engine.get t.eng ~tid k with
        | Result.Ok (Some v) -> Val v
        | Result.Ok None -> Nil
        | Error e -> err_of_engine e)
  | Put _ | Del _ -> (
      match written () with
      | Result.Ok () -> Ok
      | Error e -> err_of_engine e)
  | Scan { prefix; max } ->
      if expired () then shed_read t.c_shed_read
      else if Engine.overload_hint t.eng >= shed_scan_level then
        shed_read t.c_shed_scan
      else (
        match Engine.scan t.eng ~tid ~prefix ~max with
        | Result.Ok kvs -> Kvs kvs
        | Error e -> err_of_engine e)
  | Mget ks ->
      if expired () then shed_read t.c_shed_read
      else if Engine.overload_hint t.eng >= shed_mget_level then
        shed_read t.c_shed_mget
      else (
        match Engine.multi_get t.eng ~tid ks with
        | Result.Ok vs -> Vals vs
        | Error e -> err_of_engine e)
  | Mput kvs -> (
      match
        Engine.multi_put t.eng ~tid ~rid ~tok ~deadline
          (List.map (fun (k, v) -> (k, Some v)) kvs)
      with
      | Result.Ok { Engine.txid; epoch } -> Committed { txid; epoch }
      | Error e -> err_of_engine e)
  | Txstat tok -> (
      match Engine.txstat t.eng ~tid tok with
      | Result.Ok (Ledger.Tx_committed { txid; epoch; records }) ->
          Txstat_committed { txid; epoch; records }
      | Result.Ok Ledger.Tx_aborted -> Txstat_aborted
      | Result.Ok Ledger.Tx_unknown -> Txstat_unknown
      | Error e -> err_of_engine e)
  | Stats -> Json (Obs.Json.to_string (stats_json t))
  | Metrics -> Text (Obs.prometheus ~extra:(prom_gauges t) ())
  | Crash { seed; evict_prob; torn_prob; bitflips } -> (
      match Engine.crash_with_faults t.eng ~tid ~seed ~evict_prob ~torn_prob ~bitflips with
      | Result.Ok s -> Ok_ms (s *. 1e3)
      | Error d -> Err ("unrecoverable: " ^ d))
  | Health ->
      let shards = Engine.shards t.eng in
      let rows =
        List.init shards (fun s ->
            let state, reason, passes = Health.shard (Engine.health t.eng) s in
            Obs.Json.Obj
              [
                ("shard", Obs.Json.Int s);
                ("state", Obs.Json.String state);
                ("reason", Obs.Json.String reason);
                ("scrub_passes", Obs.Json.Int passes);
              ])
      in
      Json
        (Obs.Json.to_string
           (Obs.Json.Obj
              (("isolate",
                Obs.Json.Bool (Engine.config t.eng).Engine.isolate)
              :: List.map
                   (fun (k, v) -> (k, Obs.Json.Int v))
                   (Health.counters (Engine.health t.eng))
              @ [ ("shards", Obs.Json.List rows) ])))
  | Freeze s ->
      if s < 0 || s >= Engine.shards t.eng then Err "FREEZE: no such shard"
      else begin
        Engine.quarantine t.eng ~tid s ~reason:"operator freeze";
        Ok
      end
  | Rebuild s ->
      if s < 0 || s >= Engine.shards t.eng then Err "REBUILD: no such shard"
      else begin
        let t0 = Unix.gettimeofday () in
        match Engine.rebuild_shard t.eng ~tid s with
        | Result.Ok () -> Ok_ms ((Unix.gettimeofday () -. t0) *. 1e3)
        | Error d -> Err d
      end
  | Corrupt { shard; seed; count } ->
      if shard < 0 || shard >= Engine.shards t.eng then
        Err "CORRUPT: no such shard"
      else begin
        Engine.corrupt_shard t.eng shard ~seed ~count;
        Ok
      end

type item = {
  env : Protocol.env;
  req : Protocol.req;
  deadline : float;
  t_in : float;
}

let write_of (it : item) : Engine.write option =
  let rid = it.env.Protocol.rid and tok = it.env.Protocol.tok in
  let deadline = it.deadline in
  match it.req with
  | Put (key, v) -> Some { Engine.key; value = Some v; rid; tok; deadline }
  | Del key -> Some { Engine.key; value = None; rid; tok; deadline }
  | _ -> None

(* Execute a unit of requests.  Its PUT/DELs commit first, as ONE
   Engine.write_group (so writes to one key take effect in unit order);
   every other request then executes on its own under its Serve_op span.
   A write's Serve_op span covers the whole group it rode in.  Each
   request records the op-class windows — the global set plus
   [extra_wins], the reactor's own — from its ingress time [t_in], so
   the windows (and the SLO gates asserted against them) cover the time
   a request spent queued behind a stalled event loop, not just its
   execution. *)
let serve t ~tid ~extra_wins items =
  let t0 = if Obs.is_active () then Unix.gettimeofday () else 0. in
  let results =
    ref
      (match List.filter_map write_of items with
      | [] -> []
      | group -> Engine.write_group t.eng ~tid group)
  in
  let written () =
    match !results with
    | r :: rest ->
        results := rest;
        r
    | [] -> invalid_arg "Dispatch.serve: write without a group result"
  in
  List.map
    (fun it ->
      let rid = it.env.Protocol.rid in
      let exec () =
        execute t ~tid ~env:it.env ~deadline:it.deadline ~written it.req
      in
      let resp =
        if t0 > 0. && write_of it <> None then begin
          let resp = exec () in
          Obs.Trace.complete Obs.Trace.Serve_op ~tid ~rid ~t0;
          resp
        end
        else Obs.Trace.span Obs.Trace.Serve_op ~tid ~rid exec
      in
      let dt = Unix.gettimeofday () -. it.t_in in
      (* The per-class window is always on — it is what STATS exposes
         and what SLO gates assert against, with or without --metrics. *)
      let c = win_class it.req in
      if c >= 0 then begin
        Obs.Window.record_span_s t.wins.(c) dt;
        Obs.Window.record_span_s extra_wins.(c) dt
      end;
      if Obs.Metrics.is_on () then
        Obs.Metrics.record_ns t.h_req ~tid (int_of_float (dt *. 1e9));
      resp)
    items
