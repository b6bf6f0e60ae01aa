(* Per-shard health machine (states and policy in health.mli), coded
   0 Healthy, 1 Suspect, 2 Quarantined, 3 Rebuilding. *)

module A = Sched.Atomic

type t = {
  mutants : Commit.mutant list ref;
  state : int A.t array;
  lock : Sched.Mutex.t;  (* serializes transitions and rebuilds *)
  reason : string array;  (* why the shard left Healthy; "" when healthy *)
  scrub_pass : int A.t array;  (* completed scrub verifications per shard *)
  counts : int A.t array;  (* indexed like [names] *)
  metrics : Obs.Metrics.counter array;
}

let names = [| "suspects"; "quarantines"; "rebuilds"; "readmissions"; "scrub_anomalies" |]
let suspects, quarantines, rebuilds, readmissions, scrub_anomalies = (0, 1, 2, 3, 4)

let create ~shards:n ~mutants =
  {
    mutants;
    state = Array.init n (fun _ -> A.make 0);
    lock = Sched.Mutex.create ();
    reason = Array.make n "";
    scrub_pass = Array.init n (fun _ -> A.make 0);
    counts = Array.map (fun _ -> A.make 0) names;
    metrics = Array.map (fun n -> Obs.Metrics.counter ("serve.health." ^ n)) names;
  }

let bump h ~tid i =
  A.incr h.counts.(i);
  Obs.Metrics.incr h.metrics.(i) ~tid

let name = function
  | 0 -> "healthy"
  | 1 -> "suspect"
  | 2 -> "quarantined"
  | 3 -> "rebuilding"
  | _ -> "unknown"

let admits h s =
  match A.get h.state.(s) with
  | 2 -> false
  | 3 -> List.mem Commit.Serve_while_rebuilding !(h.mutants)
  | _ -> true

let shard h s = (name (A.get h.state.(s)), h.reason.(s), A.get h.scrub_pass.(s))

let counters h =
  Array.to_list (Array.mapi (fun i n -> ("serve.health." ^ n, A.get h.counts.(i))) names)

let locked h ~tid f =
  Sched.Mutex.lock h.lock ~tid;
  Fun.protect ~finally:(fun () -> Sched.Mutex.unlock h.lock ~tid) f

(* [from] -> [to_] under the lock; false if the shard is not in [from]. *)
let move h ~tid s ~from ~to_ ~reason =
  locked h ~tid @@ fun () ->
  A.get h.state.(s) = from
  && begin
       A.set h.state.(s) to_;
       h.reason.(s) <- reason;
       true
     end

let quarantine h ~tid s ~reason =
  locked h ~tid @@ fun () ->
  let st = A.get h.state.(s) in
  if st <> 2 && st <> 3 then begin
    A.set h.state.(s) 2;
    h.reason.(s) <- reason;
    bump h ~tid quarantines
  end

let scrub_step h ~tid s ~verify =
  match A.get h.state.(s) with
  | 2 | 3 -> `Skipped
  | st -> (
      let verdict =
        if List.mem Commit.No_scrub_verify !(h.mutants) then Result.Ok () else verify ()
      in
      A.incr h.scrub_pass.(s);
      match verdict with
      | Result.Ok () ->
          if st = 1 then ignore (move h ~tid s ~from:1 ~to_:0 ~reason:"");
          `Clean
      | Error detail ->
          bump h ~tid scrub_anomalies;
          if st = 0 then begin
            if move h ~tid s ~from:0 ~to_:1 ~reason:detail then bump h ~tid suspects;
            `Suspected detail
          end
          else begin
            quarantine h ~tid s ~reason:detail;
            `Confirmed detail
          end)

let if_healthy h ~tid s f = locked h ~tid (fun () -> if A.get h.state.(s) = 0 then f ())

let start_rebuild h ~tid s =
  if move h ~tid s ~from:2 ~to_:3 ~reason:h.reason.(s) then begin
    bump h ~tid rebuilds;
    Result.Ok ()
  end
  else
    Error
      (Printf.sprintf "rebuild: shard %d is %s, not quarantined" s
         (name (A.get h.state.(s))))

let finish_rebuild h ~tid s ~ok =
  if ok then begin
    ignore (move h ~tid s ~from:3 ~to_:0 ~reason:"");
    bump h ~tid readmissions
  end
  else ignore (move h ~tid s ~from:3 ~to_:2 ~reason:h.reason.(s))

let reset h = Sched.Mutex.reset h.lock
