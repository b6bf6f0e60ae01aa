(* crash_torture: randomized durability fuzzer for all nine constructions
   (the eight PTMs and ONLL).

   Usage:
     dune exec bin/crash_torture.exe -- [--ptm NAME] [--rounds N] [--seed S]
                                        [--evict-prob P] [--torn-prob P]
                                        [--bitflips N] [--threads T]
     dune exec bin/crash_torture.exe -- --mid-op [--ptm NAME] [--seed S]
                                        [--ops N] [--sample N | --step K]
                                        [--evict-prob P] [--torn-prob P]
                                        [--bitflips N]
     dune exec bin/crash_torture.exe -- --sched [--ptm NAME] [--sched-seed S]
                                        [--sched-threads T] [--sched-ops N]
                                        [--sched-rounds R] [--sched-budget B]
                                        [--stall TID@STEP[:K]]... [--kill TID@STEP]...
                                        [--crash-step N] [--evict-prob P]
                                        [--torn-prob P] [--bitflips N]
     dune exec bin/crash_torture.exe -- --serve-mput N [--rounds R] [--seed S]
                                        [--crash-phase P] [--mutant M]...
                                        [--evict-prob P] [--torn-prob P]
                                        [--bitflips N]
     dune exec bin/crash_torture.exe -- --serve-quarantine N [--rounds R]
                                        [--seed S] [--chaos-clients C]
                                        [--chaos-ops K] [--mutant M]...
                                        [--health-json FILE]

   Both crash modes drive every construction through one
   Ptm.Crash_explorer.TARGET, so there is one driver per mode and no
   per-construction branch.

   Default (quiescent) mode: each round runs a batch of random set
   operations (tracked in a volatile model, every return value checked),
   some concurrent churn from --threads domains, then crashes the
   simulated machine — letting each dirty, unflushed cache line survive
   with probability P, as real caches may — recovers, and verifies that
   the recovered structure exactly matches the model.  A PTM's set is a
   Pds.Hash_set, ONLL's the crash explorer's list.

   --mid-op mode crashes *inside* transactions instead: it counts the
   persistence steps (stores, pwbs, fences, ...) of a deterministic
   workload, then re-runs it crashing at sampled steps (--sample N points;
   0 = every step; --step K pins one exact point, as printed by repro
   lines).  Without --evict-prob the crash is strict (all unflushed lines
   lost); with it, each dirty line additionally survives with probability
   P.  The recovered structure must match the model before or after the
   in-flight operation and must still accept updates.

   Media faults (both modes): --torn-prob P makes each at-crash eviction
   persist only a partial cache line (a random word prefix or subset), and
   --bitflips N flips N random bits in the construction's durable metadata
   after the crash.  Torn write-backs must always leave a recoverable,
   durable-linearizable image; under bit flips a recovery that refuses the
   image with Ptm.Ptm_intf.Unrecoverable counts as a detection, not a
   failure — only silent divergence does.  ONLL's recovery truncates its
   log at the first entry that fails its seal, so under bit flips its
   image may also match any earlier completed prefix (the model then
   resynchronizes to it).  All fault coins are deterministic in --seed, so
   every printed repro line replays exactly.

   --sched mode runs the deterministic cooperative scheduler with the
   progress oracle instead: PTM workers become fibers interleaved one
   interposed atomic access at a time, and a stall/kill adversary freezes
   or destroys a victim mid-operation.  Wait-free PTMs must complete
   every announced operation through helping; blocking baselines (PMDK,
   RomulusLR) must be *detected* as blocked within the step budget rather
   than hang the harness.  Without explicit injections the calibrated
   adversary sweep runs --sched-rounds rounds per PTM; with --stall /
   --kill / --crash-step the exact scenario from a printed repro line is
   replayed.  --crash-step composes the schedule with the fault stack:
   whole-machine stop at that step, (media-faulted) crash, recovery,
   durable-counter check.  ONLL has no dynamic transactions and is not
   scheduled.

   Any divergence is a durable-linearizability bug and the tool exits
   non-zero with a reproduction line.  This is the long-running
   counterpart of the quick crash tests in the test suite. *)

module CE = Ptm.Crash_explorer
module I64Set = Set.Make (Int64)

(* The quiescent target: a crash-explorer target with its own region size
   and keyspace. *)
module type QUIESCENT = sig
  include CE.TARGET

  val words : int
  val keyspace : int
end

module Hash_target (P : Ptm.Ptm_intf.S) : QUIESCENT = struct
  module H = Pds.Hash_set.Make (P)

  let name = P.name

  type t = P.t

  let words = 1 lsl 16
  let keyspace = 500

  let create ~num_threads ~words =
    let p = P.create ~num_threads ~words () in
    H.init p ~tid:0 ~slot:1;
    p

  let pmem = P.pmem

  let apply p ~tid = function
    | CE.Add k -> H.add p ~tid ~slot:1 k
    | CE.Remove k -> H.remove p ~tid ~slot:1 k

  let contents p ~tid =
    ( List.sort Int64.compare
        (H.fold p ~tid ~slot:1 ~init:[] (fun ks k -> k :: ks)),
      H.cardinal p ~tid ~slot:1 )

  let crash_and_recover = P.crash_and_recover
  let crash_with_evictions = P.crash_with_evictions
  let crash_with_faults = P.crash_with_faults
  let rollback_on_flips = false
end

module Onll_list : QUIESCENT = struct
  include CE.Onll_target

  let words = 1 lsl 12
  let keyspace = 100
end

(* Every construction: its mid-op target, its quiescent target and, for
   the eight PTMs, the transactional interface --sched schedules. *)
type construction = {
  name : string;
  midop : (module CE.TARGET);
  quiescent : (module QUIESCENT);
  sched : (module Ptm.Ptm_intf.S) option;
}

let of_ptm (module P : Ptm.Ptm_intf.S) =
  {
    name = P.name;
    midop = (module CE.Of_ptm (P));
    quiescent = (module Hash_target (P));
    sched = Some (module P);
  }

let constructions =
  List.map of_ptm
    [
      (module Ptm.Pmdk_sim : Ptm.Ptm_intf.S);
      (module Ptm.Onefile);
      (module Ptm.Romulus);
      (module Ptm.Cx_ptm.Puc);
      (module Ptm.Cx_ptm.Ptm);
      (module Ptm.Redo_ptm.Base);
      (module Ptm.Redo_ptm.Timed);
      (module Ptm.Redo_ptm.Opt);
    ]
  @ [
      {
        name = Onll_list.name;
        midop = (module CE.Onll_target);
        quiescent = (module Onll_list);
        sched = None;
      };
    ]

(* Quiescent torture.  Thread 0 runs the batches, so the model is exact
   and every add/remove return is checked against it; the churn threads
   work on disjoint keys and leave the set as they found it.  [hist] holds
   the models a recovery may present, newest first: just the current one,
   or every completed prefix when the target may roll back under bit
   flips.  Churn is then skipped, as its intermediate states are not in
   [hist]. *)
let torture_one (module Q : QUIESCENT) ~rounds ~seed ~evict_prob ~torn_prob
    ~bitflips ~threads =
  let module E = CE.Make (Q) in
  let t = Q.create ~num_threads:threads ~words:Q.words in
  let rollback = bitflips > 0 && Q.rollback_on_flips in
  let hist = ref [ I64Set.empty ] in
  let st = Random.State.make [| seed |] in
  let failures = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        Printf.printf "  !! %s: %s\n" Q.name s;
        incr failures)
      fmt
  in
  (try
     for round = 1 to rounds do
       for _ = 1 to 50 do
         let k = Int64.of_int (Random.State.int st Q.keyspace) in
         let op = if Random.State.bool st then CE.Add k else CE.Remove k in
         let model = List.hd !hist in
         let changes, model' =
           match op with
           | Add k -> (not (I64Set.mem k model), I64Set.add k model)
           | Remove k -> (I64Set.mem k model, I64Set.remove k model)
         in
         if Q.apply t ~tid:0 op <> changes then
           fail "%s return diverged (round %d)" (CE.pp_op op) round;
         hist := model' :: (if rollback then !hist else [])
       done;
       if threads > 1 && round mod 4 = 0 && not rollback then begin
         let ds =
           List.init (threads - 1) (fun w ->
               Domain.spawn (fun () ->
                   let tid = w + 1 in
                   for i = 0 to 19 do
                     let k = Int64.of_int (1000 + (tid * 100) + i) in
                     ignore (Q.apply t ~tid (Add k));
                     ignore (Q.apply t ~tid (Remove k))
                   done))
         in
         List.iter Domain.join ds
       end;
       E.crash t ~seed:(seed + round) ~evict_prob:(Some evict_prob) ~torn_prob
         ~bitflips;
       let keys, count = Q.contents t ~tid:0 in
       let matches s = keys = I64Set.elements s && count = I64Set.cardinal s in
       let rec resync = function
         | [] -> None
         | s :: _ as h when matches s -> Some h
         | _ :: older -> resync older
       in
       match resync !hist with
       | Some h -> hist := h
       | None ->
           let model = List.hd !hist in
           let lost =
             I64Set.filter (fun k -> not (List.mem k keys)) model
             |> I64Set.elements |> List.map Int64.to_string
           in
           fail "diverged after crash: got %d keys (count %d), want %s (round \
                 %d, seed %d)"
             (List.length keys) count
             (if rollback then "a completed prefix"
              else
                Printf.sprintf "%d keys, lost {%s}" (I64Set.cardinal model)
                  (String.concat "," lost))
             round seed;
           (* report each divergence once: later rounds check against what
              recovery presented *)
           hist := [ I64Set.of_list keys ]
     done
   with Ptm.Ptm_intf.Unrecoverable { detail; _ } ->
     if bitflips > 0 then
       Printf.printf "  detected: %s recovery refused corrupt image (%s)\n"
         Q.name detail
     else fail "Unrecoverable on a flip-free image (%s)" detail);
  !failures

let print_report (report : CE.report) =
  Printf.printf "%s\n" (Format.asprintf "%a" CE.pp_report report);
  List.iter
    (fun (v : CE.violation) ->
      Printf.printf "  !! step %d (in-flight op %d: %s): %s\n     repro: %s\n"
        v.step v.op_index (CE.pp_op v.op) v.detail v.repro)
    report.violations;
  List.length report.violations

let midop_one (module T : CE.TARGET) ~seed ~nops ~step ~sample ~evict_prob
    ~torn_prob ~bitflips =
  let module E = CE.Make (T) in
  let ops = CE.default_ops ~n:nops ~seed () in
  let steps =
    if step > 0 then [ step ]
    else
      let total = E.total_steps ~ops () in
      if sample = 0 then List.init total (fun i -> i + 1)
      else CE.sample_steps ~total ~count:sample
  in
  print_report (E.sweep ?evict_prob ?torn_prob ~bitflips ~seed ~ops ~steps ())

(* Adversarial-schedule progress runs (--sched).  With explicit
   injections this replays exactly one scenario — the round-trip target
   of every repro line printed by the sweep — otherwise it runs the
   calibrated stall/kill/crash sweep. *)
let sched_one (module P : Ptm.Ptm_intf.S) ~seed ~threads ~ops ~rounds ~budget
    ~stalls ~kills ~crash_step ~evict_prob ~torn_prob ~bitflips =
  let module S = Ptm.Progress.Make (P) in
  let verdicts =
    if stalls <> [] || kills <> [] || crash_step <> None then
      [
        S.run_one ~threads ~ops ~seed ?budget ~stalls ~kills ?crash_step
          ?evict_prob ?torn_prob ~bitflips ();
      ]
    else S.sweep ~threads ~ops ~rounds ~seed ()
  in
  List.iter
    (fun v ->
      Printf.printf "%s\n%!" (Format.asprintf "%a" Ptm.Progress.pp_verdict v))
    verdicts;
  let failures =
    List.filter (fun (v : Ptm.Progress.verdict) -> not v.ok) verdicts
  in
  List.iter
    (fun (v : Ptm.Progress.verdict) -> Printf.printf "  !! repro: %s\n" v.repro)
    failures;
  List.length failures

(* "TID@STEP" / "TID@STEP:K" adversary specs, as printed in repro lines. *)
let parse_at ~flag s =
  match String.index_opt s '@' with
  | None ->
      raise (Arg.Bad (Printf.sprintf "%s: expected TID@STEP, got %S" flag s))
  | Some i ->
      ( String.sub s 0 i,
        String.sub s (i + 1) (String.length s - i - 1) )

let int_field ~flag s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> raise (Arg.Bad (Printf.sprintf "%s: bad integer %S" flag s))

(* ---- sharded serving-engine torture (--serve-shards) ----

   Single-threaded random churn against a batched Serve.Engine, with a
   hard power failure (volatile batching state dropped, every shard
   crashed through the media-fault path with a per-shard seed) between
   rounds.  The driver is the client, so the model is exact: every
   acknowledged write must survive every shard's recovery, across all
   shards at once — gets, count and a full merged scan are checked. *)

let serve_torture ~shards ~rounds ~seed ~evict_prob ~torn_prob ~bitflips =
  let module SM = Map.Make (String) in
  let e =
    Serve.Engine.create
      { Serve.Engine.default_config with shards; num_threads = 2 }
  in
  let model = ref SM.empty in
  let st = Random.State.make [| seed |] in
  let failures = ref 0 in
  let torn_prob = Option.value torn_prob ~default:0. in
  (try
     for round = 1 to rounds do
       for _ = 1 to 60 do
         let k = Printf.sprintf "k%03d" (Random.State.int st 300) in
         if Random.State.int st 4 > 0 then begin
           let v = Printf.sprintf "v%d.%d" round (Random.State.int st 1000) in
           (match Serve.Engine.put e ~tid:0 ~key:k ~value:v with
           | Ok () -> ()
           | Error err ->
               Printf.printf "  !! serve: put rejected (%s)\n"
                 (Serve.Engine.pp_error err);
               incr failures);
           model := SM.add k v !model
         end
         else begin
           (match Serve.Engine.delete e ~tid:0 k with
           | Ok () -> ()
           | Error err ->
               Printf.printf "  !! serve: delete rejected (%s)\n"
                 (Serve.Engine.pp_error err);
               incr failures);
           model := SM.remove k !model
         end
       done;
       match
         Serve.Engine.crash_hard_with_faults e ~seed:(seed + round) ~evict_prob
           ~torn_prob ~bitflips
       with
       | Error detail ->
           if bitflips > 0 then begin
             Printf.printf
               "  detected: shard recovery refused corrupt image (%s)\n" detail;
             raise Exit
           end
           else begin
             Printf.printf
               "  !! serve: Unrecoverable on a flip-free image (%s)\n" detail;
             incr failures;
             raise Exit
           end
       | Ok _ ->
           let n = Serve.Engine.count e ~tid:0 in
           if n <> SM.cardinal !model then begin
             Printf.printf
               "  !! serve: count diverged after crash: got %d want %d (round \
                %d, seed %d)\n"
               n (SM.cardinal !model) round seed;
             incr failures
           end;
           SM.iter
             (fun k v ->
               match Serve.Engine.get e ~tid:0 k with
               | Ok (Some v') when v' = v -> ()
               | Ok got ->
                   Printf.printf
                     "  !! serve: key %s diverged after crash: got %s want %s \
                      (round %d, seed %d)\n"
                     k
                     (Option.value got ~default:"<absent>")
                     v round seed;
                   incr failures
               | Error err ->
                   Printf.printf "  !! serve: get %s rejected (%s)\n" k
                     (Serve.Engine.pp_error err);
                   incr failures)
             !model;
           (match Serve.Engine.scan e ~tid:0 ~prefix:"" ~max:(SM.cardinal !model + 8) with
           | Ok kvs ->
               if kvs <> SM.bindings !model then begin
                 Printf.printf
                   "  !! serve: merged scan diverged after crash (round %d, \
                    seed %d)\n"
                   round seed;
                 incr failures
               end
           | Error err ->
               Printf.printf "  !! serve: scan rejected (%s)\n"
                 (Serve.Engine.pp_error err);
               incr failures)
     done
   with Exit -> ());
  !failures

(* The first key [tag.n] (n = 0, 1, ...) that routes to [shard]. *)
let key_on e ~shard tag =
  let rec probe n =
    let k = Printf.sprintf "%s.%d" tag n in
    if Serve.Engine.shard_of e k = shard then k else probe (n + 1)
  in
  probe 0

(* ---- cross-shard MPUT torture (--serve-mput) ----

   Each round runs on a FRESH engine, so a printed repro line replays
   exactly with --rounds 1: random single-key churn builds an exact
   model, one multi-shard MPUT (one key on every shard) is armed to
   power-fail at a 2PC phase boundary drawn from the round's RNG (or
   pinned by --crash-phase), the whole machine crashes through the
   media-fault path, and the recovered image is audited — churn keys
   exact, the MPUT through the exactly-once audit ([Serve.Write_audit]:
   all-or-nothing across shards, all keys exact if it was
   acknowledged), the merged scan free of half-applied slices and
   commit metadata, and a fresh cross-shard MPUT still committing.
   Guard-dropping mutants (--mutant) must make this sweep fail; CI runs
   them to prove the sweep can see each violation class.

   With --bitflips, a round whose recovery may refuse a rotten shard is
   replayed on an isolating engine ([isolate = true]): the same churn,
   MPUT and crash, after which recovery quarantines the rotten shards
   instead of refusing.  Every quarantined shard is rebuilt online, in
   an order drawn from the round seed, and the rebuilt image gets the
   same audit — the path where a rebuild must finish in-doubt commits
   that recovery could not reach.  When the crash left the last
   participant unapplied (at the decision or an earlier apply), that
   pass also rots it before the crash, so recovery quarantines it and
   the MPUT's slot stays claimed; then, before the rebuilds, more MPUTs
   than a slot ring is long run over the healthy shards.  None may
   reuse the claimed slot: a reused decision slot makes the rebuild
   roll the participant back under an applied coordinator slice. *)

let serve_mput_torture ~shards ~rounds ~seed ~evict_prob ~torn_prob ~bitflips
    ~crash_phase ~mutants =
  let module SM = Map.Make (String) in
  let module E = Serve.Engine in
  let module C = Serve.Commit in
  let module H = Serve.Health in
  let torn_prob = Option.value torn_prob ~default:0. in
  let failures = ref 0 in
  let repro round_seed phase =
    Printf.sprintf
      "--serve-mput %d --rounds 1 --seed %d%s --evict-prob %g --torn-prob %g \
       --bitflips %d%s"
      shards (round_seed - 1)
      (match phase with
      | None -> ""
      | Some p -> Printf.sprintf " --crash-phase %s" (C.pp_phase p))
      evict_prob torn_prob bitflips
      (String.concat ""
         (List.map (fun m -> " --mutant " ^ C.pp_mutant m) mutants))
  in
  let failf fail fmt = Printf.ksprintf fail fmt in
  (* One round's crash, replayable: the engine, churn, MPUT and crash
     are a pure function of the round seed. *)
  let num_threads = 2 in
  let run_round ~round ~round_seed ~isolate =
    let st = Random.State.make [| round_seed; 0x2bc |] in
    let e = E.create { E.default_config with shards; num_threads; isolate } in
    E.set_mutants e mutants;
    (* phase draw from the protocol's own boundary list: always consume
       the RNG so --crash-phase replays see the same stream, then
       override with the pinned phase *)
    let boundaries =
      None :: List.map Option.some (C.phases (E.commit e) ~participants:shards)
    in
    let drawn = List.nth boundaries (Random.State.int st (List.length boundaries)) in
    let phase = match crash_phase with Some _ as p -> p | None -> drawn in
    let pass = if isolate then " (isolated pass)" else "" in
    let fail msg =
      incr failures;
      Printf.printf "  !! serve-mput: %s (round %d%s)\n     repro: %s\n" msg round
        pass (repro round_seed phase)
    in
    (* churn: exact volatile model of the single-key traffic *)
    let model = ref SM.empty in
    for _ = 1 to 40 do
      let k = Printf.sprintf "k%03d" (Random.State.int st 200) in
      if Random.State.int st 4 > 0 then begin
        let v = Printf.sprintf "v%d.%d" round_seed (Random.State.int st 1000) in
        (match E.put e ~tid:0 ~key:k ~value:v with
        | Ok () -> ()
        | Error err -> failf fail "churn put rejected (%s)" (E.pp_error err));
        model := SM.add k v !model
      end
      else begin
        (match E.delete e ~tid:0 k with
        | Ok () -> ()
        | Error err -> failf fail "churn delete rejected (%s)" (E.pp_error err));
        model := SM.remove k !model
      end
    done;
    (* one key per shard, probed so the MPUT spans every shard *)
    let mput_kvs =
      List.init shards (fun s ->
          ( key_on e ~shard:s (Printf.sprintf "x%d.%d" round_seed s),
            Printf.sprintf "mv%d.%d" round_seed s ))
    in
    C.set_crash_after (E.commit e) phase;
    let fired = ref None in
    let outcome =
      match
        E.multi_put e ~tid:0 (List.map (fun (k, v) -> (k, Some v)) mput_kvs)
      with
      | Ok _ -> Serve.Write_audit.Acked
      | Error _ -> Ambiguous
      | exception C.Injected_crash p ->
          fired := Some p;
          Ambiguous
    in
    (* a boundary the MPUT never reached tests nothing *)
    Option.iter
      (fun p -> if !fired <> Some p then failf fail "armed boundary %s never fired" (C.pp_phase p))
      phase;
    let unapplied =
      match !fired with Some C.Decide -> true | Some (C.Apply k) -> k < shards - 1 | _ -> false
    in
    if isolate && unapplied then E.corrupt_shard e (shards - 1) ~seed:round_seed ~count:16;
    let crashed =
      E.crash_hard_with_faults e ~seed:round_seed ~evict_prob ~torn_prob ~bitflips
    in
    (e, fail, !model, mput_kvs, outcome, crashed)
  in
  let audit (e, fail, model, mput_kvs, outcome, _) =
    (* churn keys: exact *)
    SM.iter
      (fun k v ->
        match E.get e ~tid:0 k with
        | Ok (Some v') when v' = v -> ()
        | Ok got ->
            failf fail "churn key %s diverged: got %s want %s" k
              (Option.value got ~default:"<absent>")
              v
        | Error err -> failf fail "get %s rejected (%s)" k (E.pp_error err))
      model;
    (* the MPUT (untokened): atomic across shards, exact if acknowledged *)
    let module W = Serve.Write_audit in
    List.iter fail
      (W.check (W.engine_reader e) [ { W.tok = 0; kvs = mput_kvs; outcome } ]).messages;
    (* merged image: user keys only, no half slice, no metadata leak —
       the churn model plus the MPUT exactly when the point reads found
       all of it *)
    let whole =
      List.for_all
        (fun (k, _) -> match E.get e ~tid:0 k with Ok (Some _) -> true | _ -> false)
        mput_kvs
    in
    let expect =
      if whole then List.fold_left (fun m (k, v) -> SM.add k v m) model mput_kvs else model
    in
    (match E.scan e ~tid:0 ~prefix:"" ~max:(SM.cardinal expect + 8) with
    | Ok kvs -> if kvs <> SM.bindings expect then failf fail "merged scan diverged after crash"
    | Error err -> failf fail "scan rejected (%s)" (E.pp_error err));
    let decided, applied_n = C.stats (E.commit e) in
    if decided <> applied_n then
      failf fail "recovery left an incomplete commit (decided %d, applied %d)" decided
        applied_n;
    (* liveness: the recovered engine still commits across shards *)
    match
      E.multi_put e ~tid:0 (List.map (fun (k, _) -> (k, Some "alive")) mput_kvs)
    with
    | Ok _ -> ()
    | Error err -> failf fail "post-recovery MPUT failed (%s)" (E.pp_error err)
    | exception C.Injected_crash _ -> failf fail "crash armed across recovery (phase not cleared)"
  in
  for round = 1 to rounds do
    let round_seed = seed + round in
    (match run_round ~round ~round_seed ~isolate:false with
    | _, fail, _, _, _, Error detail ->
        if bitflips > 0 then
          Printf.printf
            "  detected: recovery refused corrupt image (round %d: %s)\n" round
            detail
        else failf fail "Unrecoverable on a flip-free image (%s)" detail
    | r -> audit r);
    if bitflips > 0 then
      match run_round ~round ~round_seed ~isolate:true with
      | _, fail, _, _, _, Error detail -> failf fail "isolated recovery refused (%s)" detail
      | e, fail, model, mput_kvs, outcome, (Ok _ as crashed) ->
          let quarantined =
            List.filter
              (fun s ->
                let state, _, _ = H.shard (E.health e) s in
                state = "quarantined")
              (List.init shards Fun.id)
          in
          let st = Random.State.make [| round_seed; 0x4eb |] in
          let order =
            List.map snd
              (List.sort compare
                 (List.map (fun s -> (Random.State.bits st, s)) quarantined))
          in
          (* wrap the slot ring (K = 2 x shards x threads) while the
             quarantined shards' transactions hold their slots *)
          let healthy =
            List.filter (fun s -> not (List.mem s quarantined)) (List.init shards Fun.id)
          in
          let model = ref model in
          if quarantined <> [] && List.length healthy >= 2 then
            for i = 1 to 2 * shards * num_threads + 1 do
              let kvs =
                List.map
                  (fun s ->
                    (key_on e ~shard:s (Printf.sprintf "w%d.%d.%d" round_seed i s), string_of_int i))
                  healthy
              in
              match E.multi_put e ~tid:0 (List.map (fun (k, v) -> (k, Some v)) kvs) with
              | Ok _ -> List.iter (fun (k, v) -> model := SM.add k v !model) kvs
              | Error err -> failf fail "MPUT over the healthy shards failed (%s)" (E.pp_error err)
            done;
          List.iter
            (fun s ->
              match E.rebuild_shard e ~tid:0 s with
              | Ok () -> ()
              | Error d -> failf fail "rebuild of shard %d refused (%s)" s d)
            order;
          audit (e, fail, !model, mput_kvs, outcome, crashed)
  done;
  !failures

(* The report of a chaos or quarantine sweep (--chaos-json,
   --health-json): the run's parameters, its violation count and
   verdict, and one row per round. *)
let write_sweep_report ~file ~schema ~shards ~rounds ~seed ~nclients ~per_client ~mutants
    ~violations rows =
  if file <> "" then begin
    let open Obs.Json in
    let doc =
      Obj
        [
          ("schema", String schema);
          ("shards", Int shards);
          ("rounds", Int rounds);
          ("seed", Int seed);
          ("clients", Int nclients);
          ("ops_per_client", Int per_client);
          ("mutants", List (List.map (fun m -> String (Serve.Commit.pp_mutant m)) mutants));
          ("violations", Int violations);
          ("verdict", Bool (violations = 0));
          ("rows", List rows);
        ]
    in
    let oc = open_out file in
    to_channel oc doc;
    output_char oc '\n';
    close_out oc
  end

(* ---- end-to-end chaos sweep (--serve-chaos) ----

   Each round starts a FRESH engine + reactor with a seeded network
   chaos plan (sever / truncate / corrupt / delay / stall / drop-acked
   -response), then drives it with resilient tokened clients doing
   cross-shard MPUTs over real sockets.  Every third acked write is
   re-submitted with the SAME token — the ambiguous-retry the client
   contract allows after an [`InDoubt] give-up — so the durable outcome
   ledger's dedup is exercised on every round, not only when the chaos
   dice land on a dropped ack.  After the load quiesces the harness
   runs the exactly-once audit ([Serve.Write_audit]) on every write
   straight through the in-process engine handle; a second outcome
   record under one token is a duplicated commit, which the
   no-dedup-on-retry mutant must produce.

   The plan is derived deterministically from the round seed (or
   pinned by --chaos-plan, as printed in repro lines), so the fault
   schedule of a failing round replays. *)

let serve_chaos_torture ~shards ~rounds ~seed ~nclients ~per_client
    ~plan_override ~mutants ~json_file =
  let module E = Serve.Engine in
  let module Ch = Serve.Chaos in
  let module C = Serve.Commit in
  let module R = Serve.Reactor in
  let failures = ref 0 in
  let rows = ref [] in
  let repro round_seed plan =
    Printf.sprintf
      "--serve-chaos %d --rounds 1 --seed %d --chaos-plan \"%s\"%s" shards
      (round_seed - 1) (Ch.pp_plan plan)
      (String.concat ""
         (List.map (fun m -> " --mutant " ^ C.pp_mutant m) mutants))
  in
  let mk_plan round_seed =
    match plan_override with
    | Some p -> { p with Ch.seed = round_seed }
    | None ->
        let st = Random.State.make [| round_seed; 0xc4a05 |] in
        let pick a = a.(Random.State.int st (Array.length a)) in
        {
          Ch.default_plan with
          Ch.seed = round_seed;
          sever_prob = pick [| 0.; 0.005; 0.02 |];
          truncate_prob = pick [| 0.; 0.005; 0.01 |];
          corrupt_prob = pick [| 0.; 0.005 |];
          delay_prob = pick [| 0.; 0.05; 0.2 |];
          stall_prob = pick [| 0.; 0.002 |];
          drop_prob = pick [| 0.005; 0.02 |];
        }
  in
  for round = 1 to rounds do
    let round_seed = seed + round in
    let plan = mk_plan round_seed in
    let src = Ch.source plan in
    let srv =
      R.start
        {
          R.default_config with
          R.max_conns = nclients + 4;
          engine =
            {
              E.default_config with
              E.shards;
              capacity_bytes = 1 lsl 20;
              max_batch = 8;
              queue_cap = 64;
            };
          chaos = Some src;
        }
    in
    let e = R.engine srv in
    E.set_mutants e mutants;
    let port = R.port srv in
    let fail fmt =
      Printf.ksprintf
        (fun msg ->
          incr failures;
          Printf.printf "  !! serve-chaos: %s (round %d)\n     repro: %s\n%!"
            msg round
            (repro round_seed plan))
        fmt
    in
    (* group keys span shards by construction: member j routes to shard
       [j mod shards], so with >= 2 shards every group is cross-shard
       and its retries take the 2PC outcome-ledger path; j is in the
       tag, so members sharing a shard still get distinct keys *)
    let group c i =
      let gsize = if shards = 1 then 2 else min 3 shards in
      List.init gsize (fun j ->
          ( key_on e ~shard:(j mod shards) (Printf.sprintf "x%d.%d.%d.%d" round_seed c i j),
            Printf.sprintf "cv%d.%d.%d.%d" round_seed c i j ))
    in
    let tok c i = ((c + 1) * 100_000) + i + 1 in
    let policy =
      { Serve.Client.call_timeout = 0.4; max_retries = 8 }
    in
    (* per-op outcome, filled by the client domains *)
    let outcomes =
      Array.init nclients (fun _ -> Array.make per_client Serve.Write_audit.Failed)
    in
    let run_client c =
      match
        Serve.Client.connect ~retries:100 ~retry_delay:0.02 ~policy
          ~host:"127.0.0.1" ~port ()
      with
      | exception _ -> () (* chaos won: all ops stay `Failed/ambiguous *)
      | cl ->
          Fun.protect ~finally:(fun () -> Serve.Client.close cl)
          @@ fun () ->
          for i = 0 to per_client - 1 do
            let tok = tok c i in
            let kvs = group c i in
            (match Serve.Client.mput ~tok cl kvs with
            | Ok _ -> outcomes.(c).(i) <- Acked
            | Error (`InDoubt _) -> outcomes.(c).(i) <- Ambiguous
            | Error _ -> ()
            | exception _ -> ());
            (* ambiguous-retry probe: a client that gave up [`InDoubt]
               may legally re-submit with the same token; exactly-once
               means the ledger must answer the duplicate from memory *)
            (if outcomes.(c).(i) = Acked && i mod 3 = 0 then
               match Serve.Client.mput ~tok cl kvs with
               | Ok _ | Error _ -> ()
               | exception _ -> ());
            (* exercise the degradation paths on the side: TTL'd reads
               are shed, not served stale, and never disturb writes *)
            if i mod 4 = 1 then
              ignore
                (try
                   Serve.Client.scan ~ttl_us:5_000 cl
                     ~prefix:(Printf.sprintf "x%d.%d" round_seed c)
                     ~max:16
                 with _ -> Result.Ok [])
          done
    in
    let doms =
      List.init nclients (fun c -> Domain.spawn (fun () -> run_client c))
    in
    List.iter Domain.join doms;
    (* quiesced: audit straight through the engine *)
    let audit =
      Serve.Write_audit.check (Serve.Write_audit.engine_reader e)
        (List.concat
           (List.init nclients (fun c ->
                List.init per_client (fun i ->
                    { Serve.Write_audit.tok = tok c i; kvs = group c i; outcome = outcomes.(c).(i) }))))
    in
    List.iter (fail "%s") audit.messages;
    R.stop srv;
    let faults = Ch.tallies src in
    Printf.printf
      "  round %2d: plan [%s] -> %d acked, %d ambiguous, %d unacked; faults %s\n%!"
      round (Ch.pp_plan plan) audit.acked audit.ambiguous audit.failed
      (String.concat ", "
         (List.map (fun (n, k) -> Printf.sprintf "%s=%d" n k) faults));
    let open Obs.Json in
    rows :=
      Obj
        [
          ("round", Int round);
          ("seed", Int round_seed);
          ("plan", String (Ch.pp_plan plan));
          ("repro", String (repro round_seed plan));
          ("acked", Int audit.acked);
          ("ambiguous", Int audit.ambiguous);
          ("unacked", Int audit.failed);
          ( "faults",
            Obj (List.map (fun (n, k) -> (n, Int k)) faults) );
          ("total_faults", Int (Ch.total_faults src));
        ]
      :: !rows
  done;
  write_sweep_report ~file:json_file ~schema:"redodb.chaos.v1" ~shards ~rounds ~seed
    ~nclients ~per_client ~mutants ~violations:!failures (List.rev !rows);
  !failures

(* ---- per-shard quarantine sweep (--serve-quarantine) ----

   Each round starts a FRESH isolated reactor (per-shard fault isolation
   on, online scrubber on its dedicated domain) and drives it with
   resilient tokened clients mixing single-shard PUTs and cross-shard
   MPUTs over real sockets.  A third into the load, while nothing
   writes to it, the harness injects silent bit rot into ONE victim
   shard's durable metadata over the wire (CORRUPT — invisible to live
   reads).  The scrubber must find the rot, quarantine only the victim,
   rebuild it online from its snapshot export plus commit-journal
   replay, and readmit it — while healthy-shard traffic keeps flowing
   and a probe client writes at the quarantined victim.  The
   harness then exercises the operator path: FREEZE the victim and
   REBUILD it over the wire while a hammer domain writes at it — the
   clean protocol refuses those writes, so a write that was ACKED
   during the rebuild and then lost is the serve-while-rebuilding
   violation.

   Audits (each violation prints a replayable repro line):
     - zero acked-write loss across quarantine -> rebuild ->
       readmission -> freeze -> rebuild: the exactly-once audit
       ([Serve.Write_audit]) on every op, plus every write the hammer
       saw acked during the rebuild;
     - fault isolation: no op that avoided the victim shard was ever
       refused with SHARD_UNAVAILABLE, and some such op was in flight
       across the victim's quarantine -> rebuild -> readmission;
     - self-healing: the scrubber actually quarantined AND readmitted
       the victim (the no-scrub-verify mutant must fail here), and a
       final mutant-blind verification of every shard passes. *)

let serve_quarantine_torture ~shards ~rounds ~seed ~nclients ~per_client
    ~mutants ~json_file =
  let module E = Serve.Engine in
  let module C = Serve.Commit in
  let module H = Serve.Health in
  let module R = Serve.Reactor in
  let failures = ref 0 in
  let rows = ref [] in
  let repro round_seed =
    Printf.sprintf "--serve-quarantine %d --rounds 1 --seed %d%s" shards
      (round_seed - 1)
      (String.concat ""
         (List.map (fun m -> " --mutant " ^ C.pp_mutant m) mutants))
  in
  for round = 1 to rounds do
    let round_seed = seed + round in
    let victim = round_seed mod shards in
    (* >= 2 reactors: a REBUILD executing on one reactor's worker fiber
       blocks that whole loop, so the front-end must keep another loop
       free to serve concurrent requests *)
    let srv =
      R.start
        {
          R.default_config with
          R.reactors = 2;
          max_conns = nclients + 4;
          engine =
            {
              E.default_config with
              E.shards;
              capacity_bytes = 1 lsl 20;
              max_batch = 8;
              queue_cap = 64;
              isolate = true;
            };
          scrub_pause_us = Some 200.;
        }
    in
    let e = R.engine srv in
    E.set_mutants e mutants;
    (* a realistic device cost stretches the rebuild window the hammer
       below must race *)
    E.set_flush_cost e 150;
    let port = R.port srv in
    let fail fmt =
      Printf.ksprintf
        (fun msg ->
          incr failures;
          Printf.printf
            "  !! serve-quarantine: %s (round %d)\n     repro: %s\n%!" msg
            round (repro round_seed))
        fmt
    in
    (* the op matrix is fixed upfront: each op knows its shard set, so
       the isolation audit can tell victim traffic from healthy traffic *)
    let ops =
      Array.init nclients (fun c ->
          Array.init per_client (fun i ->
              let tok = ((c + 1) * 1_000_000) + i + 1 in
              let tag j = Printf.sprintf "q%d.%d.%d.%d" round_seed c i j in
              let kvs, on =
                if i mod 2 = 0 then
                  let s = (c + i) mod shards in
                  ( [ (key_on e ~shard:s (tag 0), Printf.sprintf "v%d.0" tok) ],
                    [ s ] )
                else
                  let s1 = i mod shards and s2 = (i + 1) mod shards in
                  ( [
                      (key_on e ~shard:s1 (tag 1), Printf.sprintf "v%d.1" tok);
                      (key_on e ~shard:s2 (tag 2), Printf.sprintf "v%d.2" tok);
                    ],
                    List.sort_uniq compare [ s1; s2 ] )
              in
              (tok, kvs, on, ref `Failed)))
    in
    let policy =
      { Serve.Client.call_timeout = 0.4; max_retries = 10 }
    in
    let cv k =
      match List.assoc_opt k (H.counters (E.health e)) with
      | Some v -> v
      | None -> 0
    in
    let quarantined () = cv "serve.health.quarantines" >= 1 in
    let readmitted () = cv "serve.health.readmissions" >= 1 in
    let run_op cl (tok, kvs, _, st) =
      st :=
        match kvs with
        | [ (k, v) ] -> (
            match Serve.Client.put ~tok cl ~key:k ~value:v with
            | Ok () -> `Acked
            | Error (`InDoubt _) -> `Ambiguous
            | Error (`Shard_down _) -> `Refused
            | Error _ -> `Failed
            | exception _ -> `Failed)
        | _ -> (
            match Serve.Client.mput ~tok cl kvs with
            | Ok _ -> `Acked
            | Error (`InDoubt _) -> `Ambiguous
            | Error (`Shard_down _) -> `Refused
            | Error _ -> `Failed
            | exception _ -> `Failed)
    in
    (* The rot lives in the durable commit header and replica records,
       which the victim's next commit rewrites: injected amid victim
       writes it can heal before the scrubber reaches it.  So each client
       runs its first third, then holds every victim-touching op until
       the window closes (the scrubber has readmitted the victim) while
       keeping healthy traffic flowing: its remaining healthy ops, then
       filler PUTs and 2PC MPUTs over the healthy shards.  The rot goes
       in once every client is past its third, so nothing writes the
       victim between injection and quarantine.  A healthy op that
       started before readmission and ended after quarantine straddled
       the window; each client loops until the window closes, so (filler
       cap aside) its last op before readmission does.  Ops beyond the
       fixed matrix join the audit through [extra] (one slot per issuing
       domain; the last is the victim probe's). *)
    let past_third = Atomic.make 0 in
    let window_closed = Atomic.make false in
    let window_ops = Atomic.make 0 in
    let extra = Array.make (nclients + 1) [] in
    let healthy =
      List.filter (fun s -> s <> victim) (List.init shards Fun.id)
    in
    let filler c n =
      let tok = ((c + 1) * 1_000_000) + 500_000 + n in
      let tag j = Printf.sprintf "h%d.%d.%d.%d" round_seed c n j in
      let s1 = List.nth healthy (n mod List.length healthy) in
      let kvs, on =
        match List.filter (fun s -> s <> s1) healthy with
        | s2 :: _ when n mod 2 = 1 ->
            ( [
                (key_on e ~shard:s1 (tag 1), Printf.sprintf "v%d.1" tok);
                (key_on e ~shard:s2 (tag 2), Printf.sprintf "v%d.2" tok);
              ],
              List.sort_uniq compare [ s1; s2 ] )
        | _ ->
            ( [ (key_on e ~shard:s1 (tag 0), Printf.sprintf "v%d.0" tok) ],
              [ s1 ] )
      in
      (tok, kvs, on, ref `Failed)
    in
    let run_client c =
      match
        Serve.Client.connect ~retries:100 ~retry_delay:0.02 ~policy
          ~host:"127.0.0.1" ~port ()
      with
      | exception _ -> Atomic.incr past_third
      | cl ->
          Fun.protect ~finally:(fun () -> Serve.Client.close cl) @@ fun () ->
          let third = per_client / 3 in
          let held = ref [] in
          let run_healthy op =
            let before = readmitted () in
            run_op cl op;
            if (not before) && quarantined () then Atomic.incr window_ops
          in
          Array.iteri
            (fun i ((_, _, on, _) as op) ->
              if i = third then Atomic.incr past_third;
              if i < third then run_op cl op
              else if List.mem victim on then held := op :: !held
              else run_healthy op)
            ops.(c);
          if per_client = 0 then Atomic.incr past_third;
          let n = ref 0 in
          while not (Atomic.get window_closed) do
            if healthy <> [] && !n < 500 then begin
              let op = filler c !n in
              incr n;
              extra.(c) <- op :: extra.(c);
              run_healthy op
            end
            else Unix.sleepf 0.002
          done;
          List.iter (run_op cl) (List.rev !held)
    in
    (* Victim probe: from the observed quarantine until the window
       closes, a client with no retries writes at the victim, so requests
       reach it while it is quarantined or rebuilding.  Each must be
       refused, or acked after readmission and durable. *)
    let probe () =
      let until = Unix.gettimeofday () +. 10. in
      while
        (not (quarantined ()))
        && (not (Atomic.get window_closed))
        && Unix.gettimeofday () < until
      do
        Unix.sleepf 0.0005
      done;
      match
        Serve.Client.connect ~retries:100 ~retry_delay:0.02
          ~policy:{ policy with max_retries = 0 } ~host:"127.0.0.1" ~port ()
      with
      | exception _ -> ()
      | cl ->
          Fun.protect ~finally:(fun () -> Serve.Client.close cl) @@ fun () ->
          let n = ref 0 in
          while (not (Atomic.get window_closed)) && !n < 500 do
            let tok = ((nclients + 1) * 1_000_000) + !n + 1 in
            let k =
              key_on e ~shard:victim (Printf.sprintf "p%d.%d" round_seed !n)
            in
            let op =
              (tok, [ (k, Printf.sprintf "v%d.0" tok) ], [ victim ], ref `Failed)
            in
            incr n;
            extra.(nclients) <- op :: extra.(nclients);
            run_op cl op;
            Unix.sleepf 0.0005
          done
    in
    let doms =
      List.init nclients (fun c -> Domain.spawn (fun () -> run_client c))
    in
    let prober = Domain.spawn probe in
    (* every client past its third, the victim idle: rot it silently,
       over the wire *)
    let until = Unix.gettimeofday () +. 10. in
    while Atomic.get past_third < nclients && Unix.gettimeofday () < until do
      Unix.sleepf 0.002
    done;
    let admin =
      Serve.Client.connect ~retries:100 ~retry_delay:0.02
        ~policy:Serve.Client.resilient ~host:"127.0.0.1" ~port ()
    in
    (match
       Serve.Client.corrupt admin ~shard:victim ~seed:round_seed ~count:3
     with
    | Ok () -> ()
    | Error d -> fail "CORRUPT refused: %s" d
    | exception Serve.Client.Protocol_error d -> fail "CORRUPT died: %s" d);
    (* self-healing: the scrubber must quarantine AND readmit on its own *)
    let deadline = Unix.gettimeofday () +. 10. in
    while (not (readmitted ())) && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.002
    done;
    Atomic.set window_closed true;
    if not (quarantined ()) then
      fail "scrubber never quarantined the rotten shard %d" victim
    else if not (readmitted ()) then
      fail "victim shard %d was quarantined but never rebuilt + readmitted"
        victim;
    List.iter Domain.join doms;
    Domain.join prober;
    if quarantined () && healthy <> [] && Atomic.get window_ops = 0 then
      fail "no healthy-shard op was in flight across shard %d's quarantine"
        victim;
    (* operator path: freeze, then rebuild over the wire under a hammer *)
    let rebuilds_before = cv "serve.health.rebuilds" in
    let scrub_rebuilds () =
      match R.scrubber srv with
      | Some sc -> Serve.Scrub.rebuilds sc
      | None -> (0, 0)
    in
    let scrub_before = scrub_rebuilds () in
    (match Serve.Client.freeze admin victim with
    | Ok () -> ()
    | Error d -> fail "FREEZE refused: %s" d
    | exception Serve.Client.Protocol_error d -> fail "FREEZE died: %s" d);
    let hammer_stop = Atomic.make false in
    let hammer_acked = ref [] in
    let admitted_rebuilding = ref false in
    let hammer =
      Domain.spawn (fun () ->
          let n = ref 0 in
          while not (Atomic.get hammer_stop) do
            incr n;
            (* admission invariant, probed deterministically: a shard
               that reads Rebuilding on both sides of the admission
               check must have refused.  The racing put below catches
               the same mutant the hard way (acked-then-lost) when the
               write actually lands inside the window. *)
            let st1, _, _ = H.shard (E.health e) victim in
            let adm = H.admits (E.health e) victim in
            let st2, _, _ = H.shard (E.health e) victim in
            if st1 = "rebuilding" && st2 = "rebuilding" && adm then
              admitted_rebuilding := true;
            let k =
              key_on e ~shard:victim (Printf.sprintf "rb%d.%d" round_seed !n)
            in
            (match E.put e ~tid:0 ~key:k ~value:(string_of_int !n) with
            | Ok () -> hammer_acked := (k, string_of_int !n) :: !hammer_acked
            | Error _ -> ());
            Domain.cpu_relax ()
          done)
    in
    (match Serve.Client.rebuild admin victim with
    | Ok ms -> if ms < 0. then fail "negative rebuild time"
    | Error d ->
        (* The scrubber rebuilds any quarantined shard it walks past, so it
           may take the frozen victim before this REBUILD arrives.  The
           refusal is fine only if the scrubber's rebuild then readmits
           the shard and every rebuild since FREEZE was the scrubber's
           (the operator's never started).  Keep hammering meanwhile. *)
        let ok0, failed0 = scrub_before in
        let until = Unix.gettimeofday () +. 10. in
        while
          fst (scrub_rebuilds ()) <= ok0 && Unix.gettimeofday () < until
        do
          Unix.sleepf 0.002
        done;
        let ok1, failed1 = scrub_rebuilds () in
        if
          ok1 <= ok0
          || cv "serve.health.rebuilds" - rebuilds_before
             <> ok1 - ok0 + (failed1 - failed0)
        then fail "REBUILD failed: %s" d
    | exception Serve.Client.Protocol_error d -> fail "REBUILD died: %s" d);
    Atomic.set hammer_stop true;
    Domain.join hammer;
    Serve.Client.close admin;
    if !admitted_rebuilding then
      fail
        "shard %d admitted requests while REBUILDING (serve-while-rebuilding)"
        victim;
    (* a write acked at any point — including during the rebuild — must
       survive; acked-then-lost is the serve-while-rebuilding violation *)
    List.iter
      (fun (k, v) ->
        match E.get e ~tid:0 k with
        | Ok (Some v') when v' = v -> ()
        | Ok (Some v') -> fail "rebuild-window write %s mangled: got %s" k v'
        | _ ->
            fail "write %s ACKED during REBUILD was lost (serve-while-rebuilding)"
              k)
      !hammer_acked;
    (* quiesced: audit every op straight through the engine *)
    let all_ops =
      List.concat (Array.to_list (Array.map Array.to_list ops))
      @ List.concat (Array.to_list extra)
    in
    let audit =
      Serve.Write_audit.check (Serve.Write_audit.engine_reader e)
        (List.map
           (fun (tok, kvs, _, st) ->
             let outcome =
               match !st with
               | `Acked -> Serve.Write_audit.Acked
               | `Ambiguous -> Ambiguous
               | `Refused | `Failed -> Failed
             in
             { Serve.Write_audit.tok; kvs; outcome })
           all_ops)
    in
    List.iter (fail "%s") audit.messages;
    (* isolation: only a victim-touching op may answer SHARD_UNAVAILABLE *)
    let refused_victim = ref 0 in
    List.iter
      (fun (tok, _, on, st) ->
        if !st = `Refused then
          if List.mem victim on then incr refused_victim
          else fail "op tok %d touching only healthy shards answered SHARD_UNAVAILABLE" tok)
      all_ops;
    (* final mutant-blind verification: surviving silent rot fails *)
    for s = 0 to shards - 1 do
      (match E.verify_shard e s with
      | Ok () -> ()
      | Error d -> fail "final verification: shard %d still rotten (%s)" s d);
      let state, _, _ = H.shard (E.health e) s in
      if state <> "healthy" then
        fail "shard %d ended the round %s, not healthy" s state
    done;
    let hc = H.counters (E.health e) in
    R.stop srv;
    let passes, anomalies =
      match R.scrubber srv with
      | Some sc -> (Serve.Scrub.full_passes sc, Serve.Scrub.anomalies sc)
      | None -> (0, 0)
    in
    Printf.printf
      "  round %2d: victim %d -> %d acked, %d victim refusals, %d healthy \
       ops across the quarantine, %d rebuild-window acks; %s; scrub passes \
       %d, anomalies %d\n\
       %!"
      round victim audit.acked !refused_victim (Atomic.get window_ops)
      (List.length !hammer_acked)
      (String.concat ", "
         (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) hc))
      passes anomalies;
    let open Obs.Json in
    rows :=
      Obj
        [
          ("round", Int round);
          ("seed", Int round_seed);
          ("victim", Int victim);
          ("repro", String (repro round_seed));
          ("acked", Int audit.acked);
          ("victim_refusals", Int !refused_victim);
          ("window_ops", Int (Atomic.get window_ops));
          ("rebuild_window_acks", Int (List.length !hammer_acked));
          ("health", Obj (List.map (fun (n, v) -> (n, Int v)) hc));
          ("scrub_full_passes", Int passes);
          ("scrub_anomalies", Int anomalies);
        ]
      :: !rows
  done;
  write_sweep_report ~file:json_file ~schema:"redodb.quarantine.v1" ~shards ~rounds
    ~seed ~nclients ~per_client ~mutants ~violations:!failures (List.rev !rows);
  !failures

let parse_kill s =
  let tid, step = parse_at ~flag:"--kill" s in
  (int_field ~flag:"--kill" tid, int_field ~flag:"--kill" step)

let parse_stall s =
  let tid, rest = parse_at ~flag:"--stall" s in
  let tid = int_field ~flag:"--stall" tid in
  match String.index_opt rest ':' with
  | None -> (tid, int_field ~flag:"--stall" rest, None)
  | Some i ->
      ( tid,
        int_field ~flag:"--stall" (String.sub rest 0 i),
        Some
          (int_field ~flag:"--stall"
             (String.sub rest (i + 1) (String.length rest - i - 1))) )

let () =
  let ptm_filter = ref "" in
  let rounds = ref 20 in
  let seed = ref 42 in
  let evict_prob = ref 0.5 in
  let evict_set = ref false in
  let torn_prob = ref 0.0 in
  let torn_set = ref false in
  let bitflips = ref 0 in
  let threads = ref 3 in
  let mid_op = ref false in
  let nops = ref 30 in
  let sample = ref 40 in
  let step = ref 0 in
  let trace_file = ref None in
  let metrics = ref false in
  let sched = ref false in
  let sched_seed = ref 0 in
  let sched_threads = ref 3 in
  let sched_ops = ref 4 in
  let sched_rounds = ref 6 in
  let sched_budget = ref None in
  let stalls = ref [] in
  let kills = ref [] in
  let crash_step = ref None in
  let serve_shards = ref 0 in
  let serve_mput = ref 0 in
  let serve_chaos = ref 0 in
  let chaos_plan = ref None in
  let chaos_json = ref "" in
  let chaos_clients = ref 4 in
  let chaos_ops = ref 12 in
  let crash_phase = ref None in
  let serve_quarantine = ref 0 in
  let health_json = ref "" in
  let mutants = ref [] in
  let spec =
    [
      ("--ptm", Arg.Set_string ptm_filter, "NAME only torture this PTM");
      ("--rounds", Arg.Set_int rounds, "N crash rounds per PTM (default 20)");
      ("--seed", Arg.Set_int seed, "S base random seed (default 42)");
      ( "--evict-prob",
        Arg.Float
          (fun p ->
            evict_prob := p;
            evict_set := true),
        "P survival probability of unflushed lines (default 0.5; in --mid-op \
         mode the default is a strict crash)" );
      ( "--torn-prob",
        Arg.Float
          (fun p ->
            torn_prob := p;
            torn_set := true),
        "P probability that an at-crash eviction persists only a partial \
         cache line (default 0: whole-line evictions)" );
      ( "--bitflips",
        Arg.Set_int bitflips,
        "N bits to flip in the PTM's durable metadata after each crash \
         (default 0); Unrecoverable then counts as detection, not failure" );
      ("--threads", Arg.Set_int threads, "T concurrent churn threads (default 3)");
      ( "--mid-op",
        Arg.Set mid_op,
        " crash inside transactions (step sweep) instead of between them" );
      ( "--ops",
        Arg.Set_int nops,
        "N mid-op workload length in operations (default 30)" );
      ( "--sample",
        Arg.Set_int sample,
        "N crash points to sample in --mid-op mode; 0 sweeps every step \
         (default 40)" );
      ( "--step",
        Arg.Set_int step,
        "K crash at exactly step K in --mid-op mode (from a repro line)" );
      ( "--sched",
        Arg.Set sched,
        " run the deterministic-scheduler progress sweep (stall/kill \
         adversaries + progress oracle) instead of crash torture" );
      ( "--sched-seed",
        Arg.Set_int sched_seed,
        "S scheduler seed for --sched (default 0)" );
      ( "--sched-threads",
        Arg.Set_int sched_threads,
        "T fibers per scheduled run (default 3)" );
      ( "--sched-ops",
        Arg.Set_int sched_ops,
        "N base operations per fiber in --sched mode (default 4)" );
      ( "--sched-rounds",
        Arg.Set_int sched_rounds,
        "R adversary rounds per PTM in the --sched sweep (default 6)" );
      ( "--sched-budget",
        Arg.Int (fun b -> sched_budget := Some b),
        "B scheduler step budget (default 2000000)" );
      ( "--stall",
        Arg.String (fun s -> stalls := !stalls @ [ parse_stall s ]),
        "TID@STEP[:K] stall fiber TID at step STEP (forever, or for K \
         steps); repeatable; implies a single --sched replay" );
      ( "--kill",
        Arg.String (fun s -> kills := !kills @ [ parse_kill s ]),
        "TID@STEP kill fiber TID at step STEP; repeatable; implies a \
         single --sched replay" );
      ( "--crash-step",
        Arg.Int (fun s -> crash_step := Some s),
        "N in --sched mode, crash the whole machine at scheduler step N, \
         recover and check the durable counter" );
      ( "--serve-shards",
        Arg.Set_int serve_shards,
        "N torture the sharded serving engine (lib/serve) with N shards: hard \
         power failures between churn rounds, media faults per shard" );
      ( "--serve-mput",
        Arg.Set_int serve_mput,
        "N torture the cross-shard commit with N shards: each round arms a \
         multi-shard MPUT to power-fail at a random 2PC phase boundary and \
         audits all-or-nothing after recovery" );
      ( "--serve-chaos",
        Arg.Set_int serve_chaos,
        "N end-to-end chaos sweep with N shards: each round runs a fresh TCP \
         server under a seeded network-fault plan, drives it with resilient \
         tokened clients, and audits exactly-once + all-or-nothing through \
         the engine" );
      ( "--chaos-plan",
        Arg.String
          (fun s ->
            match Serve.Chaos.parse_plan s with
            | Ok p -> chaos_plan := Some p
            | Error e -> raise (Arg.Bad ("--chaos-plan: " ^ e))),
        "PLAN pin the --serve-chaos fault plan (from a repro line)" );
      ( "--chaos-json",
        Arg.Set_string chaos_json,
        "FILE write a machine-readable --serve-chaos report" );
      ( "--chaos-clients",
        Arg.Set_int chaos_clients,
        "C client domains per --serve-chaos round (default 4)" );
      ( "--chaos-ops",
        Arg.Set_int chaos_ops,
        "K tokened MPUT groups per client per --serve-chaos round (default 12)" );
      ( "--serve-quarantine",
        Arg.Set_int serve_quarantine,
        "N per-shard fault-isolation sweep with N shards: each round rots one \
         shard's durable metadata under live resilient-client load; the \
         online scrubber must quarantine only that shard, rebuild it from \
         its snapshot export + commit-journal replay and readmit it, with \
         zero acked-write loss and no SHARD_UNAVAILABLE on healthy shards \
         (uses --chaos-clients / --chaos-ops for the load shape)" );
      ( "--health-json",
        Arg.Set_string health_json,
        "FILE write a machine-readable --serve-quarantine report" );
      ( "--crash-phase",
        Arg.String
          (fun s ->
            match Serve.Commit.parse_phase s with
            | Some p -> crash_phase := Some p
            | None ->
                raise
                  (Arg.Bad
                     (Printf.sprintf
                        "--crash-phase: expected prepare:K | decide | apply:K \
                         | forget, got %S"
                        s))),
        "P pin the --serve-mput crash boundary (from a repro line)" );
      ( "--mutant",
        Arg.String
          (fun s ->
            match Serve.Commit.parse_mutant s with
            | Some m -> mutants := !mutants @ [ m ]
            | None ->
                raise
                  (Arg.Bad
                     (Printf.sprintf "--mutant: expected %s, got %S"
                        (String.concat " | " Serve.Commit.mutant_names)
                        s))),
        "M drop a commit-protocol or health-plane guard in --serve-mput / \
         --serve-chaos / --serve-quarantine mode (the sweep must then \
         fail); repeatable" );
      ( "--trace",
        Arg.String (fun f -> trace_file := Some f),
        "FILE export a Chrome trace-event JSON of the torture run" );
      ( "--metrics",
        Arg.Set metrics,
        " enable the metrics registry and dump it at exit" );
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "crash_torture [options]";
  let selected =
    if !ptm_filter = "" then constructions
    else List.filter (fun c -> c.name = !ptm_filter) constructions
  in
  if selected = [] then begin
    Printf.eprintf "unknown PTM %S\n" !ptm_filter;
    exit 2
  end;
  if !metrics then Obs.Metrics.enable true;
  if !trace_file <> None then Obs.Trace.enable ();
  (* The trace and metrics dump must survive a failing run: that is when
     they are most useful. *)
  let flush_observability () =
    (match !trace_file with
    | None -> ()
    | Some file ->
        Obs.Trace.write_file file;
        Printf.printf "trace: %d events (%d dropped) -> %s\n"
          (Obs.Trace.recorded ()) (Obs.Trace.dropped ()) file);
    if !metrics then Obs.Metrics.dump Format.std_formatter
  in
  let tp = if !torn_set then Some !torn_prob else None in
  let total_failures = ref 0 in
  (if !serve_quarantine > 0 then begin
     (if Sys.unix then
        try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
        with Invalid_argument _ -> ());
     Printf.printf
       "torturing serve-quarantine/%d-shard (%d rounds, %d clients x %d \
        ops%s)...\n\
        %!"
       !serve_quarantine !rounds !chaos_clients !chaos_ops
       (match !mutants with
       | [] -> ""
       | ms ->
           ", mutants "
           ^ String.concat "," (List.map Serve.Commit.pp_mutant ms));
     let t0 = Unix.gettimeofday () in
     let f =
       serve_quarantine_torture ~shards:!serve_quarantine ~rounds:!rounds
         ~seed:!seed ~nclients:!chaos_clients ~per_client:!chaos_ops
         ~mutants:!mutants ~json_file:!health_json
     in
     total_failures := !total_failures + f;
     Printf.printf "%s (%.1fs)\n"
       (if f = 0 then "ok" else Printf.sprintf "%d FAILURES" f)
       (Unix.gettimeofday () -. t0)
   end
   else if !serve_chaos > 0 then begin
     (if Sys.unix then
        try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
        with Invalid_argument _ -> ());
     Printf.printf
       "torturing serve-chaos/%d-shard (%d rounds, %d clients x %d groups%s%s)...\n%!"
       !serve_chaos !rounds !chaos_clients !chaos_ops
       (match !chaos_plan with
       | None -> ""
       | Some p -> ", plan [" ^ Serve.Chaos.pp_plan p ^ "]")
       (match !mutants with
       | [] -> ""
       | ms ->
           ", mutants "
           ^ String.concat "," (List.map Serve.Commit.pp_mutant ms));
     let t0 = Unix.gettimeofday () in
     let f =
       serve_chaos_torture ~shards:!serve_chaos ~rounds:!rounds ~seed:!seed
         ~nclients:!chaos_clients ~per_client:!chaos_ops
         ~plan_override:!chaos_plan ~mutants:!mutants ~json_file:!chaos_json
     in
     total_failures := !total_failures + f;
     Printf.printf "%s (%.1fs)\n"
       (if f = 0 then "ok" else Printf.sprintf "%d FAILURES" f)
       (Unix.gettimeofday () -. t0)
   end
   else if !serve_mput > 0 then begin
     Printf.printf
       "torturing serve-mput/%d-shard (%d rounds, evict %.2f, torn %.2f, \
        flips %d%s%s)... %!"
       !serve_mput !rounds !evict_prob !torn_prob !bitflips
       (match !crash_phase with
       | None -> ""
       | Some p -> ", phase " ^ Serve.Commit.pp_phase p)
       (match !mutants with
       | [] -> ""
       | ms ->
           ", mutants "
           ^ String.concat "," (List.map Serve.Commit.pp_mutant ms));
     let t0 = Unix.gettimeofday () in
     let f =
       serve_mput_torture ~shards:!serve_mput ~rounds:!rounds ~seed:!seed
         ~evict_prob:!evict_prob ~torn_prob:tp ~bitflips:!bitflips
         ~crash_phase:!crash_phase ~mutants:!mutants
     in
     total_failures := !total_failures + f;
     Printf.printf "%s (%.1fs)\n"
       (if f = 0 then "ok" else Printf.sprintf "%d FAILURES" f)
       (Unix.gettimeofday () -. t0)
   end
   else if !serve_shards > 0 then begin
     Printf.printf
       "torturing serve/%d-shard (%d rounds, evict %.2f, torn %.2f, flips %d)... %!"
       !serve_shards !rounds !evict_prob !torn_prob !bitflips;
     let t0 = Unix.gettimeofday () in
     let f =
       serve_torture ~shards:!serve_shards ~rounds:!rounds ~seed:!seed
         ~evict_prob:!evict_prob ~torn_prob:tp ~bitflips:!bitflips
     in
     total_failures := !total_failures + f;
     Printf.printf "%s (%.1fs)\n"
       (if f = 0 then "ok" else Printf.sprintf "%d FAILURES" f)
       (Unix.gettimeofday () -. t0)
   end
   else if !sched then begin
     let ep = if !evict_set then Some !evict_prob else None in
     match List.filter_map (fun c -> c.sched) selected with
     | [] ->
         Printf.eprintf "--sched: %s has no dynamic transactions to schedule\n"
           !ptm_filter;
         exit 2
     | ps ->
         List.iter
           (fun (module P : Ptm.Ptm_intf.S) ->
             Printf.printf "sched %-10s (seed %d, %d threads, %d ops)\n%!"
               P.name !sched_seed !sched_threads !sched_ops;
             let t0 = Unix.gettimeofday () in
             let f =
               sched_one (module P) ~seed:!sched_seed ~threads:!sched_threads
                 ~ops:!sched_ops ~rounds:!sched_rounds ~budget:!sched_budget
                 ~stalls:!stalls ~kills:!kills ~crash_step:!crash_step
                 ~evict_prob:ep ~torn_prob:tp ~bitflips:!bitflips
             in
             total_failures := !total_failures + f;
             Printf.printf "  (%.1fs)\n" (Unix.gettimeofday () -. t0))
           ps
   end
   else if !mid_op then
     let ep = if !evict_set then Some !evict_prob else None in
     List.iter
       (fun c ->
         let t0 = Unix.gettimeofday () in
         let f =
           midop_one c.midop ~seed:!seed ~nops:!nops ~step:!step
             ~sample:!sample ~evict_prob:ep ~torn_prob:tp ~bitflips:!bitflips
         in
         total_failures := !total_failures + f;
         Printf.printf "  (%.1fs)\n" (Unix.gettimeofday () -. t0))
       selected
   else
     List.iter
       (fun c ->
         Printf.printf
           "torturing %-10s (%d rounds, evict %.2f, torn %.2f, flips %d, %d \
            threads)... %!"
           c.name !rounds !evict_prob !torn_prob !bitflips !threads;
         let t0 = Unix.gettimeofday () in
         let f =
           torture_one c.quiescent ~rounds:!rounds ~seed:!seed
             ~evict_prob:!evict_prob ~torn_prob:tp ~bitflips:!bitflips
             ~threads:!threads
         in
         total_failures := !total_failures + f;
         Printf.printf "%s (%.1fs)\n"
           (if f = 0 then "ok" else Printf.sprintf "%d FAILURES" f)
           (Unix.gettimeofday () -. t0))
       selected);
  flush_observability ();
  let what = if !sched then "progress" else "durability" in
  if !total_failures > 0 then begin
    Printf.printf "\n%d %s violations found.\n" !total_failures what;
    exit 1
  end
  else Printf.printf "\nno %s violations found.\n" what
