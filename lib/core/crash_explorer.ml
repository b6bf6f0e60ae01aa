(** Systematic mid-transaction crash-surface exploration.

    The quiescent crash tests ([suite_recovery], [bin/crash_torture]) only
    ever kill the machine {e between} transactions; the paper's
    durable-linearizability claims are about crashes landing {e anywhere} —
    between a log persist and a [curComb] CAS, halfway through a replica
    copy, and so on.  This module turns {!Pmem}'s step-counting injection
    layer into a prefix-closed durable-linearizability oracle:

    + run a deterministic single-threaded workload once, counting the
      persistence-relevant steps it executes (N);
    + for each chosen step [k <= N], re-run the workload from scratch on a
      fresh instance with a crash armed at step [k];
    + when {!Pmem.Crash_injected} unwinds out of the in-flight transaction,
      crash-and-recover (optionally with random cache evictions of the
      lines dirty at the crash point);
    + the recovered structure must equal the model either {e before} or
      {e after} the in-flight operation — prefix-closedness — and must
      still accept updates.  Anything else is a reported violation carrying
      a one-line reproduction.

    The workload is a singly-linked list set with an element-count word,
    self-contained here (the [pds] structures live above this library) and
    written once over the transactional accessors, so the eight PTMs
    ({!Of_ptm}) and ONLL ({!Onll_target}, as two registered operations) run
    the very same code under the one sweep {!Make}.  It exercises
    allocation, deallocation and multi-word pointer surgery, so torn or
    replayed transactions corrupt it in externally visible ways: the count
    disagreeing with the chain is exactly the kind of half-applied state a
    broken PTM leaks. *)

module I64Set = Set.Make (Int64)

type op = Add of int64 | Remove of int64

let pp_op = function
  | Add k -> Printf.sprintf "add %Ld" k
  | Remove k -> Printf.sprintf "remove %Ld" k

(** Deterministic workload: [n] add/remove operations over a small keyspace
    drawn from [seed] (small keyspace = frequent structural hits). *)
let default_ops ?(n = 12) ~seed () =
  let st = Random.State.make [| seed; 0x5eed |] in
  List.init n (fun _ ->
      let k = Int64.of_int (Random.State.int st 8) in
      if Random.State.bool st then Add k else Remove k)

let model_apply set = function
  | Add k -> I64Set.add k set
  | Remove k -> I64Set.remove k set

type violation = {
  step : int; (* the step the crash was injected after *)
  op_index : int; (* index of the in-flight operation *)
  op : op;
  detail : string;
  repro : string; (* one-line reproduction via crash_torture --mid-op *)
}

type report = {
  ptm : string;
  seed : int;
  total_steps : int; (* steps of the uninterrupted reference run *)
  steps_tested : int;
  crashes_injected : int;
  detected : int;
      (* recoveries that refused a corrupt image with [Unrecoverable] while
         bit flips were being injected — the correct outcome, not a
         violation *)
  violations : violation list;
}

let pp_report ppf r =
  Format.fprintf ppf
    "%-10s steps=%-5d tested=%-5d injected=%-5d detected=%-3d violations=%d"
    r.ptm r.total_steps r.steps_tested r.crashes_injected r.detected
    (List.length r.violations)

(* One-line reproduction matching bin/crash_torture's flag spelling exactly:
   pasting the line after [dune exec bin/crash_torture.exe --] replays the
   same crash point, eviction/tear coins and bit-flip targets. *)
let mk_repro_line ~ptm ~seed ~nops ~evict_prob ~torn_prob ~bitflips k =
  Printf.sprintf "crash_torture --mid-op --ptm %s --seed %d --ops %d --step %d%s%s%s"
    ptm seed nops k
    (match evict_prob with
    | None -> ""
    | Some p -> Printf.sprintf " --evict-prob %g" p)
    (match torn_prob with
    | None -> ""
    | Some p -> Printf.sprintf " --torn-prob %g" p)
    (if bitflips > 0 then Printf.sprintf " --bitflips %d" bitflips else "")

(** Evenly spaced sample of [count] steps out of [1..total] (endpoints
    included); the full range when [count >= total]. *)
let sample_steps ~total ~count =
  if total <= 0 || count <= 0 then []
  else if count >= total then List.init total (fun i -> i + 1)
  else
    List.sort_uniq compare
      (List.init count (fun i -> 1 + (i * (total - 1) / (count - 1))))

module type TARGET = sig
  val name : string

  type t

  val create : num_threads:int -> words:int -> t
  val pmem : t -> Pmem.t
  val apply : t -> tid:int -> op -> bool
  val contents : t -> tid:int -> int64 list * int
  val crash_and_recover : t -> unit
  val crash_with_evictions : t -> seed:int -> prob:float -> unit

  val crash_with_faults :
    t -> seed:int -> evict_prob:float -> torn_prob:float -> bitflips:int -> unit

  val rollback_on_flips : bool
end

(* The list-set workload over a construction's accessors.  Both root slots
   start at zero (empty list), so a fresh instance needs no initialisation
   transaction — keeping run 0 and run k step-aligned from the very first
   operation. *)
module List_set (X : sig
  type t
  type tx

  val get : tx -> int -> int64
  val set : tx -> int -> int64 -> unit
  val alloc : tx -> int -> int
  val dealloc : tx -> int -> unit
  val read_only : t -> tid:int -> (tx -> int64) -> int64
end) =
struct
  let head_slot = Palloc.root_addr 1
  let count_slot = Palloc.root_addr 2

  let add tx k =
    let rec find cur =
      if cur = 0 then None
      else if Int64.equal (X.get tx cur) k then Some cur
      else find (Int64.to_int (X.get tx (cur + 1)))
    in
    match find (Int64.to_int (X.get tx head_slot)) with
    | Some _ -> 0L
    | None ->
        let n = X.alloc tx 2 in
        X.set tx n k;
        X.set tx (n + 1) (X.get tx head_slot);
        X.set tx head_slot (Int64.of_int n);
        X.set tx count_slot (Int64.add (X.get tx count_slot) 1L);
        1L

  let remove tx k =
    let rec unlink prev cur =
      if cur = 0 then 0L
      else if Int64.equal (X.get tx cur) k then begin
        let nxt = X.get tx (cur + 1) in
        if prev = 0 then X.set tx head_slot nxt else X.set tx (prev + 1) nxt;
        X.dealloc tx cur;
        X.set tx count_slot (Int64.sub (X.get tx count_slot) 1L);
        1L
      end
      else unlink cur (Int64.to_int (X.get tx (cur + 1)))
    in
    unlink 0 (Int64.to_int (X.get tx head_slot))

  (* Sorted keys + stored cardinality.  The walk carries fuel: a corrupted
     chain may be cyclic, and the oracle must report that rather than hang.
     The result is overwritten on every run of the closure because some
     PTMs re-execute read closures (helped reads). *)
  let contents t ~tid =
    let r = ref ([], 0) in
    ignore
      (X.read_only t ~tid (fun tx ->
           let count = Int64.to_int (X.get tx count_slot) in
           let rec walk fuel keys cur =
             if cur = 0 then (keys, count)
             else if fuel = 0 then (keys, min_int) (* cycle: matches nothing *)
             else walk (fuel - 1) (X.get tx cur :: keys)
                 (Int64.to_int (X.get tx (cur + 1)))
           in
           r := walk 4096 [] (Int64.to_int (X.get tx head_slot));
           0L));
    let keys, count = !r in
    (List.sort Int64.compare keys, count)
end

module Of_ptm (P : Ptm_intf.S) = struct
  module L = List_set (P)

  let name = P.name

  type t = P.t

  let create ~num_threads ~words = P.create ~num_threads ~words ()
  let pmem = P.pmem

  let apply p ~tid op =
    P.update p ~tid (fun tx ->
        match op with Add k -> L.add tx k | Remove k -> L.remove tx k)
    = 1L

  let contents = L.contents
  let crash_and_recover = P.crash_and_recover
  let crash_with_evictions = P.crash_with_evictions
  let crash_with_faults = P.crash_with_faults
  let rollback_on_flips = false
end

(* ONLL is not a {!Ptm_intf.S}: it has no dynamic transactions, so the
   list's add and remove are its two registered operations. *)
module Onll_target = struct
  module L = List_set (Onll)

  let name = Onll.name

  type t = { o : Onll.t; add_op : int; remove_op : int }

  let create ~num_threads ~words =
    let o = Onll.create ~num_threads ~words () in
    let add_op = Onll.register o (fun tx args -> L.add tx args.(0)) in
    let remove_op = Onll.register o (fun tx args -> L.remove tx args.(0)) in
    { o; add_op; remove_op }

  let pmem t = Onll.pmem t.o

  let apply t ~tid op =
    (match op with
    | Add k -> Onll.invoke t.o ~tid t.add_op [| k |]
    | Remove k -> Onll.invoke t.o ~tid t.remove_op [| k |])
    = 1L

  let contents t ~tid = L.contents t.o ~tid
  let crash_and_recover t = Onll.crash_and_recover t.o
  let crash_with_evictions t = Onll.crash_with_evictions t.o
  let crash_with_faults t = Onll.crash_with_faults t.o

  (* Recovery truncates the logical log at the first entry whose
     content-sealed tag fails to validate, so after bit flips the image may
     be that of any earlier completed prefix. *)
  let rollback_on_flips = true
end

module Make (T : TARGET) = struct
  let default_words = 512

  (* Drive [ops] on [t] until completion or an injected crash; returns the
     in-flight operation, the model after every completed prefix (newest
     first, so its head is the state before the in-flight op) and the model
     after the in-flight op. *)
  let exec_until_crash t ops =
    let rec go i hist = function
      | [] -> None
      | op :: rest -> (
          let after = model_apply (List.hd hist) op in
          match T.apply t ~tid:0 op with
          | _ -> go (i + 1) (after :: hist) rest
          | exception Pmem.Crash_injected -> Some (i, op, hist, after))
    in
    go 0 [ I64Set.empty ] ops

  (** Steps executed by the uninterrupted reference run of [ops]. *)
  let total_steps ?(num_threads = 2) ?(words = default_words) ~ops () =
    let t = T.create ~num_threads ~words in
    let pm = T.pmem t in
    Pmem.set_step_tracking pm true;
    List.iter (fun op -> ignore (T.apply t ~tid:0 op)) ops;
    Pmem.steps pm

  (* A clean crash when no fault is asked for, evictions with [evict_prob]
     alone, the media-fault model as soon as [torn_prob] or [bitflips] is
     set. *)
  let crash t ~seed ~evict_prob ~torn_prob ~bitflips =
    match (torn_prob, bitflips, evict_prob) with
    | None, 0, None -> T.crash_and_recover t
    | None, 0, Some prob -> T.crash_with_evictions t ~seed ~prob
    | _ ->
        T.crash_with_faults t ~seed
          ~evict_prob:(Option.value evict_prob ~default:0.)
          ~torn_prob:(Option.value torn_prob ~default:0.)
          ~bitflips

  type arm = Step of int | Coin of { seed : int; prob : float }
  type point_result = Completed | Survived | Detected | Violated of violation

  (* One crash point: fresh instance, crash armed at a fixed step or by a
     seeded per-step coin.  With [torn_prob] or [bitflips] set the crash
     goes through the media-fault model; {!Ptm_intf.Unrecoverable} raised
     while bit flips are being injected is the hardened recovery correctly
     refusing a corrupt image ([Detected]), whereas any exception out of a
     flip-free recovery is a violation — clean crashes, evictions and torn
     write-backs must always leave a recoverable image.  The recovered
     structure must then equal the model before or after the in-flight op
     (or, when the target's recovery may roll back under bit flips, after
     any completed prefix) and must still accept an update. *)
  let run_point ~num_threads ~words ~evict_prob ~torn_prob ~bitflips ~seed
      ~ops arm =
    let t = T.create ~num_threads ~words in
    let pm = T.pmem t in
    Pmem.set_step_tracking pm true;
    (match arm with
    | Step k -> Pmem.inject_crash_after_step pm k
    | Coin { seed; prob } -> Pmem.inject_crash_probabilistic pm ~seed ~prob);
    match exec_until_crash t ops with
    | None ->
        Pmem.clear_injection pm;
        Completed
    | Some (op_index, op, hist, after) -> (
        let k = match arm with Step k -> k | Coin _ -> Pmem.steps pm in
        let fail detail =
          Violated
            {
              step = k;
              op_index;
              op;
              detail;
              repro =
                mk_repro_line ~ptm:T.name ~seed ~nops:(List.length ops)
                  ~evict_prob ~torn_prob ~bitflips k;
            }
        in
        let raised what e =
          fail (Printf.sprintf "%s raised %s" what (Printexc.to_string e))
        in
        (* eviction choices derive deterministically from (seed, k) so the
           repro line replays the exact same durable image *)
        match
          crash t ~seed:(seed + (911 * k)) ~evict_prob ~torn_prob ~bitflips
        with
        | exception Ptm_intf.Unrecoverable { detail; _ } ->
            if bitflips > 0 then Detected
            else
              fail
                (Printf.sprintf "recovery refused a flip-free image: %s" detail)
        | exception e -> raised "recovery" e
        | () -> (
            let before = List.hd hist in
            let rollback = bitflips > 0 && T.rollback_on_flips in
            let ok_states =
              if rollback then after :: hist else [ after; before ]
            in
            let show ks = String.concat "," (List.map Int64.to_string ks) in
            match T.contents t ~tid:0 with
            | exception e -> raised "recovered read-only walk" e
            | keys, count -> (
                let matches s =
                  keys = I64Set.elements s && count = I64Set.cardinal s
                in
                if not (List.exists matches ok_states) then
                  fail
                    (Printf.sprintf
                       "recovered {%s} count=%d equals neither pre-op {%s} nor \
                        post-op {%s}%s of in-flight op %d (%s)"
                       (show keys) count
                       (show (I64Set.elements before))
                       (show (I64Set.elements after))
                       (if rollback then " nor any earlier completed prefix"
                        else "")
                       op_index (pp_op op))
                else
                  (* probe: the recovered instance must still accept an
                     update, not just show a pretty durable image *)
                  let probe = 0x7FFF_FFFFL in
                  match T.apply t ~tid:0 (Add probe) with
                  | exception e -> raised "post-recovery update" e
                  | _ -> (
                      match T.contents t ~tid:0 with
                      | exception e ->
                          raised "read after post-recovery update" e
                      | keys', _ ->
                          if List.mem probe keys' then Survived
                          else fail "post-recovery update was lost"))))

  let report ~total ~seed results =
    let count p = List.length (List.filter p results) in
    {
      ptm = T.name;
      seed;
      total_steps = total;
      steps_tested = List.length results;
      crashes_injected = count (fun r -> r <> Completed);
      detected = count (fun r -> r = Detected);
      violations =
        List.filter_map (function Violated v -> Some v | _ -> None) results;
    }

  (** [sweep ~ops ~steps ()] runs one injection per step number in [steps]
      (step numbers outside [1..total] are skipped).  [evict_prob] switches
      the crash to eviction mode: each line dirty at the crash point
      additionally survives with that probability. *)
  let sweep ?(num_threads = 2) ?(words = default_words) ?evict_prob
      ?torn_prob ?(bitflips = 0) ?(seed = 0) ~ops ~steps () =
    let total = total_steps ~num_threads ~words ~ops () in
    List.filter (fun k -> k >= 1 && k <= total) steps
    |> List.map (fun k ->
           run_point ~num_threads ~words ~evict_prob ~torn_prob ~bitflips
             ~seed ~ops (Step k))
    |> report ~total ~seed

  (** Exhaustive sweep: every step k = 1..N of the reference run. *)
  let sweep_all ?num_threads ?words ?evict_prob ?torn_prob ?bitflips
      ?(seed = 0) ~ops () =
    let total = total_steps ?num_threads ?words ~ops () in
    sweep ?num_threads ?words ?evict_prob ?torn_prob ?bitflips ~seed ~ops
      ~steps:(List.init total (fun i -> i + 1))
      ()

  (** Probabilistic mode: [trials] runs, each arming a seeded per-step coin
      instead of a fixed step.  Violations still carry the exact step for a
      deterministic repro. *)
  let random_sweep ?(num_threads = 2) ?(words = default_words) ?evict_prob
      ?torn_prob ?(bitflips = 0) ?(seed = 0) ?(prob = 0.02) ~ops ~trials () =
    let total = total_steps ~num_threads ~words ~ops () in
    List.init trials (fun i ->
        run_point ~num_threads ~words ~evict_prob ~torn_prob ~bitflips ~seed
          ~ops
          (Coin { seed = seed + (7919 * (i + 1)); prob }))
    |> report ~total ~seed
end
