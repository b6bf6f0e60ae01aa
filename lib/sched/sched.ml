(* Deterministic cooperative scheduler: PTM workers as effect fibers,
   one yield point per interposed atomic/Pmem access.  See sched.mli. *)

let nop = fun () -> ()

(* Number of scheduled runs live in the process (0 or 1: see [run]).
   Outside a run every yield point is this one atomic load; only while a
   run is live does it pay for the domain-local hook below. *)
let live_runs = Stdlib.Atomic.make 0

(* Domain-local so a scheduled run in one domain never perturbs real
   Domain-based tests running elsewhere in the process. *)
let hook_key : (unit -> unit) Domain.DLS.key = Domain.DLS.new_key (fun () -> nop)

let[@inline] yield () =
  if Stdlib.Atomic.get live_runs > 0 then (Domain.DLS.get hook_key) ()

let active () =
  Stdlib.Atomic.get live_runs > 0 && Domain.DLS.get hook_key != nop

let spin os_wait = if active () then yield () else os_wait ()

(* Run-scoped state, process-global: at most one run is live at a time,
   and it owns its domain, so plain refs suffice. *)
let cur_fiber : int option ref = ref None
let step_counter = ref 0
let current () = !cur_fiber
let now () = !step_counter

(* The run's park record: every wait is one schedule step and the clock
   is the step counter, so one step reads as one microsecond. *)
let park_ops =
  {
    Park.pause = (fun _ -> yield ());
    sleep = (fun _ -> yield ());
    now_us = (fun () -> float_of_int !step_counter);
  }

module Atomic = struct
  type 'a t = 'a Stdlib.Atomic.t

  let make = Stdlib.Atomic.make
  let[@inline] get a = yield (); Stdlib.Atomic.get a
  let[@inline] set a v = yield (); Stdlib.Atomic.set a v
  let[@inline] exchange a v = yield (); Stdlib.Atomic.exchange a v

  let[@inline] compare_and_set a expected desired =
    yield ();
    Stdlib.Atomic.compare_and_set a expected desired

  let[@inline] fetch_and_add a n = yield (); Stdlib.Atomic.fetch_and_add a n
  let[@inline] incr a = yield (); Stdlib.Atomic.incr a
  let[@inline] decr a = yield (); Stdlib.Atomic.decr a
end

module Mutex = struct
  type t = { m : Stdlib.Mutex.t; owner : int Stdlib.Atomic.t }

  let free = -1
  let create () = { m = Stdlib.Mutex.create (); owner = Stdlib.Atomic.make free }

  (* Under the scheduler the [owner] word IS the lock and contention is
     resolved by spinning across yield points; under Domains the OS
     mutex is the lock and [owner] is bookkeeping for [holder].  A given
     instance is only ever used in one mode at a time (the harness
     creates its PTM instances inside the scheduled run). *)
  (* Acquisition and release are yield points, like every interposed
     atomic op.  The yield BEFORE each CAS attempt matters for fairness:
     without it a fiber that unlocks and immediately relocks does both
     inside one scheduler step, so the lock is never observably free at
     a step boundary and the other fibers starve forever — a harness
     artifact no OS scheduler exhibits. *)
  let lock t ~tid =
    if active () then begin
      yield ();
      while not (Stdlib.Atomic.compare_and_set t.owner free tid) do
        yield ()
      done
    end
    else begin
      Stdlib.Mutex.lock t.m;
      Stdlib.Atomic.set t.owner tid
    end

  let unlock t ~tid =
    let o = Stdlib.Atomic.get t.owner in
    if o <> tid then
      invalid_arg
        (Printf.sprintf "Sched.Mutex.unlock: tid %d does not hold the lock (%s)"
           tid
           (if o = free then "free" else "owner " ^ string_of_int o));
    if active () then yield ();
    Stdlib.Atomic.set t.owner free;
    if not (active ()) then Stdlib.Mutex.unlock t.m

  let holder t =
    let o = Stdlib.Atomic.get t.owner in
    if o = free then None else Some o

  (* Crash-recovery only: lock state is volatile and must not survive a
     simulated machine failure (a fiber suspended inside the critical
     section is gone).  Callers guarantee quiescence — under Domains that
     means no live thread holds the lock, so the OS mutex is already
     unlocked and clearing the owner word suffices. *)
  let reset t = Stdlib.Atomic.set t.owner free
end

type injection =
  | Stall of { tid : int; at_step : int; duration : int option }
  | Kill of { tid : int; at_step : int }

type status = Runnable | Finished | Excepted of exn | Stalled | Killed

type report = {
  steps : int;
  statuses : status array;
  applied : (int * int) list;
  budget_exhausted : bool;
}

let pp_status ppf = function
  | Runnable -> Format.fprintf ppf "blocked"
  | Finished -> Format.fprintf ppf "finished"
  | Excepted e -> Format.fprintf ppf "raised %s" (Printexc.to_string e)
  | Stalled -> Format.fprintf ppf "stalled"
  | Killed -> Format.fprintf ppf "killed"

type fiber = {
  id : int;
  mutable cont : unit -> unit;  (* its next step: the start, then each resume *)
  mutable status : status;
  mutable wake_at : int;  (* only meaningful while [status = Stalled] *)
  mutable pending : injection option;  (* due/deferred adversary action *)
}

let run ?(seed = 0) ?(budget = 2_000_000) ?(injections = []) ?hazard ?stop_at
    ~num_fibers body =
  if active () then invalid_arg "Sched.run: nested run";
  let fibers =
    Array.init num_fibers (fun id ->
        { id; cont = nop; status = Runnable; wake_at = max_int; pending = None })
  in
  List.iter
    (fun inj ->
      let tid = match inj with Stall { tid; _ } | Kill { tid; _ } -> tid in
      if tid < 0 || tid >= num_fibers then
        invalid_arg "Sched.run: injection tid out of range";
      fibers.(tid).pending <- Some inj)
    injections;
  let rng = Random.State.make [| seed; 0x5ced |] in
  let applied = ref [] in
  let budget_exhausted = ref false in
  (* A yield suspends the running fiber and stores its resume in the
     fiber's record, which the next [resume] of it calls. *)
  let suspend =
    Park.Suspend (fun k -> fibers.(Option.get !cur_fiber).cont <- k)
  in
  let perform_yield () = Effect.perform suspend in
  Array.iter
    (fun f ->
      f.cont <-
        (fun () ->
          Park.fiber
            ~finished:(fun () -> f.status <- Finished)
            ~raised:(fun e -> f.status <- Excepted e)
            (fun () -> body f.id)))
    fibers;
  let resume (f : fiber) =
    incr step_counter;
    cur_fiber := Some f.id;
    Domain.DLS.set hook_key perform_yield;
    let k = f.cont in
    f.cont <- nop;
    k ();
    Domain.DLS.set hook_key nop;
    cur_fiber := None
  in
  (* Injections land between fiber steps, i.e. exactly at yield points.
     [hazard] (harness-supplied, runs with the hook uninstalled) defers
     an injection while stopping the thread right now would wedge the
     simulation itself rather than exercise the algorithm. *)
  let try_apply (f : fiber) =
    match f.pending with
    | Some inj when f.status = Runnable -> (
        let at_step =
          match inj with Stall { at_step; _ } | Kill { at_step; _ } -> at_step
        in
        if
          !step_counter >= at_step
          && (match hazard with None -> true | Some h -> not (h f.id))
        then begin
          f.pending <- None;
          applied := (f.id, !step_counter) :: !applied;
          match inj with
          | Kill _ ->
              f.status <- Killed;
              f.cont <- nop
          | Stall { duration; _ } ->
              f.status <- Stalled;
              f.wake_at <-
                (match duration with
                | None -> max_int
                | Some d -> !step_counter + d)
        end)
    | _ -> ()
  in
  let wake (f : fiber) =
    if f.status = Stalled && f.wake_at <= !step_counter then begin
      f.status <- Runnable;
      f.wake_at <- max_int
    end
  in
  if not (Stdlib.Atomic.compare_and_set live_runs 0 1) then
    invalid_arg "Sched.run: another run is live in this process";
  step_counter := 0;
  let restore () =
    step_counter := 0;
    cur_fiber := None;
    Domain.DLS.set hook_key nop;
    Stdlib.Atomic.decr live_runs
  in
  Fun.protect ~finally:restore @@ fun () ->
  Park.within park_ops @@ fun () ->
  let stopped = ref false in
  while not !stopped do
    Array.iter wake fibers;
    Array.iter try_apply fibers;
    let fs =
      Array.fold_right
        (fun f acc -> if f.status = Runnable then f :: acc else acc)
        fibers []
    in
    match fs with
    | [] -> (
        (* Nothing runnable: either everyone is done/dead, or only timed
           stalls remain — fast-forward the clock to the earliest wake. *)
        let next_wake =
          Array.fold_left
            (fun acc f ->
              if f.status = Stalled && f.wake_at < acc then f.wake_at else acc)
            max_int fibers
        in
        if next_wake = max_int then stopped := true
        else step_counter := max !step_counter next_wake)
    | fs ->
        if (match stop_at with Some s -> !step_counter >= s | None -> false)
        then stopped := true
        else if !step_counter >= budget then begin
          budget_exhausted := true;
          stopped := true
        end
        else
          let f = List.nth fs (Random.State.int rng (List.length fs)) in
          resume f
  done;
  {
    steps = !step_counter;
    statuses = Array.map (fun f -> f.status) fibers;
    applied = List.rev !applied;
    budget_exhausted = !budget_exhausted;
  }
