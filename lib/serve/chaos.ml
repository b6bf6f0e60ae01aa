(* Seeded network-fault injection for the serving front-end.

   A [plan] is a pure description of a fault distribution; a [source]
   owns one deterministic splitmix64 stream per accepted connection
   (connection index -> derived seed), so a given (plan, connection
   order, request order) triple replays the exact same faults.  The
   reactor consults the per-connection [conn] at two points:

   - [before_read]: between requests — inject a receive delay, a long
     stall, or sever the connection outright ([Cut]);
   - [send_verdict]: for every response — inject a send delay, corrupt
     one payload byte, truncate the frame and sever, or drop the
     response entirely AFTER the request executed (the fault that
     forces clients into timeout/retry/TXSTAT paths).

   All faults are wall-clock (sleeps and real sockets): chaos never
   runs under the deterministic scheduler, whose adversary covers the
   in-process interleavings instead.  Tallies are kept both as plain
   atomics (for the sweep's JSON report, metrics on or off) and as
   serve.chaos.* metrics counters. *)

module A = Sched.Atomic

exception Cut of string

type plan = {
  seed : int;
  sever_prob : float;
  truncate_prob : float;
  corrupt_prob : float;
  delay_prob : float;
  delay_us : int;
  stall_prob : float;
  stall_us : int;
  drop_prob : float;
}

let default_plan =
  {
    seed = 1;
    sever_prob = 0.;
    truncate_prob = 0.;
    corrupt_prob = 0.;
    delay_prob = 0.;
    delay_us = 200;
    stall_prob = 0.;
    stall_us = 20_000;
    drop_prob = 0.;
  }

(* %g keeps repro lines readable; probabilities chosen with <= 6
   significant digits (the sweep derives them as n/1000) round-trip
   exactly through parse_plan. *)
let pp_plan p =
  Printf.sprintf
    "seed=%d,sever=%g,trunc=%g,corrupt=%g,delay=%g,delay_us=%d,stall=%g,stall_us=%d,drop=%g"
    p.seed p.sever_prob p.truncate_prob p.corrupt_prob p.delay_prob p.delay_us
    p.stall_prob p.stall_us p.drop_prob

let parse_plan s =
  let ( let* ) = Result.bind in
  let fields = String.split_on_char ',' (String.trim s) in
  let rec go p = function
    | [] -> Result.Ok p
    | "" :: rest -> go p rest
    | field :: rest -> (
        match String.index_opt field '=' with
        | None -> Error (Printf.sprintf "chaos plan: %S is not key=value" field)
        | Some i ->
            let k = String.sub field 0 i in
            let v = String.sub field (i + 1) (String.length field - i - 1) in
            let int () =
              match int_of_string_opt v with
              | Some n when n >= 0 -> Result.Ok n
              | _ -> Error (Printf.sprintf "chaos plan: bad int %s=%s" k v)
            in
            let prob () =
              match float_of_string_opt v with
              | Some f when f >= 0. && f <= 1. -> Result.Ok f
              | _ -> Error (Printf.sprintf "chaos plan: bad probability %s=%s" k v)
            in
            let* p =
              match k with
              | "seed" ->
                  let* n = int () in
                  Result.Ok { p with seed = n }
              | "sever" ->
                  let* f = prob () in
                  Result.Ok { p with sever_prob = f }
              | "trunc" ->
                  let* f = prob () in
                  Result.Ok { p with truncate_prob = f }
              | "corrupt" ->
                  let* f = prob () in
                  Result.Ok { p with corrupt_prob = f }
              | "delay" ->
                  let* f = prob () in
                  Result.Ok { p with delay_prob = f }
              | "delay_us" ->
                  let* n = int () in
                  Result.Ok { p with delay_us = n }
              | "stall" ->
                  let* f = prob () in
                  Result.Ok { p with stall_prob = f }
              | "stall_us" ->
                  let* n = int () in
                  Result.Ok { p with stall_us = n }
              | "drop" ->
                  let* f = prob () in
                  Result.Ok { p with drop_prob = f }
              | _ -> Error (Printf.sprintf "chaos plan: unknown key %S" k)
            in
            go p rest)
  in
  go default_plan fields

(* splitmix64: the de-facto seeding PRNG — tiny state, full-period,
   and derived streams (seed xor f(index)) are independent enough for
   fault injection. *)
let sm_mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let sm_next st =
  st := Int64.add !st 0x9E3779B97F4A7C15L;
  sm_mix !st

(* Derive an independent sub-seed (round seeds from a sweep seed,
   connection streams from a plan seed). *)
let derive seed idx =
  Int64.to_int
    (Int64.logand
       (sm_mix (Int64.add (Int64.of_int seed) (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (idx + 1)))))
       Int64.max_int)

let u01 st =
  (* top 53 bits -> [0, 1) with full double precision *)
  Int64.to_float (Int64.shift_right_logical (sm_next st) 11) *. (1. /. 9007199254740992.)

type tallies = {
  severs : int A.t;
  truncates : int A.t;
  corrupts : int A.t;
  delays : int A.t;
  stalls : int A.t;
  drops : int A.t;
}

type source = {
  plan : plan;
  next_conn : int A.t;
  tally : tallies;
  c_sever : Obs.Metrics.counter;
  c_trunc : Obs.Metrics.counter;
  c_corrupt : Obs.Metrics.counter;
  c_delay : Obs.Metrics.counter;
  c_stall : Obs.Metrics.counter;
  c_drop : Obs.Metrics.counter;
}

let source plan =
  {
    plan;
    next_conn = A.make 0;
    tally =
      {
        severs = A.make 0;
        truncates = A.make 0;
        corrupts = A.make 0;
        delays = A.make 0;
        stalls = A.make 0;
        drops = A.make 0;
      };
    c_sever = Obs.Metrics.counter "serve.chaos.severs";
    c_trunc = Obs.Metrics.counter "serve.chaos.truncates";
    c_corrupt = Obs.Metrics.counter "serve.chaos.corrupts";
    c_delay = Obs.Metrics.counter "serve.chaos.delays";
    c_stall = Obs.Metrics.counter "serve.chaos.stalls";
    c_drop = Obs.Metrics.counter "serve.chaos.drops";
  }

let plan src = src.plan

let tallies src =
  [
    ("severs", A.get src.tally.severs);
    ("truncates", A.get src.tally.truncates);
    ("corrupts", A.get src.tally.corrupts);
    ("delays", A.get src.tally.delays);
    ("stalls", A.get src.tally.stalls);
    ("drops", A.get src.tally.drops);
  ]

let total_faults src =
  List.fold_left (fun acc (_, n) -> acc + n) 0 (tallies src)

type conn = { src : source; tid : int; st : int64 ref }

let conn src ~tid =
  let idx = A.fetch_and_add src.next_conn 1 in
  { src; tid; st = ref (Int64.of_int (derive src.plan.seed idx)) }

let note c tally counter =
  A.incr tally;
  Obs.Metrics.incr counter ~tid:c.tid

(* Aio.sleep is a deadline timer inside a reactor fiber (the loop keeps
   serving other connections) and plain Unix.sleepf everywhere else. *)
let maybe_sleep c ~us tally counter =
  note c tally counter;
  if us > 0 then Aio.sleep (float_of_int us *. 1e-6)

(* Between requests: receive-side faults. *)
let before_read c =
  let p = c.src.plan in
  let r = u01 c.st in
  if r < p.sever_prob then begin
    note c c.src.tally.severs c.src.c_sever;
    raise (Cut "sever")
  end
  else if r < p.sever_prob +. p.stall_prob then
    maybe_sleep c ~us:p.stall_us c.src.tally.stalls c.src.c_stall
  else if r < p.sever_prob +. p.stall_prob +. p.delay_prob then
    maybe_sleep c ~us:p.delay_us c.src.tally.delays c.src.c_delay

(* Response-side fault verdict.  [payload] is the unframed response
   line; the length prefix is reconstructed here (same grammar as
   Protocol.Io) because truncation and corruption need byte-level
   control under the framing.  The verdict is a pure value so the
   reactor can apply it to its buffered, non-blocking write path
   (appending the surviving bytes and scheduling the delay as a
   timer).  Tallies and counters are noted at decision time. *)
type verdict =
  | Deliver of string  (* the full frame bytes, unharmed or corrupted *)
  | Deliver_delayed of string * int  (* frame, delay in microseconds *)
  | Drop_response
      (* the request EXECUTED (a write may have committed) but the
         client never hears: the ack-loss fault exactly-once retries
         must absorb *)
  | Truncate_and_cut of string  (* write this strict prefix, then sever *)

let send_verdict c payload =
  let p = c.src.plan in
  let r = u01 c.st in
  if r < p.drop_prob then begin
    note c c.src.tally.drops c.src.c_drop;
    Drop_response
  end
  else begin
    let frame = Printf.sprintf "%d\n%s" (String.length payload) payload in
    if r < p.drop_prob +. p.truncate_prob && String.length frame > 1 then begin
      note c c.src.tally.truncates c.src.c_trunc;
      let keep = 1 + (Int64.to_int (Int64.logand (sm_next c.st) 0x3FFFFFFFL)
                      mod (String.length frame - 1)) in
      Truncate_and_cut (String.sub frame 0 keep)
    end
    else begin
      let frame =
        if r < p.drop_prob +. p.truncate_prob +. p.corrupt_prob
           && String.length payload > 0
        then begin
          note c c.src.tally.corrupts c.src.c_corrupt;
          let b = Bytes.of_string frame in
          let hdr = String.length frame - String.length payload in
          let i = hdr + (Int64.to_int (Int64.logand (sm_next c.st) 0x3FFFFFFFL)
                         mod String.length payload) in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x20));
          Bytes.to_string b
        end
        else frame
      in
      if r >= p.drop_prob +. p.truncate_prob +. p.corrupt_prob
         && r < p.drop_prob +. p.truncate_prob +. p.corrupt_prob +. p.delay_prob
      then begin
        note c c.src.tally.delays c.src.c_delay;
        Deliver_delayed (frame, p.delay_us)
      end
      else Deliver frame
    end
  end
