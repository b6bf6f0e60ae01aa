(* One park interface for Sched, Aio and plain Domains.  See park.mli. *)

type ops = {
  pause : int -> unit;
  sleep : float -> unit;
  now_us : unit -> float;
}

(* Spin while the wait is young; past a burst, sleep so that on few cores
   the spinner stops starving the party it waits for. *)
let plain =
  {
    pause = (fun n -> if n < 64 then Domain.cpu_relax () else Unix.sleepf 5e-5);
    sleep = Unix.sleepf;
    now_us = (fun () -> Unix.gettimeofday () *. 1e6);
  }

let key = Domain.DLS.new_key (fun () -> plain)
let[@inline] pause n = (Domain.DLS.get key).pause n
let[@inline] sleep s = (Domain.DLS.get key).sleep s
let[@inline] now_us () = (Domain.DLS.get key).now_us ()

let within ops f =
  let prev = Domain.DLS.get key in
  Domain.DLS.set key ops;
  Fun.protect ~finally:(fun () -> Domain.DLS.set key prev) f
