type t = {
  mutable spins : int;
  max_spins : int;
}

let create ?(max_spins = 1024) () = { spins = 4; max_spins }

(* Past the cap, Unix.sleepf 0.0 releases the processor without a
   measurable delay (Domain.cpu_relax alone never lets the holder's
   domain run on 1 core).  Under the scheduler a round is one yield
   point, which keeps the spins-growth contract without burning host CPU
   on spins that advance no simulated time. *)
let once ?(tid = 0) t =
  let n = t.spins in
  Sched.spin (fun () ->
      if n >= t.max_spins then begin
        Obs.backoff_yielded ~tid;
        Unix.sleepf 0.0
      end
      else
        for _ = 1 to n do
          Domain.cpu_relax ()
        done);
  if t.spins < t.max_spins then t.spins <- t.spins * 2;
  n

let reset t = t.spins <- 4
