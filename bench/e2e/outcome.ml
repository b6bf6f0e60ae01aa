(* What one run of one workload measured. *)

(* One client-side span: a wire request, or an in-process call. *)
type span = { conn : int; rid : int; cls : Gen.cls; t0 : float; t1 : float }

(* The measured window is cut into slices of about [slice_s]; rates and
   percentiles are taken per slice and reported as the median over
   slices, so a burst from another tenant of the host moves one slice,
   not the run. *)
let slice_s = 1.
let slices_of seconds = max 1 (int_of_float (Float.round (seconds /. slice_s)))

(* Slice of the window [t0, t0 + n * width) that [t] falls in. *)
let slice ~t0 ~width ~n t = max 0 (min (n - 1) (int_of_float ((t -. t0) /. width)))

type t = {
  seconds : float;  (** length of the measured window *)
  slice_ops_s : float array;  (** replies per second in each slice *)
  slice_lat : float array array array;  (** sorted µs per slice, per [Gen.cls_index] *)
  lat : float array array;  (** sorted µs per class over the whole window *)
  attempted : int;  (** requests sent, warm-up and window *)
  failed : int;  (** non-success answers *)
  setup_s : float list;  (** every set-up of the run *)
  rss_mb : float;  (** peak RSS of the serving process *)
  nvm_mb : float;  (** simulated NVM in use *)
  crash_ms : float;  (** power-fail outage *)
  driver_cpu_frac : float;  (** load generator CPU / (window × its domains) *)
  server_cpu_s : float;  (** serving process CPU over the window *)
  violations : int;
  examples : string list;
  m0 : Obs.Json.t;  (** metrics registry at window start ([Null] untraced) *)
  m1 : Obs.Json.t;  (** ... and at window end *)
  pmem : Pmem.Stats.snapshot;  (** in-process device counters over the window *)
  spans : span list;  (** traced runs only *)
}

(* Per-slice sample buffers of one connection or domain. *)
type recorder = { lat_b : Stat.Buf.t array array; (* slice, class *) done_b : int array }

let recorder ~seconds =
  let n = slices_of seconds in
  { lat_b = Array.init n (fun _ -> Array.init 4 (fun _ -> Stat.Buf.create ())); done_b = Array.make n 0 }

(* A reply to a request sent at [t_send] arrived at [t_ack]; the window
   is [t0, t_end). *)
let record r ~t0 ~t_end cls ~t_send ~t_ack =
  let n = Array.length r.done_b in
  let width = (t_end -. t0) /. float_of_int n in
  Stat.Buf.add r.lat_b.(slice ~t0 ~width ~n t_send).(Gen.cls_index cls) ((t_ack -. t_send) *. 1e6);
  if t_ack <= t_end then
    let s = slice ~t0 ~width ~n t_ack in
    r.done_b.(s) <- r.done_b.(s) + 1

(* Merge the recorders of a run's connections: (slice rates, slice
   latencies, whole-window latencies). *)
let merge ~seconds rs =
  let n = slices_of seconds in
  let width = seconds /. float_of_int n in
  let slice_lat =
    Array.init n (fun s -> Array.init 4 (fun c -> Stat.Buf.sorted (List.map (fun r -> r.lat_b.(s).(c)) rs)))
  in
  let lat =
    Array.init 4 (fun c ->
        let a = Array.concat (Array.to_list (Array.map (fun sl -> sl.(c)) slice_lat)) in
        Array.sort Float.compare a;
        a)
  in
  let slice_ops_s =
    Array.init n (fun s -> float_of_int (List.fold_left (fun acc r -> acc + r.done_b.(s)) 0 rs) /. width)
  in
  (slice_ops_s, slice_lat, lat)

let writes o =
  Array.length o.lat.(Gen.cls_index C_put) + Array.length o.lat.(Gen.cls_index C_mput)

let completed o = Array.fold_left (fun acc a -> acc + Array.length a) 0 o.lat

(* Whole-window percentiles of one class; a p99 needs enough samples. *)
let class_p50 o c =
  let a = o.lat.(Gen.cls_index c) in
  if Array.length a = 0 then None else Some (Stat.percentile a 0.5)

let class_p99 o c = Stat.p99 o.lat.(Gen.cls_index c)

(* Median over slices of a per-slice statistic; slices where it is
   undefined are left out. *)
let slice_median o f =
  match List.filter_map f (Array.to_list o.slice_lat) with
  | [] -> None
  | vs -> Some (Stat.median vs)

let ops_s o = Stat.median (Array.to_list o.slice_ops_s)

let all_classes sl =
  let a = Array.concat (Array.to_list sl) in
  Array.sort Float.compare a;
  a

let op_p50 o =
  slice_median o (fun sl ->
      let a = all_classes sl in
      if Array.length a = 0 then None else Some (Stat.percentile a 0.5))

let op_p99 o = slice_median o (fun sl -> Stat.p99 (all_classes sl))

let put_p50 o =
  slice_median o (fun sl ->
      let a = sl.(Gen.cls_index C_put) in
      if Array.length a = 0 then None else Some (Stat.percentile a 0.5))

let put_p99 o = slice_median o (fun sl -> Stat.p99 sl.(Gen.cls_index C_put))
