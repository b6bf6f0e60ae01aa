(* Workload definitions and op streams.  Every stream is a pure function
   of (seed, workload, stream id): the server only ever receives the
   requests generated here. *)

type dist = Uniform | Zipf of float

(* Percentages of the op mix; they sum to 100. *)
type mix = { get : int; put : int; mput : int; scan : int }

type workload = {
  name : string;
  points : int;  (** point keys [k000000 ..] *)
  groups : int;  (** MPUT groups of [group_size] keys [g0000/0 ..] *)
  dist : dist;  (** how point keys are drawn *)
  mix : mix;
  conns : int;  (** connections (domains for the in-process workload) *)
  depth : int;  (** requests in flight per connection *)
  in_process : bool;  (** drives [Kv.Redodb] directly, no server *)
}

type op = Get of int | Put of int | Mput of int | Scan of int

type cls = C_get | C_put | C_mput | C_scan

let classes = [ C_get; C_put; C_mput; C_scan ]
let cls_index = function C_get -> 0 | C_put -> 1 | C_mput -> 2 | C_scan -> 3
let cls_name = function C_get -> "get" | C_put -> "put" | C_mput -> "mput" | C_scan -> "scan"
let cls_of = function Get _ -> C_get | Put _ -> C_put | Mput _ -> C_mput | Scan _ -> C_scan

let in_mix w = function
  | C_get -> w.mix.get > 0
  | C_put -> w.mix.put > 0
  | C_mput -> w.mix.mput > 0
  | C_scan -> w.mix.scan > 0

let group_size = 4
let scan_groups = 10  (* one scan prefix covers this many groups *)
let scan_max = 64
let value_bytes = 64

(* Key counts are below the 100k the design started from: a 4 MiB
   server already holds ~320 MB of simulated NVM, and the host is
   shared. *)
let workloads =
  [
    {
      name = "kv_direct";
      points = 20_000;
      groups = 0;
      dist = Uniform;
      mix = { get = 50; put = 50; mput = 0; scan = 0 };
      conns = 2;
      depth = 1;
      in_process = true;
    };
    {
      name = "serial_read95";
      points = 20_000;
      groups = 0;
      dist = Uniform;
      mix = { get = 95; put = 5; mput = 0; scan = 0 };
      conns = 1;
      depth = 1;
      in_process = false;
    };
    {
      name = "pipelined_zipf";
      points = 20_000;
      groups = 0;
      dist = Zipf 0.99;
      mix = { get = 50; put = 50; mput = 0; scan = 0 };
      conns = 2;
      depth = 32;
      in_process = false;
    };
    {
      name = "mput_scan";
      points = 5_000;
      groups = 1_250;
      dist = Uniform;
      mix = { get = 0; put = 73; mput = 25; scan = 2 };
      conns = 2;
      depth = 1;
      in_process = false;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads
let names = List.map (fun w -> w.name) workloads

(* ---- keys and values ---- *)

let point_key_table = Array.init 20_000 (Printf.sprintf "k%06d")

(* Cached: the load loops ask for a key per request. *)
let point_key i =
  if i < Array.length point_key_table then point_key_table.(i) else Printf.sprintf "k%06d" i
let group_key g j = Printf.sprintf "g%04d/%d" g j
let scan_prefix p = Printf.sprintf "g%03d" p
let scan_prefixes w = w.groups / scan_groups

(* [Some (g, j)] for a group key. *)
let parse_group_key k =
  if String.length k = 7 && k.[0] = 'g' && k.[5] = '/' then
    match (int_of_string_opt (String.sub k 1 4), int_of_string_opt (String.sub k 6 1)) with
    | Some g, Some j -> Some (g, j)
    | _ -> None
  else None

type kind = Point | Group

(* A value names the write that produced it: kind, writer (0 = preload,
   i = connection/domain i-1) and the writer's sequence number (the
   target index for the preload). *)
type tag = { kind : kind; writer : int; seq : int }

let value_of_tag { kind; writer; seq } =
  let head = Printf.sprintf "%c%d.%d;" (match kind with Point -> 'P' | Group -> 'G') writer seq in
  head ^ String.make (value_bytes - String.length head) 'x'

let tag_of_value v =
  let n = String.length v in
  if n < 4 then None
  else
    let kind = match v.[0] with 'P' -> Some Point | 'G' -> Some Group | _ -> None in
    match (kind, String.index_opt v '.', String.index_opt v ';') with
    | Some kind, Some d, Some e when d > 1 && e > d + 1 -> (
        match
          ( int_of_string_opt (String.sub v 1 (d - 1)),
            int_of_string_opt (String.sub v (d + 1) (e - d - 1)) )
        with
        | Some writer, Some seq -> Some { kind; writer; seq }
        | _ -> None)
    | _ -> None

(* ---- zipf(theta) over ranks 0 .. n-1 by inverse CDF ---- *)

module Zipf = struct
  type t = float array  (* cdf.(i) = P(rank <= i) *)

  let create ~n ~theta : t =
    let cdf = Array.make n 0. in
    let acc = ref 0. in
    for i = 0 to n - 1 do
      acc := !acc +. (1. /. Float.pow (float_of_int (i + 1)) theta);
      cdf.(i) <- !acc
    done;
    let z = !acc in
    Array.map (fun c -> c /. z) cdf

  (* first rank whose cdf exceeds u *)
  let sample (cdf : t) rng =
    let u = Random.State.float rng 1.0 in
    let lo = ref 0 and hi = ref (Array.length cdf - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) > u then hi := mid else lo := mid + 1
    done;
    !lo
end

(* ---- op streams ---- *)

type stream = { w : workload; rng : Random.State.t; zipf : Zipf.t option }

let workload_index w =
  let rec go i = function
    | [] -> 0
    | x :: tl -> if x.name = w.name then i else go (i + 1) tl
  in
  go 0 workloads

(* [zipf] lets streams of one run share the (immutable) CDF table. *)
let stream ?zipf w ~seed ~id =
  let zipf =
    match (w.dist, zipf) with
    | Uniform, _ -> None
    | Zipf _, Some z -> Some z
    | Zipf theta, None -> Some (Zipf.create ~n:w.points ~theta)
  in
  { w; rng = Random.State.make [| seed; workload_index w; id |]; zipf }

let point s =
  match s.zipf with
  | None -> Random.State.int s.rng s.w.points
  | Some z -> Zipf.sample z s.rng

let next s =
  let m = s.w.mix in
  let r = Random.State.int s.rng 100 in
  if r < m.get then Get (point s)
  else if r < m.get + m.put then Put (point s)
  else if r < m.get + m.put + m.mput then Mput (Random.State.int s.rng s.w.groups)
  else Scan (Random.State.int s.rng (scan_prefixes s.w))

(* The first [n] ops of stream 0, as every replay uses them. *)
let prefix w ~seed n =
  let s = stream w ~seed ~id:0 in
  Array.init n (fun _ -> next s)

(* Wire request of one op; [seq] is the writer's next write number. *)
let request ~writer ~seq = function
  | Get k -> Serve.Protocol.Get (point_key k)
  | Put k -> Put (point_key k, value_of_tag { kind = Point; writer; seq })
  | Mput g ->
      let v = value_of_tag { kind = Group; writer; seq } in
      Mput (List.init group_size (fun j -> (group_key g j, v)))
  | Scan p -> Scan { prefix = scan_prefix p; max = scan_max }

(* Every key of the workload with its preload value. *)
let preload_pairs w =
  List.init w.points (fun i ->
      (point_key i, value_of_tag { kind = Point; writer = 0; seq = i }))
  @ List.concat
      (List.init w.groups (fun g ->
           let v = value_of_tag { kind = Group; writer = 0; seq = g } in
           List.init group_size (fun j -> (group_key g j, v))))
