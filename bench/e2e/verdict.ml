(* `redobench compare BASE.json... -- NEW.json...`: per workload and
   end-to-end metric, both sides' median and quartiles, the share of run
   pairs each side won, and a verdict.

   Rules (choosing-metrics §5 and §8), with [bound] the metric's share
   of the base median from BENCHMARK.json:
   - better: the new side wins at least 9/10 of the pairs (ties count for
     neither) and the medians differ, in its favour, by more than the
     base side's quartile distance;
   - worse: the new median is worse by more than the bound, and either
     the spread is within the bound or every new run is worse than every
     base run;
   - unresolved: the spread (the wider side's quartile distance, as a
     share of the base median) exceeds the bound, unless every new run
     is better than every base run;
   - unchanged: otherwise. *)

type better = Lower | Higher
type verdict = Better | Worse | Unchanged | Unresolved

let verdict_name = function
  | Better -> "better"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

type side = { median : float; q1 : float; q3 : float }

let side values =
  let q1, q3 = match values with [ v ] -> (v, v) | _ -> Stat.quartiles values in
  { median = Stat.median values; q1; q3 }

(* [a] reads better than [b] *)
let beats better a b = match better with Lower -> a < b | Higher -> a > b

(* (pairs the new side won, pairs the base side won, pairs), pairing the
   i-th run of each side. *)
let wins better base fresh =
  let rec go nw bw n = function
    | b :: bs, f :: fs ->
        go (if beats better f b then nw + 1 else nw) (if beats better b f then bw + 1 else bw) (n + 1) (bs, fs)
    | _ -> (nw, bw, n)
  in
  go 0 0 0 (base, fresh)

type judged = { base : side; fresh : side; new_wins : int; base_wins : int; pairs : int; verdict : verdict }

let judge ~better ~bound base fresh =
  let b = side base and n = side fresh in
  let new_wins, base_wins, pairs = wins better base fresh in
  let scale = if b.median = 0. then 1. else Float.abs b.median in
  let spread = Float.max (b.q3 -. b.q1) (n.q3 -. n.q1) /. scale in
  let worse_by = (match better with Lower -> n.median -. b.median | Higher -> b.median -. n.median) /. scale in
  let every p = List.for_all (fun f -> List.for_all (fun x -> p f x) base) fresh in
  let verdict =
    if
      pairs > 0
      && float_of_int new_wins >= 0.9 *. float_of_int pairs
      && beats better n.median b.median
      && Float.abs (n.median -. b.median) > b.q3 -. b.q1
    then Better
    else if worse_by > bound && (spread <= bound || every (fun f x -> beats better x f)) then Worse
    else if spread > bound && not (every (beats better)) then Unresolved
    else Unchanged
  in
  { base = b; fresh = n; new_wins; base_wins; pairs; verdict }

(* ---- the subcommand ---- *)

module J = Obs.Json

let parse_file f =
  match J.parse_file f with Ok j -> j | Error e -> failwith (f ^ ": " ^ e)

(* (name, better, bound) of every end-to-end metric in BENCHMARK.json *)
let bounds file =
  match J.member "end_to_end" (parse_file file) with
  | Some (J.List ms) ->
      List.map
        (fun m ->
          match (J.member "name" m, J.member "better" m, J.member "bound" m) with
          | Some (J.String name), Some (J.String dir), Some b ->
              let bound = match b with J.Float f -> f | J.Int n -> float_of_int n | _ -> failwith "bound" in
              (name, (if dir = "higher" then Higher else Lower), bound)
          | _ -> failwith (file ^ ": malformed end_to_end entry"))
        ms
  | _ -> failwith (file ^ ": no end_to_end list")

(* Values of [metric] on [workload] across report files. *)
let values reports workload metric =
  List.filter_map
    (fun r ->
      match Option.bind (J.member "workloads" r) (J.member workload) with
      | None -> None
      | Some w -> (
          match Option.bind (J.member "metrics" w) (J.member metric) with
          | Some (J.Float f) -> Some f
          | Some (J.Int n) -> Some (float_of_int n)
          | _ -> None))
    reports

let main ~bench_file args =
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> failwith "compare: expected BASE.json... -- NEW.json..."
  in
  let base_files, new_files = split [] args in
  if base_files = [] || new_files = [] then failwith "compare: need reports on both sides of --";
  let base = List.map parse_file base_files and fresh = List.map parse_file new_files in
  let bounds = bounds bench_file in
  let worse = ref 0 in
  Printf.printf "%-15s %-12s %29s %29s %9s  %s\n" "workload" "metric" "base median [q1, q3]"
    "new median [q1, q3]" "won b/n" "verdict";
  List.iter
    (fun workload ->
      List.iter
        (fun (metric, better, bound) ->
          match (values base workload metric, values fresh workload metric) with
          | [], _ | _, [] -> ()
          | bv, nv ->
              let j = judge ~better ~bound bv nv in
              if j.verdict = Worse then incr worse;
              let show s = Printf.sprintf "%.4g [%.4g, %.4g]" s.median s.q1 s.q3 in
              let share k = if j.pairs = 0 then 0. else float_of_int k /. float_of_int j.pairs in
              Printf.printf "%-15s %-12s %29s %29s %4.0f%%/%3.0f%%  %s (bound %.0f%%)\n" workload metric
                (show j.base) (show j.fresh)
                (100. *. share j.base_wins)
                (100. *. share j.new_wins)
                (verdict_name j.verdict) (100. *. bound))
        bounds)
    Gen.names;
  if !worse > 0 then 1 else 0
