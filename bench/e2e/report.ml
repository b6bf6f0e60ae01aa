(* End-to-end metrics, the printed tables and the JSON outputs. *)

module J = Obs.Json

(* Every end-to-end metric applies to every workload: each mix has puts,
   and the all-op latency covers whatever else it holds.  Per-class
   latencies and tails are reported beside them and as client.*
   per-layer metrics: no other class is in every mix, and tails vary
   too much between runs on a shared host to bound. *)
let e2e (o : Outcome.t) =
  [
    ("ops_s", "1/s", Some (Outcome.ops_s o));
    ("op_p50_us", "us", Outcome.op_p50 o);
    ("put_p50_us", "us", Outcome.put_p50 o);
    ("setup_s", "s", Some (Stat.median o.setup_s));
    ("rss_mb", "MiB", Some o.rss_mb);
    ("nvm_mb", "MiB", Some o.nvm_mb);
  ]

let num = function Some v when Float.is_finite v -> J.Float v | _ -> J.Null
let err_rate (o : Outcome.t) = float_of_int o.failed /. float_of_int (max 1 o.attempted)

let classes_json (o : Outcome.t) =
  J.Obj
    (List.map
       (fun c ->
         ( Gen.cls_name c,
           J.Obj
             [
               ("samples", J.Int (Array.length o.lat.(Gen.cls_index c)));
               ("p50_us", num (Outcome.class_p50 o c));
               ("p99_us", num (Outcome.class_p99 o c));
             ] ))
       Gen.classes)

(* One workload's entry in the --json report. *)
let workload_json (o : Outcome.t) ~per_layer =
  J.Obj
    ([
       ("correct", J.Bool (o.violations = 0));
       ("attempted", J.Int o.attempted);
       ("failed", J.Int o.failed);
       ("err_rate", J.Float (err_rate o));
       ("metrics", J.Obj (List.map (fun (n, _, v) -> (n, num v)) (e2e o)));
       ("classes", classes_json o);
       ("setup_s_each", J.List (List.map (fun s -> J.Float s) o.setup_s));
       ("crash_ms", J.Float o.crash_ms);
       ("driver_cpu_frac", J.Float o.driver_cpu_frac);
       ("violations", J.List (List.map (fun s -> J.String s) o.examples));
     ]
    @
    match per_layer with
    | [] -> []
    | rows ->
        [
          ( "per_layer",
            J.Obj
              (List.map
                 (fun (r : Layers.row) ->
                   ( r.name,
                     J.Obj
                       [
                         ("value", J.Float r.value);
                         ("unit", J.String r.unit);
                         ("why_zero", match r.why_zero with Some s -> J.String s | None -> J.Null);
                       ] ))
                 rows) );
        ])

(* The last line of standard output. *)
let result_line ~correct ~attempted ~failed metrics =
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool correct);
         ("attempted", J.Int attempted);
         ("failed", J.Int failed);
         ( "metrics",
           J.Obj (List.map (fun (n, u, v) -> (n, J.Obj [ ("value", num v); ("unit", J.String u) ])) metrics) );
       ])

let pf = Printf.printf

let print_run (w : Gen.workload) (o : Outcome.t) ~label =
  pf "== %s (%s): %.0f s window ==\n" w.name label o.seconds;
  List.iter
    (fun (n, u, v) ->
      match v with
      | Some v -> pf "  %-12s %14.4f %s\n" n v u
      | None -> pf "  %-12s %14s (fewer than %d samples)\n" n "null" Stat.min_p99_samples)
    (e2e o);
  List.iter
    (fun c ->
      let a = o.lat.(Gen.cls_index c) in
      if Array.length a > 0 then
        pf "  %-5s n=%-8d p50=%.1f us  p99=%s\n" (Gen.cls_name c) (Array.length a)
          (Stat.percentile a 0.5)
          (match Stat.p99 a with Some v -> Printf.sprintf "%.1f us" v | None -> "null (n < 1000)"))
    Gen.classes;
  pf "  err_rate %.6f (%d/%d)  setups [%s] s  crash %.1f ms  load cpu %.2f\n" (err_rate o) o.failed
    o.attempted
    (String.concat "; " (List.map (Printf.sprintf "%.3f") o.setup_s))
    o.crash_ms o.driver_cpu_frac;
  pf "  audit (before and after the crash): %s\n"
    (if o.violations = 0 then "PASS" else Printf.sprintf "FAIL, %d violations" o.violations);
  List.iter (pf "    %s\n") o.examples

let print_layers (rows : Layers.row list) =
  pf "  %-34s %12s %-12s\n" "per-layer metric" "value" "unit";
  List.iter
    (fun (r : Layers.row) ->
      pf "  %-34s %12.4f %-12s%s\n" r.name r.value r.unit
        (match r.why_zero with Some why -> "  (0: " ^ why ^ ")" | None -> ""))
    rows

(* Chrome trace events of the bench's own spans. *)
let write_spans file (spans : Outcome.span list) =
  let base = List.fold_left (fun acc (s : Outcome.span) -> Float.min acc s.t0) infinity spans in
  let ev (s : Outcome.span) =
    J.Obj
      [
        ("name", J.String (Gen.cls_name s.cls));
        ("ph", J.String "X");
        ("ts", J.Float ((s.t0 -. base) *. 1e6));
        ("dur", J.Float ((s.t1 -. s.t0) *. 1e6));
        ("pid", J.Int 1);
        ("tid", J.Int s.conn);
        ("args", J.Obj [ ("rid", J.Int s.rid) ]);
      ]
  in
  Out_channel.with_open_text file (fun oc ->
      J.to_channel oc (J.Obj [ ("traceEvents", J.List (List.map ev spans)) ]))
