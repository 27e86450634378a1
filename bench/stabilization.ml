(* Stabilization-time figure data: the full sweep behind the paper's
   constant-expected-stabilization claim, at figure quality.

   The full run (no flags) executes {!Exp_stabilization.default_cells} —
   grid deployments from 1k to 1M nodes at two densities, DAG names
   versus adversarial BFS-order flat ids, perfect and lossy channels —
   on the flat executor with the domain pool, then writes

     stabilization.csv        per-cell distribution rows (the figure data)
     BENCH_stabilization.json sweep summary + per-curve verdicts

   and exits non-zero unless every with-DAG curve is flat in n. The 1M
   adversarial cells censor at the cap by design; the CSV reports them
   as lower bounds with their censored counts.

     dune exec bench/stabilization.exe              # full sweep (hours)
     dune exec bench/stabilization.exe -- --smoke   # small sides, seconds
     dune exec bench/stabilization.exe -- --jobs 8  # domain pool width *)

module Exp = Ss_experiments.Exp_stabilization
module Estimate = Ss_stats.Estimate
module Table = Ss_stats.Table
module Summary = Ss_stats.Summary

let seed = 42

let jobs () =
  let rec find i =
    if i + 1 >= Array.length Sys.argv then None
    else if Sys.argv.(i) = "--jobs" then int_of_string_opt Sys.argv.(i + 1)
    else find (i + 1)
  in
  match find 0 with
  | Some j when j >= 1 -> j
  | _ -> max 1 (Domain.recommended_domain_count () - 1)

let naming_label = function Exp.Dag -> "dag" | Exp.Adversarial -> "adversarial"

let json_float x = if Float.is_nan x then "null" else Printf.sprintf "%.4f" x

let json_of_row (r : Exp.row) =
  let c = r.Exp.cell in
  Printf.sprintf
    "    {\"side\": %d, \"nodes\": %d, \"k\": %.2f, \"tau\": %.2f, \
     \"naming\": \"%s\", \"runs\": %d, \"cap\": %d, \"degree\": %.1f, \
     \"censored\": %d, \"mean\": %s, \"mean_lo\": %s, \"mean_hi\": %s, \
     \"median\": %s, \"median_lo\": %s, \"median_hi\": %s, \"p95_lb\": %s, \
     \"viol_per_100\": %s, \"gap_mean_lb\": %s, \"seconds\": %.1f}"
    c.Exp.c_side r.Exp.nodes c.Exp.c_k c.Exp.c_tau
    (naming_label c.Exp.c_naming)
    c.Exp.c_runs c.Exp.c_cap r.Exp.degree
    (Estimate.censored_count r.Exp.stab)
    (json_float r.Exp.mean_ci.Estimate.point)
    (json_float r.Exp.mean_ci.Estimate.lo)
    (json_float r.Exp.mean_ci.Estimate.hi)
    (json_float r.Exp.median_ci.Estimate.point)
    (json_float r.Exp.median_ci.Estimate.lo)
    (json_float r.Exp.median_ci.Estimate.hi)
    (json_float r.Exp.p95_lb)
    (json_float r.Exp.viol_per_100)
    (json_float
       (if Estimate.count r.Exp.gaps = 0 then Float.nan
        else Estimate.mean_lb r.Exp.gaps))
    r.Exp.seconds

let trend_label = function
  | Exp.Flat -> "flat"
  | Exp.Growing -> "growing"
  | Exp.Mixed -> "mixed"

let json_of_verdict (v : Exp.verdict) =
  Printf.sprintf
    "    {\"k\": %.2f, \"naming\": \"%s\", \"tau\": %.2f, \"sides\": [%s], \
     \"trend\": \"%s\", \"superiority\": %s, \"ks_p\": %s}"
    v.Exp.v_k
    (naming_label v.Exp.v_naming)
    v.Exp.v_tau
    (String.concat ", " (List.map string_of_int v.Exp.v_sides))
    (trend_label v.Exp.v_trend)
    (json_float v.Exp.v_sup) (json_float v.Exp.v_ks_p)

let write_json rows verdicts dt ok =
  let oc = open_out "BENCH_stabilization.json" in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"stabilization\",\n\
    \  \"executor\": \"flat\",\n\
    \  \"seed\": %d,\n\
    \  \"violation_horizon\": %d,\n\
    \  \"wall_seconds\": %.1f,\n\
    \  \"dag_flat\": %b,\n\
    \  \"rows\": [\n%s\n  ],\n\
    \  \"verdicts\": [\n%s\n  ]\n\
     }\n"
    seed Exp.violation_horizon dt ok
    (String.concat ",\n" (List.map json_of_row rows))
    (String.concat ",\n" (List.map json_of_verdict verdicts));
  close_out oc;
  Printf.printf "wrote BENCH_stabilization.json\n%!"

let write_csv rows =
  let oc = open_out "stabilization.csv" in
  output_string oc (Table.to_csv (Exp.to_table rows));
  close_out oc;
  Printf.printf "wrote stabilization.csv\n%!"

let () =
  let smoke = Array.exists (( = ) "--smoke") Sys.argv in
  let cells = if smoke then Exp.smoke_cells else Exp.default_cells in
  let domains = jobs () in
  Printf.printf "stabilization%s: %d cells, %d domains (flat executor)\n%!"
    (if smoke then " --smoke" else "")
    (List.length cells) domains;
  let t0 = Unix.gettimeofday () in
  let rows = Ss_experiments.Sweep.rows ~domains (Exp.sweep ~seed ~cells ()) in
  let dt = Unix.gettimeofday () -. t0 in
  let verdicts = Exp.verdicts rows in
  Table.print (Exp.to_table rows);
  Table.print (Exp.verdicts_table verdicts);
  let ok = Exp.dag_flat verdicts in
  write_csv rows;
  write_json rows verdicts dt ok;
  Printf.printf "total: %.1fs\n%!" dt;
  if ok then exit 0
  else begin
    Printf.printf
      "ERROR: a with-DAG curve is not flat in n within CI overlap\n%!";
    exit 1
  end
