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

     dune exec bench/bench.exe -- stabilization            # full sweep (hours)
     dune exec bench/bench.exe -- stabilization --smoke    # small sides, seconds;
                                                           # writes nothing
     dune exec bench/bench.exe -- stabilization --jobs 8   # domain pool width *)

open Cmdliner
module Exp = Ss_experiments.Exp_stabilization
module Estimate = Ss_stats.Estimate
module Table = Ss_stats.Table
module Json = Ssbench.Json

let seed = 42

(* As repro's: a bad count exits 2 naming it; with neither the flag nor
   REPRO_JOBS, one domain fewer than recommended. *)
let jobs_arg =
  let env = Cmd.Env.info "REPRO_JOBS" ~doc:"Default for $(b,--jobs)." in
  let doc = "Domains of the sweep's pool, a positive integer." in
  let check = function
    | None -> max 1 (Domain.recommended_domain_count () - 1)
    | Some s -> (
        try Ss_experiments.Sweep.jobs_of_string s
        with Invalid_argument msg ->
          Fmt.epr "bench: --jobs/REPRO_JOBS: %s@." msg;
          exit 2)
  in
  Term.(
    const check
    $ Arg.(value & opt (some string) None & info [ "jobs" ] ~env ~docv:"N" ~doc))

let naming_label = function Exp.Dag -> "dag" | Exp.Adversarial -> "adversarial"

let trend_label = function
  | Exp.Flat -> "flat"
  | Exp.Growing -> "growing"
  | Exp.Mixed -> "mixed"

let json_of_row (r : Exp.row) =
  let c = r.Exp.cell and int = Json.int and fixed = Harness.fixed in
  Json.Obj
    [
      ("side", int c.Exp.c_side);
      ("nodes", int r.Exp.nodes);
      ("k", fixed 2 c.Exp.c_k);
      ("tau", fixed 2 c.Exp.c_tau);
      ("naming", Json.Str (naming_label c.Exp.c_naming));
      ("runs", int c.Exp.c_runs);
      ("cap", int c.Exp.c_cap);
      ("degree", fixed 1 r.Exp.degree);
      ("censored", int (Estimate.censored_count r.Exp.stab));
      ("mean", fixed 4 r.Exp.mean_ci.Estimate.point);
      ("mean_lo", fixed 4 r.Exp.mean_ci.Estimate.lo);
      ("mean_hi", fixed 4 r.Exp.mean_ci.Estimate.hi);
      ("median", fixed 4 r.Exp.median_ci.Estimate.point);
      ("median_lo", fixed 4 r.Exp.median_ci.Estimate.lo);
      ("median_hi", fixed 4 r.Exp.median_ci.Estimate.hi);
      ("p95_lb", fixed 4 r.Exp.p95_lb);
      ("viol_per_100", fixed 4 r.Exp.viol_per_100);
      ( "gap_mean_lb",
        fixed 4
          (if Estimate.count r.Exp.gaps = 0 then Float.nan
           else Estimate.mean_lb r.Exp.gaps) );
      ("seconds", fixed 1 r.Exp.seconds);
    ]

let json_of_verdict (v : Exp.verdict) =
  Json.Obj
    [
      ("k", Harness.fixed 2 v.Exp.v_k);
      ("naming", Json.Str (naming_label v.Exp.v_naming));
      ("tau", Harness.fixed 2 v.Exp.v_tau);
      ("sides", Json.Arr (List.map Json.int v.Exp.v_sides));
      ("trend", Json.Str (trend_label v.Exp.v_trend));
      ("superiority", Harness.fixed 4 v.Exp.v_sup);
      ("ks_p", Harness.fixed 4 v.Exp.v_ks_p);
    ]

let main smoke domains =
  let cells = if smoke then Exp.smoke_cells else Exp.default_cells in
  Printf.printf "stabilization%s: %d cells, %d domains (flat executor)\n%!"
    (if smoke then " --smoke" else "")
    (List.length cells) domains;
  let t, rows =
    Harness.measure ignore (fun () ->
        Ss_experiments.Sweep.rows ~domains (Exp.sweep ~seed ~cells ()))
  in
  let dt = t.Harness.wall in
  let verdicts = Exp.verdicts rows in
  Table.print (Exp.to_table rows);
  Table.print (Exp.verdicts_table verdicts);
  let ok = Exp.dag_flat verdicts in
  if not smoke then begin
    Out_channel.with_open_bin "stabilization.csv" (fun oc ->
        output_string oc (Table.to_csv (Exp.to_table rows)));
    Printf.printf "wrote stabilization.csv\n%!"
  end;
  Harness.output ~smoke "BENCH_stabilization.json"
    (Json.Obj
       [
         ("bench", Json.Str "stabilization");
         ("executor", Json.Str "flat");
         ("seed", Json.int seed);
         ("violation_horizon", Json.int Exp.violation_horizon);
         ("wall_seconds", Harness.fixed 1 dt);
         ("dag_flat", Json.Bool ok);
         ("rows", Json.Arr (List.map json_of_row rows));
         ("verdicts", Json.Arr (List.map json_of_verdict verdicts));
       ]);
  Printf.printf "total: %.1fs\n%!" dt;
  Harness.require ok "a with-DAG curve is not flat in n within CI overlap"

let cmd =
  let doc = "The stabilization-time sweep behind the constant-time claim." in
  Cmd.v (Cmd.info "stabilization" ~doc)
    Term.(
      const main
      $ Harness.smoke_arg
          "Small sides; check the document's shape and write nothing."
      $ jobs_arg)
