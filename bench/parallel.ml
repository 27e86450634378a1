(* Parallel-runner benchmark: wall-clock throughput of the replicate-heavy
   pipelines (selfstab recovery, within-run churn) at 1, 2 and 4 domains,
   cross-checking that every domain count produces the identical result
   before timing is reported. Emits BENCH_parallel.json in the working
   directory plus a human-readable summary on stdout.

     dune exec bench/bench.exe -- parallel

   Each (pipeline, domain count) is timed in its own fresh process and
   keeps the rep with the least wall time (harness.ml); the child reports
   the CSV of the tables the pipeline's repro command prints, and every
   domain count must print the same bytes. Speedups only materialize when
   the machine actually has spare cores; the JSON records
   [Domain.recommended_domain_count] so a ~1x reading on a single-core
   box is interpretable. *)

module X = Ss_experiments
module Json = Ssbench.Json

let seed = 2026
let runs = 8
let domain_counts = [ 1; 2; 4 ]
let reps = 3
let selfstab_spec = X.Scenario.poisson ~intensity:150.0 ~radius:0.12 ()
let churn_spec = X.Scenario.poisson ~intensity:120.0 ~radius:0.12 ()

(* A pipeline's call at a domain count: the sweep is timed, the CSV of
   its tables reported. *)
let pipeline name sweep tables =
  ( name,
    fun ~domains ->
      Harness.call ignore
        (fun () -> X.Sweep.rows ~domains sweep)
        (fun rows ->
          let csv = List.map Ss_stats.Table.to_csv (tables rows) in
          [ ("csv", Json.Str (String.concat "" csv)) ]) )

let pipelines =
  [
    pipeline "selfstab_recovery"
      (X.Exp_selfstab.sweep ~seed ~runs ~spec:selfstab_spec
         ~fractions:[ 0.3; 0.5 ] ~taus:[] ())
      (fun rows -> [ X.Exp_selfstab.recovery_table rows ]);
    pipeline "churn_crash_recover"
      (X.Exp_churn.sweep ~seed ~runs ~spec:churn_spec
         ~schedulers:[ Ss_engine.Scheduler.Synchronous ]
         ~storms:[ X.Exp_churn.Crash_recover ] ())
      (fun rows -> [ X.Exp_churn.to_table rows; X.Exp_churn.events_table rows ]);
  ]

let call_name pipeline domains = Printf.sprintf "%s@%d" pipeline domains

let calls =
  List.concat_map
    (fun (name, call) ->
      List.map (fun d -> (call_name name d, call ~domains:d)) domain_counts)
    pipelines

(* A pipeline's row: its least wall seconds per domain count, and
   whether every count printed the same tables. *)
let measure (name, _) =
  let results =
    List.map
      (fun d ->
        let call = call_name name d in
        let r = Harness.best ~wall:true ~reps ~smoke:false "parallel" call in
        (d, r.Harness.wall, Json.to_str (Harness.observed "csv" r)))
      domain_counts
  in
  let _, _, reference = List.hd results in
  let identical =
    List.for_all (fun (_, _, v) -> String.equal reference v) results
  in
  let timings = List.map (fun (d, t, _) -> (d, t)) results in
  let speedup d = List.assoc 1 timings /. List.assoc d timings in
  Fmt.pr "  %-20s" name;
  List.iter (fun (d, t) -> Fmt.pr "  %dd: %6.2fs" d t) timings;
  Fmt.pr "  x2: %.2f  x4: %.2f  identical: %b@." (speedup 2) (speedup 4)
    identical;
  let seconds (d, t) = (string_of_int d, Harness.fixed 4 t) in
  ( Json.Obj
      [
        ("pipeline", Json.Str name);
        ("seconds", Json.Obj (List.map seconds timings));
        ("speedup_2", Harness.fixed 3 (speedup 2));
        ("speedup_4", Harness.fixed 3 (speedup 4));
        ("identical_across_domains", Json.Bool identical);
      ],
    identical )

let main ~smoke:_ =
  let cores = Domain.recommended_domain_count () in
  Fmt.pr
    "parallel runner bench (%d runs/pipeline, best of %d reps, %d core%s \
     recommended)@."
    runs reps cores
    (if cores = 1 then "" else "s");
  let rows = List.map measure pipelines in
  Harness.write "BENCH_parallel.json"
    (Json.Obj
       [
         ("seed", Json.int seed);
         ("runs_per_pipeline", Json.int runs);
         ("reps", Json.int reps);
         ("recommended_domain_count", Json.int cores);
         ("pipelines", Json.Arr (List.map fst rows));
       ]);
  Harness.require (List.for_all snd rows) "results differ across domain counts"

let cmd =
  Harness.bench "parallel" ~doc:"Replicate pipelines at 1, 2 and 4 domains."
    (fun ~smoke:_ -> calls)
    main
