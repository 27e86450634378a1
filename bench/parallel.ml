(* Parallel-runner benchmark: wall-clock throughput of the replicate-heavy
   pipelines (selfstab recovery, within-run churn) at 1, 2 and 4 domains,
   cross-checking that every domain count produces the identical result
   before timing is reported. Emits BENCH_parallel.json in the working
   directory plus a human-readable summary on stdout.

     dune exec bench/parallel.exe

   Speedups only materialize when the machine actually has spare cores;
   the JSON records [Domain.recommended_domain_count] so a ~1x reading on
   a single-core box is interpretable. *)

module E = Ss_experiments
module Counter = Ss_stats.Counter

let seed = 2026
let runs = 8
let domain_counts = [ 1; 2; 4 ]
let reps = 3

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (Unix.gettimeofday () -. t0, v)

(* Best-of-[reps] wall time: robust against one-off scheduling noise while
   keeping the whole bench in the tens of seconds. *)
let best f =
  let rec go best_t last_v n =
    if n = 0 then (best_t, Option.get last_v)
    else
      let t, v = time f in
      go (Float.min best_t t) (Some v) (n - 1)
  in
  go infinity None reps

type pipeline = {
  name : string;
  run : domains:int -> unit -> Obj.t;
      (* Results are only ever compared against the same pipeline at another
         domain count, so an opaque projection is enough. *)
}

let selfstab_spec = E.Scenario.poisson ~intensity:150.0 ~radius:0.12 ()
let churn_spec = E.Scenario.poisson ~intensity:120.0 ~radius:0.12 ()

let pipelines =
  [
    {
      name = "selfstab_recovery";
      run =
        (fun ~domains () ->
          Obj.repr
            (E.Sweep.rows ~domains
               (E.Exp_selfstab.sweep ~seed ~runs ~spec:selfstab_spec
                  ~fractions:[ 0.3; 0.5 ] ~taus:[] ())));
    };
    {
      name = "churn_crash_recover";
      run =
        (fun ~domains () ->
          let rows =
            E.Sweep.rows ~domains
              (E.Exp_churn.sweep ~seed ~runs ~spec:churn_spec
                 ~schedulers:[ Ss_engine.Scheduler.Synchronous ]
                 ~storms:[ E.Exp_churn.Crash_recover ] ())
          in
          (* Counter.t is hashtable-backed; project to its sorted listing so
             structural comparison is representation-independent. *)
          Obj.repr
            (List.map
               (fun (r : E.Exp_churn.row) ->
                 ( r.E.Exp_churn.scheduler,
                   E.Exp_churn.storm_label r.E.Exp_churn.storm,
                   r.E.Exp_churn.runs,
                   r.E.Exp_churn.bursts,
                   r.E.Exp_churn.recovered,
                   r.E.Exp_churn.recovery,
                   r.E.Exp_churn.peak_ghosts,
                   Counter.to_list r.E.Exp_churn.events,
                   r.E.Exp_churn.legitimate,
                   r.E.Exp_churn.converged ))
               rows));
    };
  ]

type measurement = {
  pipeline : string;
  timings : (int * float) list; (* domain count, best wall seconds *)
  identical : bool;
}

let measure p =
  let results =
    List.map
      (fun domains ->
        let t, v = best (p.run ~domains) in
        (domains, t, v))
      domain_counts
  in
  let _, _, reference = List.hd results in
  let identical =
    List.for_all (fun (_, _, v) -> compare reference v = 0) results
  in
  {
    pipeline = p.name;
    timings = List.map (fun (d, t, _) -> (d, t)) results;
    identical;
  }

let speedup m d =
  let t1 = List.assoc 1 m.timings in
  t1 /. List.assoc d m.timings

let json_of_measurement m =
  let timing_fields =
    m.timings
    |> List.map (fun (d, t) -> Printf.sprintf "\"%d\": %.4f" d t)
    |> String.concat ", "
  in
  Printf.sprintf
    "    {\n\
    \      \"pipeline\": \"%s\",\n\
    \      \"seconds\": { %s },\n\
    \      \"speedup_2\": %.3f,\n\
    \      \"speedup_4\": %.3f,\n\
    \      \"identical_across_domains\": %b\n\
    \    }"
    m.pipeline timing_fields (speedup m 2) (speedup m 4) m.identical

let () =
  let measurements = List.map measure pipelines in
  let json =
    Printf.sprintf
      "{\n\
      \  \"seed\": %d,\n\
      \  \"runs_per_pipeline\": %d,\n\
      \  \"reps\": %d,\n\
      \  \"recommended_domain_count\": %d,\n\
      \  \"pipelines\": [\n\
       %s\n\
      \  ]\n\
       }\n"
      seed runs reps
      (Domain.recommended_domain_count ())
      (String.concat ",\n" (List.map json_of_measurement measurements))
  in
  let oc = open_out "BENCH_parallel.json" in
  output_string oc json;
  close_out oc;
  Fmt.pr "parallel runner bench (%d runs/pipeline, best of %d reps, %d core%s \
          recommended)@."
    runs reps
    (Domain.recommended_domain_count ())
    (if Domain.recommended_domain_count () = 1 then "" else "s");
  List.iter
    (fun m ->
      Fmt.pr "  %-20s" m.pipeline;
      List.iter (fun (d, t) -> Fmt.pr "  %dd: %6.2fs" d t) m.timings;
      Fmt.pr "  x2: %.2f  x4: %.2f  identical: %b@." (speedup m 2)
        (speedup m 4) m.identical)
    measurements;
  Fmt.pr "wrote BENCH_parallel.json@.";
  if not (List.for_all (fun m -> m.identical) measurements) then (
    Fmt.epr "ERROR: results differ across domain counts@.";
    exit 1)
