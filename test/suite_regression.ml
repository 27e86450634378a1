(* Pinned end-to-end values at fixed seeds. These are not correctness
   oracles — the behavioural properties live in the other suites — but
   tripwires: any unintended change to the PRNG streams, the deployment
   processes, the density metric, the ≺ order or the election rules moves
   at least one of these numbers. Update them deliberately when semantics
   change on purpose. *)

module Rng = Ss_prng.Rng
module Builders = Ss_topology.Builders
module Graph = Ss_topology.Graph
module C = Ss_cluster
module E = Ss_experiments
module Summary = Ss_stats.Summary

(* The shared fixture: a seeded random geometric world. All draws happen in
   a fixed order, so every pinned value below is deterministic. *)
let world () =
  let rng = Rng.create ~seed:1234 in
  let g = Builders.random_geometric rng ~intensity:300.0 ~radius:0.1 in
  let ids = C.Algorithm.shuffled_ids rng g in
  (rng, g, ids)

let test_world_shape () =
  let _, g, _ = world () in
  Alcotest.(check int) "nodes" 306 (Graph.node_count g);
  Alcotest.(check int) "edges" 1432 (Graph.edge_count g);
  Alcotest.(check int) "max degree" 22 (Graph.max_degree g)

let test_density_sum () =
  let _, g, _ = world () in
  let total =
    Array.fold_left
      (fun acc d -> acc +. C.Density.to_float d)
      0.0
      (C.Density.compute_all g)
  in
  Alcotest.(check (float 1e-6)) "density mass" 1083.549868 total

let test_basic_run () =
  let rng, g, ids = world () in
  let outcome = C.Algorithm.run rng C.Config.basic g ~ids in
  Alcotest.(check int) "clusters" 15
    (C.Assignment.cluster_count outcome.C.Algorithm.assignment);
  Alcotest.(check int) "rounds" 6 outcome.C.Algorithm.rounds

let test_improved_run () =
  let rng, g, ids = world () in
  let _ = C.Algorithm.run rng C.Config.basic g ~ids in
  let outcome =
    C.Algorithm.run ~scheduler:C.Algorithm.Sequential rng C.Config.improved g
      ~ids
  in
  Alcotest.(check int) "clusters" 14
    (C.Assignment.cluster_count outcome.C.Algorithm.assignment)

let test_dag_run () =
  let rng, g, ids = world () in
  let _ = C.Algorithm.run rng C.Config.basic g ~ids in
  let _ =
    C.Algorithm.run ~scheduler:C.Algorithm.Sequential rng C.Config.improved g
      ~ids
  in
  let outcome = C.Algorithm.run rng C.Config.with_dag g ~ids in
  match outcome.C.Algorithm.dag with
  | Some d ->
      Alcotest.(check int) "N1 steps" 2 d.C.Dag_id.steps;
      Alcotest.(check int) "gamma = 22^2" 484 d.C.Dag_id.gamma_size;
      Alcotest.(check int) "clusters" 15
        (C.Assignment.cluster_count outcome.C.Algorithm.assignment)
  | None -> Alcotest.fail "expected DAG result"

let test_grid_runs () =
  let gg = Builders.geometric_grid ~cols:16 ~rows:16 ~radius:0.1 in
  let gids = Array.init 256 Fun.id in
  let rng = Rng.create ~seed:99 in
  let basic = C.Algorithm.run rng C.Config.basic gg ~ids:gids in
  Alcotest.(check int) "grid basic clusters" 1
    (C.Assignment.cluster_count basic.C.Algorithm.assignment);
  Alcotest.(check int) "grid basic rounds" 15 basic.C.Algorithm.rounds;
  Alcotest.(check int) "grid basic tree" 14
    (C.Metrics.max_tree_length basic.C.Algorithm.assignment);
  let dag = C.Algorithm.run rng C.Config.with_dag gg ~ids:gids in
  Alcotest.(check int) "grid dag clusters" 27
    (C.Assignment.cluster_count dag.C.Algorithm.assignment);
  Alcotest.(check int) "grid dag rounds" 4 dag.C.Algorithm.rounds

let test_maxmin_run () =
  let rng = Rng.create ~seed:55 in
  let g = Builders.gnp rng ~n:80 ~p:0.06 in
  let ids = Rng.permutation rng 80 in
  Alcotest.(check int) "maxmin clusters" 17
    (C.Assignment.cluster_count (C.Maxmin.cluster g ~ids ~d:2))

(* Pinned experiment pipelines, exercised sequentially and again on a
   multi-domain pool: the exact float equality proves the parallel sweep
   reproduces the sequential aggregation bit for bit.

   Values re-pinned when the engine moved channel loss, the random-order
   daemon and per-node handle generators onto counter-keyed streams (the
   sparse-execution determinism contract): the same distributions, drawn
   from per-(round, node) keys instead of one shared sequential stream. *)

let check_selfstab_golden ~domains =
  let spec = E.Scenario.poisson ~intensity:80.0 ~radius:0.15 () in
  match
    E.Sweep.rows ~domains
      (E.Exp_selfstab.sweep ~seed:7 ~runs:3 ~spec ~fractions:[ 0.5 ] ~taus:[]
         ())
  with
  | [ r ] ->
      let rounds = r.E.Exp_selfstab.rounds in
      Alcotest.(check int) "runs" 3 r.E.Exp_selfstab.runs;
      Alcotest.(check int) "identical fixpoints" 3 r.E.Exp_selfstab.ok;
      Alcotest.(check int) "rounds count" 3 (Summary.count rounds);
      Alcotest.(check (float 0.0)) "rounds mean" 5.333333333333333
        (Summary.mean rounds);
      Alcotest.(check (float 0.0)) "rounds stddev" 1.5275252316519465
        (Summary.stddev rounds);
      Alcotest.(check (float 0.0)) "rounds min" 4.0 (Summary.minimum rounds);
      Alcotest.(check (float 0.0)) "rounds max" 7.0 (Summary.maximum rounds)
  | _ -> Alcotest.fail "expected exactly one recovery row"

let check_churn_golden ~domains =
  match
    E.Sweep.rows ~domains
      (E.Exp_churn.sweep ~seed:7 ~runs:2
         ~spec:(E.Scenario.poisson ~intensity:90.0 ~radius:0.14 ())
         ~schedulers:[ Ss_engine.Scheduler.Synchronous ]
         ~storms:[ E.Exp_churn.Crash_recover ] ())
  with
  | [ r ] ->
      Alcotest.(check int) "runs" 2 r.E.Exp_churn.runs;
      Alcotest.(check int) "bursts" 4 r.E.Exp_churn.bursts;
      Alcotest.(check int) "recovered" 4 r.E.Exp_churn.recovered;
      Alcotest.(check int) "recovery count" 4
        (Summary.count r.E.Exp_churn.recovery);
      Alcotest.(check (float 0.0)) "recovery mean" 7.25
        (Summary.mean r.E.Exp_churn.recovery);
      Alcotest.(check (float 0.0)) "peak ghosts mean" 115.0
        (Summary.mean r.E.Exp_churn.peak_ghosts);
      Alcotest.(check int) "legitimate" 2 r.E.Exp_churn.legitimate;
      Alcotest.(check int) "converged" 2 r.E.Exp_churn.converged;
      Alcotest.(check (list (pair string int)))
        "events" [ ("crash", 48); ("join", 48) ]
        (Ss_stats.Counter.to_list r.E.Exp_churn.events)
  | _ -> Alcotest.fail "expected exactly one churn row"

let test_selfstab_golden_sequential () = check_selfstab_golden ~domains:1
let test_selfstab_golden_parallel () = check_selfstab_golden ~domains:3
let test_churn_golden_sequential () = check_churn_golden ~domains:1
let test_churn_golden_parallel () = check_churn_golden ~domains:3

let suite =
  [
    Alcotest.test_case "pinned world shape" `Quick test_world_shape;
    Alcotest.test_case "pinned density mass" `Quick test_density_sum;
    Alcotest.test_case "pinned basic run" `Quick test_basic_run;
    Alcotest.test_case "pinned improved run" `Quick test_improved_run;
    Alcotest.test_case "pinned DAG run" `Quick test_dag_run;
    Alcotest.test_case "pinned grid runs" `Quick test_grid_runs;
    Alcotest.test_case "pinned max-min run" `Quick test_maxmin_run;
    Alcotest.test_case "pinned selfstab pipeline (1 domain)" `Slow
      test_selfstab_golden_sequential;
    Alcotest.test_case "pinned selfstab pipeline (3 domains)" `Slow
      test_selfstab_golden_parallel;
    Alcotest.test_case "pinned churn pipeline (1 domain)" `Slow
      test_churn_golden_sequential;
    Alcotest.test_case "pinned churn pipeline (3 domains)" `Slow
      test_churn_golden_parallel;
  ]
