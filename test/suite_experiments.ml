(* Smoke and shape tests of the experiment drivers at miniature scale: each
   must run end to end, produce a well-formed table, and reproduce the
   paper's qualitative shapes. The full-scale runs live in bin/repro. *)

module E = Ss_experiments
module Scenario = E.Scenario
module Summary = Ss_stats.Summary
module Graph = Ss_topology.Graph
module Rng = Ss_prng.Rng

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec scan i =
    if i + nl > hl then false
    else if String.equal (String.sub haystack i nl) needle then true
    else scan (i + 1)
  in
  scan 0

(* ------------------------------------------------------------- Scenario *)

let test_scenario_poisson () =
  let rng = Rng.create ~seed:130 in
  let world =
    Scenario.build rng (Scenario.poisson ~intensity:150.0 ~radius:0.1 ())
  in
  let n = Graph.node_count world.Scenario.graph in
  Alcotest.(check bool) "node count near intensity" true (n > 90 && n < 220);
  Alcotest.(check int) "ids cover nodes" n (Array.length world.Scenario.ids);
  let sorted = Array.copy world.Scenario.ids in
  Array.sort Int.compare sorted;
  Alcotest.(check bool) "ids are a permutation" true
    (sorted = Array.init n Fun.id)

let test_scenario_grid_row_major () =
  let rng = Rng.create ~seed:131 in
  let world = Scenario.build rng (Scenario.grid ~cols:6 ~rows:5 ~radius:0.2 ()) in
  Alcotest.(check int) "30 nodes" 30 (Graph.node_count world.Scenario.graph);
  Alcotest.(check bool) "row-major ids" true
    (world.Scenario.ids = Array.init 30 Fun.id)

let test_scenario_uniform_count () =
  let rng = Rng.create ~seed:132 in
  let world = Scenario.build rng (Scenario.uniform ~count:42 ~radius:0.1 ()) in
  Alcotest.(check int) "exact count" 42 (Graph.node_count world.Scenario.graph)

(* ----------------------------------------------------------------- Sweep *)

(* The row of a one-cell sweep of [runs] runs of [f]. *)
let one_cell ~seed ~runs fold f =
  List.hd
    (E.Sweep.rows
       {
         E.Sweep.label = (fun () -> "cell");
         cells = [ () ];
         runs = (fun () -> runs);
         seed = (fun _ -> seed);
         run = (fun () -> f);
         judge = E.Sweep.raised_only;
         fold = (fun () -> fold);
       })

let test_runner_replicate_deterministic () =
  let replicate runs = one_cell ~seed:5 ~runs E.Sweep.completed Rng.unit in
  let a = replicate 4 in
  let b = replicate 4 in
  Alcotest.(check bool) "same values" true (a = b);
  (* Prefix stability: adding runs never changes earlier ones. *)
  let c = replicate 6 in
  Alcotest.(check bool) "prefix stable" true
    (a = [ List.nth c 0; List.nth c 1; List.nth c 2; List.nth c 3 ])

let test_runner_summarize () =
  let s =
    one_cell ~seed:5 ~runs:100
      (E.Sweep.summaries 1 (fun x add -> add 0 x))
      (fun _rng -> 2.5)
  in
  Alcotest.(check (float 1e-9)) "constant mean" 2.5 (Summary.mean s.(0));
  Alcotest.(check int) "count" 100 (Summary.count s.(0))

let test_runner_fields () =
  let result =
    one_cell ~seed:5 ~runs:10
      (E.Sweep.summaries 2 (fun (a, b) add ->
           add 0 a;
           add 1 b))
      (fun _rng -> (1.0, 2.0))
  in
  Alcotest.(check (float 1e-9)) "a" 1.0 (Summary.mean result.(0));
  Alcotest.(check (float 1e-9)) "b" 2.0 (Summary.mean result.(1))

(* ------------------------------------------------------------- Drivers *)

let test_example_driver () =
  let result = E.Exp_example.run () in
  let rendered = Ss_stats.Table.render result.E.Exp_example.table in
  Alcotest.(check bool) "has node b row" true (contains rendered "    b |");
  Alcotest.(check int) "two clusters" 2
    (List.length result.E.Exp_example.clusters);
  let heads = List.map fst result.E.Exp_example.clusters in
  Alcotest.(check (list string)) "heads h and j" [ "h"; "j" ]
    (List.sort String.compare heads)

let test_dag_steps_driver_shape () =
  let grid_rows, random_rows =
    List.partition
      (fun row -> row.E.Exp_dag_steps.scenario = "grid")
      (E.Sweep.rows
         (E.Exp_dag_steps.sweep ~seed:3 ~runs:3 ~intensity:200.0
            ~radii:[ 0.08; 0.1 ] ()))
  in
  Alcotest.(check int) "two grid rows" 2 (List.length grid_rows);
  Alcotest.(check int) "two random rows" 2 (List.length random_rows);
  List.iter
    (fun row ->
      let mean = Summary.mean row.E.Exp_dag_steps.steps in
      Alcotest.(check bool)
        (Printf.sprintf "steps %.2f in [1,4]" mean)
        true
        (mean >= 1.0 && mean <= 4.0))
    (grid_rows @ random_rows)

let test_features_driver_shapes () =
  (* Miniature Table 5: the no-DAG grid with row-major ids must give exactly
     one cluster; the DAG variant several; DAG tree length far smaller. *)
  let rows =
    E.Sweep.rows (E.Exp_features.grid_sweep ~seed:3 ~runs:2 ~radii:[ 0.13 ] ())
  in
  match rows with
  | [ row ] ->
      Alcotest.(check (float 1e-9)) "no-DAG one cluster" 1.0
        (Summary.mean row.E.Exp_features.without_dag.E.Exp_features.clusters);
      Alcotest.(check bool) "DAG several clusters" true
        (Summary.mean row.E.Exp_features.with_dag.E.Exp_features.clusters > 2.0);
      Alcotest.(check bool) "DAG shorter trees" true
        (Summary.mean row.E.Exp_features.with_dag.E.Exp_features.tree_length
        < Summary.mean row.E.Exp_features.without_dag.E.Exp_features.tree_length)
  | _ -> Alcotest.fail "expected one row"

let test_random_features_dag_irrelevant () =
  (* Miniature Table 4: with random ids, DAG on/off barely changes the
     cluster count (the paper's observation). *)
  let rows =
    E.Sweep.rows
      (E.Exp_features.random_sweep ~seed:3 ~runs:3 ~intensity:150.0
         ~radii:[ 0.12 ] ())
  in
  match rows with
  | [ row ] ->
      let w = Summary.mean row.E.Exp_features.with_dag.E.Exp_features.clusters in
      let wo =
        Summary.mean row.E.Exp_features.without_dag.E.Exp_features.clusters
      in
      Alcotest.(check bool)
        (Printf.sprintf "DAG %.1f vs no-DAG %.1f close" w wo)
        true
        (Float.abs (w -. wo) <= 0.25 *. Float.max w wo +. 1.0)
  | _ -> Alcotest.fail "expected one row"

let test_schedule_driver_shape () =
  let m =
    List.hd
      (E.Sweep.rows
         (E.Exp_schedule.sweep ~seed:3 ~runs:2
            ~spec:(Scenario.poisson ~intensity:80.0 ~radius:0.15 ())
            ()))
  in
  Alcotest.(check (float 1e-9)) "neighbors at step 1" 1.0
    (Summary.mean m.E.Exp_schedule.neighbors);
  Alcotest.(check bool) "density near step 2" true
    (Summary.mean m.E.Exp_schedule.density <= 2.5);
  Alcotest.(check bool) "father near step 3" true
    (Summary.mean m.E.Exp_schedule.father <= 3.5);
  Alcotest.(check bool) "head after father" true
    (Summary.mean m.E.Exp_schedule.head >= Summary.mean m.E.Exp_schedule.father)

let test_mobility_driver_shape () =
  let results =
    E.Sweep.rows (E.Exp_mobility.sweep ~runs:2 ~count:120 ~horizon:30.0 ())
  in
  Alcotest.(check int) "two regimes" 2 (List.length results);
  List.iter
    (fun r ->
      let imp = Summary.mean r.E.Exp_mobility.improved in
      let basic = Summary.mean r.E.Exp_mobility.basic in
      Alcotest.(check bool) "retention is a probability" true
        (imp >= 0.0 && imp <= 1.0 && basic >= 0.0 && basic <= 1.0))
    results

let test_selfstab_driver_shape () =
  let spec = Scenario.poisson ~intensity:80.0 ~radius:0.15 () in
  let rows =
    E.Sweep.rows
      (E.Exp_selfstab.sweep ~seed:3 ~runs:2 ~spec ~fractions:[ 0.1; 1.0 ]
         ~taus:[] ())
  in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check int)
        (Printf.sprintf "all runs recovered the fixpoint at %s"
           (match r.E.Exp_selfstab.cell with
           | E.Exp_selfstab.Recovery f -> Printf.sprintf "%.0f%%" (100.0 *. f)
           | E.Exp_selfstab.Loss _ -> "a loss cell"))
        r.E.Exp_selfstab.runs r.E.Exp_selfstab.ok)
    rows

let test_compare_driver_shape () =
  let rows =
    E.Sweep.rows
      (E.Exp_compare.sweep ~seed:3 ~runs:1 ~count:100 ~epochs:10
         ~algorithms:
           [
             E.Exp_compare.Heuristic Ss_cluster.Metric.Density;
             E.Exp_compare.Heuristic Ss_cluster.Metric.Degree;
           ]
         ())
  in
  Alcotest.(check int) "two algorithms" 2 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) "retention in [0,1]" true
        (Summary.mean r.E.Exp_compare.retention >= 0.0
        && Summary.mean r.E.Exp_compare.retention <= 1.0))
    rows

let test_link_failure_driver_shape () =
  let rows =
    E.Sweep.rows
      (E.Exp_epochs.sweep ~seed:3 ~runs:1
         ~spec:(Scenario.poisson ~intensity:120.0 ~radius:0.12 ())
         ~epochs:8
         [ E.Exp_epochs.Fade 0.0; E.Exp_epochs.Fade 0.3 ])
  in
  match rows with
  | [ stable; flaky ] ->
      Alcotest.(check (float 1e-9)) "no failures, full retention" 1.0
        (Summary.mean stable.E.Exp_epochs.retention);
      Alcotest.(check bool) "failures reduce retention" true
        (Summary.mean flaky.E.Exp_epochs.retention
        < Summary.mean stable.E.Exp_epochs.retention)
  | _ -> Alcotest.fail "expected two rows"

let test_faded_graph () =
  let rng = Ss_prng.Rng.create ~seed:4 in
  let g = Ss_topology.Builders.complete 20 in
  let all_gone = E.Exp_epochs.faded rng g ~rate:1.0 in
  Alcotest.(check int) "rate 1 removes everything" 0
    (Graph.edge_count all_gone);
  let untouched = E.Exp_epochs.faded rng g ~rate:0.0 in
  Alcotest.(check int) "rate 0 keeps everything" (Graph.edge_count g)
    (Graph.edge_count untouched);
  let half = E.Exp_epochs.faded rng g ~rate:0.5 in
  let m = Graph.edge_count half in
  Alcotest.(check bool) "rate 0.5 keeps roughly half" true (m > 50 && m < 140)

let test_figures_driver () =
  let fig = E.Exp_figures.figure3 ~seed:3 ~radius:0.05 () in
  Alcotest.(check bool) "figure 3 has several clusters" true
    (fig.E.Exp_figures.summary.Ss_cluster.Metrics.clusters > 10);
  Alcotest.(check bool) "svg produced" true
    (contains fig.E.Exp_figures.svg "<svg");
  let fig2 = E.Exp_figures.figure2 ~seed:3 ~radius:0.05 () in
  Alcotest.(check int) "figure 2 is one cluster" 1
    fig2.E.Exp_figures.summary.Ss_cluster.Metrics.clusters

let suite =
  [
    Alcotest.test_case "poisson scenario" `Quick test_scenario_poisson;
    Alcotest.test_case "grid scenario row-major" `Quick
      test_scenario_grid_row_major;
    Alcotest.test_case "uniform scenario" `Quick test_scenario_uniform_count;
    Alcotest.test_case "runner determinism and prefix stability" `Quick
      test_runner_replicate_deterministic;
    Alcotest.test_case "runner summarize" `Quick test_runner_summarize;
    Alcotest.test_case "runner fields" `Quick test_runner_fields;
    Alcotest.test_case "T1 example driver" `Quick test_example_driver;
    Alcotest.test_case "T3 dag-steps shape" `Quick test_dag_steps_driver_shape;
    Alcotest.test_case "T5 grid shapes" `Slow test_features_driver_shapes;
    Alcotest.test_case "T4 DAG-irrelevance shape" `Slow
      test_random_features_dag_irrelevant;
    Alcotest.test_case "T2 schedule shape" `Slow test_schedule_driver_shape;
    Alcotest.test_case "mobility driver" `Slow test_mobility_driver_shape;
    Alcotest.test_case "self-stabilization driver" `Slow
      test_selfstab_driver_shape;
    Alcotest.test_case "metric comparison driver" `Slow test_compare_driver_shape;
    Alcotest.test_case "link-failure driver" `Slow test_link_failure_driver_shape;
    Alcotest.test_case "faded graph" `Quick test_faded_graph;
    Alcotest.test_case "figures drivers" `Slow test_figures_driver;
  ]
