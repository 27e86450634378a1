(* Experiments T4 and T5 (Tables 4 and 5): cluster features — number of
   clusters, mean cluster-head eccentricity e(H(u)/C(u)) and mean
   clusterization tree length — with and without the DAG of local names,
   on the random-geometry deployment (T4) and on the adversarial row-major
   grid (T5). *)

module Graph = Ss_topology.Graph
module Rng = Ss_prng.Rng
module Config = Ss_cluster.Config
module Algorithm = Ss_cluster.Algorithm
module Metrics = Ss_cluster.Metrics
module Table = Ss_stats.Table
module Summary = Ss_stats.Summary

let default_radii = [ 0.05; 0.08; 0.1 ]

type cell = {
  clusters : Summary.t;
  eccentricity : Summary.t;
  tree_length : Summary.t;
  stabilization_rounds : Summary.t;
}

type row = { radius : float; with_dag : cell; without_dag : cell }

(* One clustering of a fresh deployment: clusters, head eccentricity,
   tree length, rounds. *)
let measure ~config spec rng =
  let world = Scenario.build rng spec in
  let outcome =
    Algorithm.run rng config world.Scenario.graph ~ids:world.Scenario.ids
  in
  let assignment = outcome.Algorithm.assignment in
  let graph = world.Scenario.graph in
  [|
    float_of_int (Metrics.cluster_count assignment);
    Option.value ~default:0.0 (Metrics.mean_head_eccentricity graph assignment);
    Option.value ~default:0.0 (Metrics.mean_tree_length assignment);
    float_of_int outcome.Algorithm.rounds;
  |]

type outcome = float array * float array

let cell_of runs pick =
  let s =
    Sweep.summaries 4
      (fun o add -> Array.iteri add (pick (o : outcome)))
      runs
  in
  {
    clusters = s.(0);
    eccentricity = s.(1);
    tree_length = s.(2);
    stabilization_rounds = s.(3);
  }

(* Both configurations run on the same stream (the second on a copy), so
   they cluster the same deployment. *)
let sweep ?(seed = 42) ?(runs = 30) ?(radii = default_radii) spec_of =
  {
    Sweep.label = Printf.sprintf "R=%.2f";
    cells = radii;
    runs = (fun _ -> runs);
    seed = (fun _ -> seed);
    run =
      (fun radius rng ->
        let spec = spec_of radius in
        let twin = Rng.copy rng in
        ( measure ~config:Config.with_dag spec rng,
          measure ~config:Config.basic spec twin ));
    judge = Sweep.raised_only;
    fold =
      (fun radius runs ->
        { radius; with_dag = cell_of runs fst; without_dag = cell_of runs snd });
  }

let random_sweep ?seed ?runs ?(intensity = 1000.0) ?radii () =
  sweep ?seed ?runs ?radii (fun radius -> Scenario.poisson ~intensity ~radius ())

let grid_sweep ?seed ?runs ?radii () =
  sweep ?seed ?runs ?radii (fun radius -> Scenario.grid ~radius ())

let random_title = "Table 4 — cluster features on a random geometric graph"

let grid_title =
  "Table 5 — cluster features on a grid with adversarial (row-major) ids"

let to_table ~title rows =
  let header =
    "R"
    :: List.concat_map
         (fun r ->
           let tag = Printf.sprintf "R=%.2f" r.radius in
           [ tag ^ " DAG"; tag ^ " no-DAG" ])
         rows
  in
  let t = Table.create ~title ~header () in
  let line label select decimals =
    label
    :: List.concat_map
         (fun r ->
           [
             Table.cell_float ~decimals (Summary.mean (select r.with_dag));
             Table.cell_float ~decimals (Summary.mean (select r.without_dag));
           ])
         rows
  in
  let t = Table.add_row t (line "# clusters" (fun c -> c.clusters) 1) in
  let t = Table.add_row t (line "e(H(u)/C(u))" (fun c -> c.eccentricity) 1) in
  let t = Table.add_row t (line "avg tree length" (fun c -> c.tree_length) 1) in
  Table.add_row t
    (line "stabilization rounds" (fun c -> c.stabilization_rounds) 1)
