(* Experiment T3 (Table 3): mean number of steps to build the DAG of local
   names over a 1000-node grid and a Poisson(1000) deployment, for
   transmission ranges 0.05 .. 0.1, with the paper's gamma = delta^2. *)

module Graph = Ss_topology.Graph
module Dag_id = Ss_cluster.Dag_id
module Gamma = Ss_cluster.Gamma
module Table = Ss_stats.Table
module Summary = Ss_stats.Summary

let default_radii = [ 0.05; 0.06; 0.07; 0.08; 0.09; 0.1 ]

type row = { scenario : string; radius : float; steps : Summary.t }

let sweep ?(seed = 42) ?(runs = 30) ?(intensity = 1000.0)
    ?(radii = default_radii) () =
  let cells scenario spec_of =
    List.map (fun radius -> (scenario, radius, spec_of radius)) radii
  in
  {
    Sweep.label =
      (fun (scenario, radius, _) -> Printf.sprintf "%s/R=%.2f" scenario radius);
    cells =
      cells "grid" (fun radius -> Scenario.grid ~radius ())
      @ cells "random geometry" (fun radius ->
            Scenario.poisson ~intensity ~radius ());
    runs = (fun _ -> runs);
    seed = (fun _ -> seed);
    run =
      (fun (_, _, spec) rng ->
        let world = Scenario.build rng spec in
        (Dag_id.build_spec rng world.Scenario.graph ~ids:world.Scenario.ids
           ~gamma_spec:Gamma.delta_sq)
          .Dag_id.steps);
    judge = Sweep.raised_only;
    fold =
      (fun (scenario, radius, _) runs ->
        let s =
          Sweep.summaries 1 (fun steps add -> add 0 (float_of_int steps)) runs
        in
        { scenario; radius; steps = s.(0) });
  }

let to_table rows =
  let grid_rows, random_rows =
    List.partition (fun r -> String.equal r.scenario "grid") rows
  in
  let radii = List.map (fun r -> r.radius) grid_rows in
  let header =
    "R" :: List.map (fun r -> Table.cell_float ~decimals:2 r) radii
  in
  let t =
    Table.create ~title:"Table 3 — steps to build the DAG (gamma = delta^2)"
      ~header ()
  in
  let line label rows =
    label
    :: List.map (fun r -> Table.cell_float ~decimals:2 (Summary.mean r.steps)) rows
  in
  let t = Table.add_row t (line "Grid" grid_rows) in
  Table.add_row t (line "Random geometry" random_rows)
