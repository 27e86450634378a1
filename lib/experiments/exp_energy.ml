(* Extension experiment E1: energy-constrained organization (the paper's
   conclusion names energy awareness as future work). Compares network
   lifetime under the plain density election versus the energy-aware
   election of Cluster.Energy: epochs until the first death and until half
   the network is dead, plus how often the head set rotates. *)

module Graph = Ss_topology.Graph
module Rng = Ss_prng.Rng
module Energy = Ss_cluster.Energy
module Table = Ss_stats.Table
module Summary = Ss_stats.Summary

type row = {
  label : string;
  first_death : Summary.t;
  half_dead : Summary.t;
  head_changes : Summary.t;
}

let sweep ?(seed = 42) ?(runs = 5)
    ?(spec = Scenario.poisson ~intensity:200.0 ~radius:0.12 ()) () =
  let label energy_aware =
    if energy_aware then "energy-aware election" else "plain density election"
  in
  {
    Sweep.label;
    cells = [ true; false ];
    runs = (fun _ -> runs);
    seed = (fun _ -> seed);
    run =
      (fun energy_aware rng ->
        let world = Scenario.build rng spec in
        Energy.simulate_lifetime ~energy_aware rng world.Scenario.graph
          ~ids:world.Scenario.ids);
    judge = Sweep.raised_only;
    fold =
      (fun energy_aware runs ->
        let s =
          Sweep.summaries 3
            (fun l add ->
              add 0 (float_of_int l.Energy.epochs_to_first_death);
              add 1 (float_of_int l.Energy.epochs_to_half_dead);
              add 2 (float_of_int l.Energy.total_head_changes))
            runs
        in
        {
          label = label energy_aware;
          first_death = s.(0);
          half_dead = s.(1);
          head_changes = s.(2);
        });
  }

let to_table rows =
  let t =
    Table.create ~title:"Energy — network lifetime in duty epochs"
      ~header:
        [ "election"; "first death"; "half the network dead"; "head rotations" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
      ()
  in
  Table.add_rows t
    (List.map
       (fun r ->
         [
           r.label;
           Table.cell_float ~decimals:1 (Summary.mean r.first_death);
           Table.cell_float ~decimals:1 (Summary.mean r.half_dead);
           Table.cell_float ~decimals:1 (Summary.mean r.head_changes);
         ])
       rows)
