(* Extension experiment H1: hierarchical self-organization (paper future
   work). Builds the recursive head-overlay hierarchy and reports the head
   population per level for several deployment intensities — the shrinking
   factor per level is what makes hierarchical routing scale. *)

module Graph = Ss_topology.Graph
module Hierarchy = Ss_cluster.Hierarchy
module Table = Ss_stats.Table
module Summary = Ss_stats.Summary

type row = {
  intensity : float;
  nodes : Summary.t;
  per_level : Summary.t array; (* heads at each level, up to max_levels *)
  levels : Summary.t;
}

let max_levels = 5

let sweep ?(seed = 42) ?(runs = 10) ?(radius = 0.1)
    ?(intensities = [ 250.0; 500.0; 1000.0 ]) () =
  {
    Sweep.label = Printf.sprintf "lambda %.0f";
    cells = intensities;
    runs = (fun _ -> runs);
    seed = (fun _ -> seed);
    run =
      (fun intensity rng ->
        let world =
          Scenario.build rng (Scenario.poisson ~intensity ~radius ())
        in
        let h =
          Hierarchy.build ~max_levels rng world.Scenario.graph
            ~ids:world.Scenario.ids
        in
        ( Graph.node_count world.Scenario.graph,
          Hierarchy.level_count h,
          Hierarchy.heads_per_level h ));
    judge = Sweep.raised_only;
    fold =
      (fun intensity runs ->
        (* Columns: nodes, levels, then the heads at each level. *)
        let s =
          Sweep.summaries (2 + max_levels)
            (fun (nodes, levels, heads) add ->
              add 0 (float_of_int nodes);
              add 1 (float_of_int levels);
              List.iteri
                (fun i count ->
                  if i < max_levels then add (2 + i) (float_of_int count))
                heads)
            runs
        in
        {
          intensity;
          nodes = s.(0);
          per_level = Array.sub s 2 max_levels;
          levels = s.(1);
        });
  }

let to_table rows =
  let headers =
    [ "lambda"; "nodes" ]
    @ List.init max_levels (fun i -> Printf.sprintf "level %d" i)
    @ [ "levels" ]
  in
  let t =
    Table.create ~title:"Hierarchy — cluster-heads per level" ~header:headers ()
  in
  Table.add_rows t
    (List.map
       (fun r ->
         [
           Table.cell_float ~decimals:0 r.intensity;
           Table.cell_float ~decimals:0 (Summary.mean r.nodes);
         ]
         @ Array.to_list
             (Array.map
                (fun s ->
                  if Summary.count s = 0 then "-"
                  else Table.cell_float ~decimals:1 (Summary.mean s))
                r.per_level)
         @ [ Table.cell_float ~decimals:1 (Summary.mean r.levels) ])
       rows)
