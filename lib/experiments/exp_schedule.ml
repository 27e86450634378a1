(* Experiment T2 (Table 2): the knowledge schedule of the distributed
   protocol. The paper states that after step 1 a node knows its
   1-neighbors, after step 2 it can compute its density, after step 3 its
   father, and it learns its cluster-head within a number of extra steps
   bounded by the tree depth.

   We run the message-level protocol from a clean state over a perfect
   channel, snapshot every round, and record for each node the first round
   from which each piece of knowledge is correct and stays correct
   (compared against the omniscient oracle). *)

module Graph = Ss_topology.Graph
module Rng = Ss_prng.Rng
module Density = Ss_cluster.Density
module Config = Ss_cluster.Config
module Algorithm = Ss_cluster.Algorithm
module Assignment = Ss_cluster.Assignment
module Distributed = Ss_cluster.Distributed
module Table = Ss_stats.Table
module Summary = Ss_stats.Summary

type milestones = {
  neighbors : Summary.t; (* first round with the full 1-neighborhood *)
  density : Summary.t;
  father : Summary.t;
  head : Summary.t;
}

(* First index from which [ok] holds for every later snapshot; [None] when
   it never settles. Snapshot index i corresponds to round i+1. *)
let settles_at ok snapshots =
  let n = Array.length snapshots in
  let rec from i = if i >= n then true else ok snapshots.(i) && from (i + 1) in
  let rec search i = if i >= n then None else if from i then Some (i + 1) else search (i + 1) in
  search 0

(* Per piece of knowledge (neighbors, density, father, head) and node,
   the step from which it is correct. *)
type outcome = int option array array

let run_once ~spec rng : outcome =
  let world = Scenario.build rng spec in
  let graph = world.Scenario.graph in
  let n = Graph.node_count graph in
  (* The oracle: same ids (node indices), same basic configuration. *)
  let oracle =
    Algorithm.run rng Config.basic graph ~ids:(Array.init n Fun.id)
  in
  let oracle_assignment = oracle.Algorithm.assignment in
  let oracle_density = oracle.Algorithm.values in
  let module P = Distributed.Make (struct
    let params = Distributed.default_params
  end) in
  let module E = Ss_engine.Engine.Make (P) in
  let states = E.init_states rng graph in
  let snapshots = ref [] in
  (* [run] copies [~states] at entry (warm-start runs never mutate the
     caller's array), so per-round observation goes through [probe]. *)
  let (_ : E.run) =
    E.run ~states
      ~probe:(fun ~round:_ ~graph:_ ~alive:_ sts ->
        snapshots := Array.copy sts :: !snapshots)
      rng graph
  in
  let snapshots = Array.of_list (List.rev !snapshots) in
  let per_node check =
    Array.init n (fun p -> settles_at (fun snap -> check p snap.(p)) snapshots)
  in
  let neighbors_ok p (st : Distributed.state) =
    let known = List.map fst st.Distributed.cache in
    known = Array.to_list (Graph.neighbors graph p)
  in
  let density_ok p (st : Distributed.state) =
    match st.Distributed.density with
    | Some d -> Density.equal d oracle_density.(p)
    | None -> false
  in
  let father_ok p (st : Distributed.state) =
    st.Distributed.parent = Some (Assignment.parent oracle_assignment p)
  in
  let head_ok p (st : Distributed.state) =
    st.Distributed.head = Some (Assignment.head oracle_assignment p)
  in
  [|
    per_node neighbors_ok;
    per_node density_ok;
    per_node father_ok;
    per_node head_ok;
  |]

let sweep ?(seed = 42) ?(runs = 10)
    ?(spec = Scenario.poisson ~intensity:300.0 ~radius:0.1 ()) () =
  {
    Sweep.label = Fmt.str "%a" Scenario.pp;
    cells = [ spec ];
    runs = (fun _ -> runs);
    seed = (fun _ -> seed);
    run = (fun spec -> run_once ~spec);
    judge = Sweep.raised_only;
    fold =
      (fun _ runs ->
        let s =
          Sweep.summaries 4
            (fun o add ->
              Array.iteri
                (fun c rounds ->
                  Array.iter
                    (Option.iter (fun r -> add c (float_of_int r)))
                    rounds)
                o)
            runs
        in
        { neighbors = s.(0); density = s.(1); father = s.(2); head = s.(3) });
  }

let to_table rows =
  let t =
    Table.create ~title:"Table 2 — knowledge schedule (steps until correct)"
      ~header:[ "knowledge"; "mean step"; "max step" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right ]
      ()
  in
  let row label s =
    [
      label;
      Table.cell_float ~decimals:2 (Summary.mean s);
      Table.cell_float ~decimals:0 (Summary.maximum s);
    ]
  in
  Table.add_rows t
    (List.concat_map
       (fun m ->
         [
           row "1-neighbors" m.neighbors;
           row "density" m.density;
           row "father" m.father;
           row "cluster-head" m.head;
         ])
       rows)
