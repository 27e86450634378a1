(* Extension experiments M2 and M3: stabilization as a function of
   mobility and of link failures. The paper's conclusion asks for "sharp
   bounds on the stabilization as a function of the mobility, e.g., speed
   of the nodes", and names the "frequency of links failure" next to it.

   A run re-clusters the network once per epoch, warm-started from the
   previous epoch's heads. Between epochs either the nodes move (a
   random-walk fleet at a given maximum speed) or they stay put and every
   radio link independently fades with probability f (a fresh draw per
   epoch, modelling shadowing and interference rather than motion). Per
   epoch we measure:
     - the synchronous rounds the algorithm needs to re-stabilize (the
       incremental stabilization cost of that much change), and
     - head retention and membership stability (how much of the structure
       the change destroyed). *)

module Graph = Ss_topology.Graph
module Rng = Ss_prng.Rng
module Config = Ss_cluster.Config
module Algorithm = Ss_cluster.Algorithm
module Assignment = Ss_cluster.Assignment
module Metrics = Ss_cluster.Metrics
module Model = Ss_mobility.Model
module Fleet = Ss_mobility.Fleet
module Table = Ss_stats.Table
module Summary = Ss_stats.Summary

type cell = Speed of float | Fade of float

type row = {
  cell : cell;
  rounds : Summary.t;
  retention : Summary.t;
  membership : Summary.t;
}

(* The stable topology with each link independently removed with
   probability [rate]. *)
let faded rng graph ~rate =
  let n = Graph.node_count graph in
  let edges = ref [] in
  Graph.iter_edges graph (fun p q ->
      if not (Rng.bernoulli rng rate) then edges := (p, q) :: !edges);
  let positions = Graph.positions graph in
  Graph.of_edges ?positions ~n !edges

let speed_cells =
  List.map (fun s -> Speed s) [ 0.0; 0.5; 1.6; 4.0; 10.0; 20.0 ]

let fade_cells = List.map (fun f -> Fade f) [ 0.0; 0.01; 0.05; 0.1; 0.2; 0.4 ]

type outcome = (int * float option * float option) list

(* The deployment of a run: its ids, its first topology and the step to
   the next epoch's topology. *)
let deploy rng ~count ~spec = function
  | Speed speed_mps ->
      let model =
        Model.random_walk ~speed_min:0.0
          ~speed_max:(Model.meters_per_second speed_mps)
          ()
      in
      let positions =
        Ss_geom.Point_process.uniform rng ~count ~box:Ss_geom.Bbox.unit_square
      in
      let fleet =
        Fleet.create rng ~model ~box:Ss_geom.Bbox.unit_square positions
      in
      let ids = Rng.permutation rng count in
      let graph () = Graph.unit_disk ~radius:0.1 (Fleet.positions fleet) in
      ( ids,
        graph (),
        fun () ->
          Fleet.step fleet 2.0;
          graph () )
  | Fade rate ->
      let world = Scenario.build rng spec in
      let base = world.Scenario.graph in
      (world.Scenario.ids, base, fun () -> faded rng base ~rate)

let run_once ~count ~spec ~epochs cell rng : outcome =
  let ids, first, next = deploy rng ~count ~spec cell in
  let cluster graph init_heads =
    Algorithm.run ?init_heads rng Config.basic graph ~ids
  in
  let observations = ref [] in
  let previous = ref (cluster first None) in
  for _ = 1 to epochs do
    let graph = next () in
    let prev = (!previous).Algorithm.assignment in
    let init_heads =
      Array.init (Array.length ids) (fun p -> Assignment.head prev p)
    in
    let outcome = cluster graph (Some init_heads) in
    let after = outcome.Algorithm.assignment in
    observations :=
      ( outcome.Algorithm.rounds,
        Metrics.head_retention ~before:prev ~after,
        Metrics.membership_stability ~before:prev ~after )
      :: !observations;
    previous := outcome
  done;
  List.rev !observations

let label = function
  | Speed s -> Printf.sprintf "%.1f m/s" s
  | Fade f -> Printf.sprintf "%.0f%% link failures" (100.0 *. f)

let sweep ?(seed = 42) ?(runs = 3) ?(count = 300)
    ?(spec = Scenario.poisson ~intensity:300.0 ~radius:0.1 ()) ~epochs cells
    =
  {
    Sweep.label;
    cells;
    runs = (fun _ -> runs);
    seed = (fun _ -> seed);
    run = run_once ~count ~spec ~epochs;
    judge = Sweep.raised_only;
    fold =
      (fun cell runs ->
        let s =
          Sweep.summaries 3
            (fun epochs add ->
              List.iter
                (fun (rounds, retention, membership) ->
                  add 0 (float_of_int rounds);
                  Option.iter (add 1) retention;
                  Option.iter (add 2) membership)
                epochs)
            runs
        in
        { cell; rounds = s.(0); retention = s.(1); membership = s.(2) });
  }

let to_table rows =
  let title, axis =
    match rows with
    | { cell = Speed _; _ } :: _ ->
        ( "Stabilization vs mobility (per 2 s epoch, warm start)",
          "max speed (m/s)" )
    | _ -> ("Stabilization vs link-failure rate (per epoch)", "link failure rate")
  in
  let t =
    Table.create ~title
      ~header:
        [ axis; "re-stabilization rounds"; "head retention"; "same-head nodes" ]
      ()
  in
  Table.add_rows t
    (List.map
       (fun r ->
         [
           (match r.cell with
           | Speed s -> Table.cell_float ~decimals:1 s
           | Fade f -> Printf.sprintf "%.0f%%" (100.0 *. f));
           Table.cell_float ~decimals:2 (Summary.mean r.rounds);
           Printf.sprintf "%.1f%%" (100.0 *. Summary.mean r.retention);
           Printf.sprintf "%.1f%%" (100.0 *. Summary.mean r.membership);
         ])
       rows)
