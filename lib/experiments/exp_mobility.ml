(* Experiment M1 (Section 5 prose): cluster-head stability under mobility.

   Nodes are deployed at random, move under a random-walk model for a fixed
   horizon, and the clustering is recomputed every 2 seconds. We measure the
   percentage of cluster-heads that remain cluster-heads from one epoch to
   the next, with the plain algorithm and with the Section 4.3 stability
   refinements (incumbent tie-break + fusion). The paper reports about
   82% vs 78% for pedestrian speeds and 31% vs 25% for vehicular speeds.

   The sequential (central-daemon) schedule is used so that the fusion rule
   cannot enter the lockstep oscillation discussed in DESIGN.md; both
   variants run under the same schedule for fairness. *)

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

(* Re-clustering every 2 s, at radius 0.1. *)
let radius = 0.1
let epoch = 2.0

(* One mobility run: returns the retention summary across epochs. *)
let run_once rng ~count ~epochs ~model ~config =
  let positions =
    Ss_geom.Point_process.uniform rng ~count ~box:Ss_geom.Bbox.unit_square
  in
  let fleet = Fleet.create rng ~model ~box:Ss_geom.Bbox.unit_square positions in
  let ids = Rng.permutation rng count in
  let retention = Summary.create () in
  let cluster_positions init_heads =
    let graph = Graph.unit_disk ~radius (Fleet.positions fleet) in
    Algorithm.run ~scheduler:Algorithm.Sequential ?init_heads rng config graph
      ~ids
  in
  let previous = ref (cluster_positions None) in
  for _ = 1 to epochs do
    Fleet.step fleet epoch;
    let prev_assignment = (!previous).Algorithm.assignment in
    let init_heads =
      Array.init count (fun p -> Assignment.head prev_assignment p)
    in
    let outcome = cluster_positions (Some init_heads) in
    (match
       Metrics.head_retention ~before:prev_assignment
         ~after:outcome.Algorithm.assignment
     with
    | Some r -> Summary.add retention r
    | None -> ());
    previous := outcome
  done;
  retention

type regime = { label : string; model : Model.t }

let pedestrian = { label = "pedestrian (0-1.6 m/s)"; model = Model.pedestrian }
let vehicular = { label = "vehicular (0-10 m/s)"; model = Model.vehicular }

type result = {
  regime : string;
  improved : Summary.t; (* Section 4.3 rules on *)
  basic : Summary.t;
}

type outcome = Summary.t * Summary.t

(* Both rule sets run on the same stream (the second on a copy), so they
   see the same deployment and trajectory. The per-run summaries merge in
   run order. *)
let sweep ?(seed = 42) ?(runs = 5) ?(count = 500) ?(horizon = 180.0)
    ?(regimes = [ pedestrian; vehicular ]) () =
  let epochs = int_of_float (horizon /. epoch) in
  {
    Sweep.label = (fun r -> r.label);
    cells = regimes;
    runs = (fun _ -> runs);
    seed = (fun _ -> seed);
    run =
      (fun { model; _ } rng ->
        let twin = Rng.copy rng in
        let measure config rng =
          run_once rng ~count ~epochs ~model ~config
        in
        (measure Config.improved rng, measure Config.basic twin));
    judge = Sweep.raised_only;
    fold =
      (fun { label; _ } runs ->
        let merged pick =
          List.fold_left
            (fun acc o -> Summary.merge acc (pick (o : outcome)))
            (Summary.create ()) (Sweep.completed runs)
        in
        { regime = label; improved = merged fst; basic = merged snd });
  }

let to_table rows =
  let t =
    Table.create ~title:"Mobility — cluster-head retention per 2 s epoch"
      ~header:[ "regime"; "improved rules"; "basic rules" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right ]
      ()
  in
  Table.add_rows t
    (List.map
       (fun r ->
         [
           r.regime;
           Printf.sprintf "%.1f%%" (100.0 *. Summary.mean r.improved);
           Printf.sprintf "%.1f%%" (100.0 *. Summary.mean r.basic);
         ])
       rows)
