(* Experiment A2 (ablation): head stability of the density metric against
   the classic baselines — degree, lowest-id and max-min d-cluster — under
   mobility. Reproduces the claim the paper imports from [16]: density is
   the most stable head-election metric.

   Also reports the static cluster counts per metric, for context. *)

module Graph = Ss_topology.Graph
module Rng = Ss_prng.Rng
module Config = Ss_cluster.Config
module Metric = Ss_cluster.Metric
module Algorithm = Ss_cluster.Algorithm
module Assignment = Ss_cluster.Assignment
module Maxmin = Ss_cluster.Maxmin
module Metrics = Ss_cluster.Metrics
module Model = Ss_mobility.Model
module Fleet = Ss_mobility.Fleet
module Table = Ss_stats.Table
module Summary = Ss_stats.Summary

type algorithm =
  | Heuristic of Metric.t (* the generic max-neighbor heuristic *)
  | Maxmin_d of int

let label = function
  | Heuristic m -> Metric.to_string m
  | Maxmin_d d -> Printf.sprintf "max-min (d=%d)" d

let default_algorithms =
  [
    Heuristic Metric.Density;
    Heuristic Metric.Degree;
    Heuristic Metric.Uniform;
    Maxmin_d 2;
  ]

let cluster_with rng algorithm graph ~ids =
  match algorithm with
  | Heuristic metric ->
      let config = Config.make ~metric () in
      Algorithm.cluster ~scheduler:Algorithm.Sequential rng config graph ~ids
  | Maxmin_d d -> Maxmin.cluster graph ~ids ~d

type result = {
  algorithm : string;
  retention : Summary.t;
  clusters : Summary.t;
}

(* Seconds of motion between two snapshots. *)
let epoch = 2.0

let run_once rng ~count ~radius ~model ~epochs algorithm =
  let positions =
    Ss_geom.Point_process.uniform rng ~count ~box:Ss_geom.Bbox.unit_square
  in
  let fleet = Fleet.create rng ~model ~box:Ss_geom.Bbox.unit_square positions in
  let ids = Rng.permutation rng count in
  let retention = Summary.create () in
  let clusters = Summary.create () in
  let snapshot () =
    let graph = Graph.unit_disk ~radius (Fleet.positions fleet) in
    cluster_with rng algorithm graph ~ids
  in
  let previous = ref (snapshot ()) in
  for _ = 1 to epochs do
    Fleet.step fleet epoch;
    let current = snapshot () in
    (match Metrics.head_retention ~before:!previous ~after:current with
    | Some r -> Summary.add retention r
    | None -> ());
    Summary.add_int clusters (Assignment.cluster_count current);
    previous := current
  done;
  (retention, clusters)

(* The per-run summaries merge in run order. *)
let sweep ?(seed = 42) ?(runs = 5) ?(count = 400) ?(radius = 0.1)
    ?(model = Model.pedestrian) ?(epochs = 60)
    ?(algorithms = default_algorithms) () =
  {
    Sweep.label;
    cells = algorithms;
    runs = (fun _ -> runs);
    seed = (fun _ -> seed);
    run =
      (fun algorithm rng ->
        run_once rng ~count ~radius ~model ~epochs algorithm);
    judge = Sweep.raised_only;
    fold =
      (fun algorithm runs ->
        let merged pick =
          List.fold_left
            (fun acc o -> Summary.merge acc (pick o))
            (Summary.create ()) (Sweep.completed runs)
        in
        {
          algorithm = label algorithm;
          retention = merged fst;
          clusters = merged snd;
        });
  }

let to_table rows =
  let t =
    Table.create ~title:"Metric comparison — head retention under mobility"
      ~header:[ "algorithm"; "head retention"; "mean # clusters" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right ]
      ()
  in
  Table.add_rows t
    (List.map
       (fun r ->
         [
           r.algorithm;
           Printf.sprintf "%.1f%%" (100.0 *. Summary.mean r.retention);
           Table.cell_float ~decimals:1 (Summary.mean r.clusters);
         ])
       rows)
