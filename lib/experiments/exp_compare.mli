(** Experiment A2 (ablation): head stability under mobility of the density
    metric versus degree, lowest-id and max-min d-cluster. *)

type algorithm =
  | Heuristic of Ss_cluster.Metric.t
  | Maxmin_d of int

type result = {
  algorithm : string;
  retention : Ss_stats.Summary.t;
  clusters : Ss_stats.Summary.t;
}

val sweep :
  ?seed:int ->
  ?runs:int ->
  ?count:int ->
  ?radius:float ->
  ?model:Ss_mobility.Model.t ->
  ?epochs:int ->
  ?algorithms:algorithm list ->
  unit ->
  (algorithm, Ss_stats.Summary.t * Ss_stats.Summary.t, result) Sweep.t
(** One cell per algorithm; a run reports its per-epoch head retention
    and cluster counts. *)

val to_table : result list -> Ss_stats.Table.t
