(** Experiment M1 (Section 5 mobility): cluster-head retention per epoch
    under random mobility, improved (Section 4.3) rules versus basic rules.
    The paper's shape: retention falls with speed; improved > basic. *)

type regime = { label : string; model : Ss_mobility.Model.t }

val pedestrian : regime
val vehicular : regime

type result = {
  regime : string;
  improved : Ss_stats.Summary.t;
  basic : Ss_stats.Summary.t;
}

type outcome
(** What one run reports: the per-epoch retention with improved and with
    basic rules. *)

val sweep :
  ?seed:int ->
  ?runs:int ->
  ?count:int ->
  ?horizon:float ->
  ?regimes:regime list ->
  unit ->
  (regime, outcome, result) Sweep.t
(** One cell per regime: [count] nodes (default 500) at radius 0.1,
    re-clustered every 2 s for [horizon] seconds (180). Both rule sets
    replay the same deployment and trajectory. *)

val to_table : result list -> Ss_stats.Table.t
