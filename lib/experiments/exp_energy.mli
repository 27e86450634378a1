(** Extension experiment E1: network lifetime with and without the
    energy-aware election (paper future work). Expected shape: the
    energy-aware variant delays both the first death and network half-life
    by rotating head duty. *)

type row = {
  label : string;
  first_death : Ss_stats.Summary.t;
  half_dead : Ss_stats.Summary.t;
  head_changes : Ss_stats.Summary.t;
}

val sweep :
  ?seed:int ->
  ?runs:int ->
  ?spec:Scenario.spec ->
  unit ->
  (bool, Ss_cluster.Energy.lifetime, row) Sweep.t
(** Two cells: the energy-aware election ([true]), then the plain
    density election. *)

val to_table : row list -> Ss_stats.Table.t
