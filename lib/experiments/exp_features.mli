(** Experiments T4/T5 (Tables 4 and 5): cluster features with and without
    the DAG of local names, on random geometric graphs and on the
    adversarial grid. *)

type cell = {
  clusters : Ss_stats.Summary.t;
  eccentricity : Ss_stats.Summary.t;
  tree_length : Ss_stats.Summary.t;
  stabilization_rounds : Ss_stats.Summary.t;
}

type row = { radius : float; with_dag : cell; without_dag : cell }

val default_radii : float list
(** The paper's columns: 0.05, 0.08, 0.1. *)

type outcome
(** What one run reports: the four features with and without the DAG. *)

val random_sweep :
  ?seed:int ->
  ?runs:int ->
  ?intensity:float ->
  ?radii:float list ->
  unit ->
  (float, outcome, row) Sweep.t
(** Table 4: one cell per radius on a Poisson deployment. Both
    configurations cluster the same deployment of a run. *)

val grid_sweep :
  ?seed:int -> ?runs:int -> ?radii:float list -> unit ->
  (float, outcome, row) Sweep.t
(** Table 5: one cell per radius on the paper's row-major grid. *)

val random_title : string
val grid_title : string

val to_table : title:string -> row list -> Ss_stats.Table.t
