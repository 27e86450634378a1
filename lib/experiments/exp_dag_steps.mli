(** Experiment T3 (Table 3): steps needed by algorithm N1 to build the DAG
    of locally-unique names, on the paper's grid and random deployments. *)

type row = {
  scenario : string;
  radius : float;
  steps : Ss_stats.Summary.t;
}

val default_radii : float list
(** The paper's sweep: 0.05 to 0.1. *)

val sweep :
  ?seed:int ->
  ?runs:int ->
  ?intensity:float ->
  ?radii:float list ->
  unit ->
  (string * float * Scenario.spec, int, row) Sweep.t
(** Cells (scenario, radius, deployment): the grid at every radius, then
    the random geometry at every radius. A run reports the steps N1
    takes. *)

val to_table : row list -> Ss_stats.Table.t
(** The grid rows and the random-geometry rows, one line each. *)
