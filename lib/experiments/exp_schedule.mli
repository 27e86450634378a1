(** Experiment T2 (Table 2): at which step each piece of knowledge becomes
    (and stays) correct in the message-level protocol, versus the paper's
    schedule: neighbors at step 1, density at step 2, father at step 3,
    cluster-head within tree-depth further steps. *)

type milestones = {
  neighbors : Ss_stats.Summary.t;
  density : Ss_stats.Summary.t;
  father : Ss_stats.Summary.t;
  head : Ss_stats.Summary.t;
}

type outcome
(** What one run reports: per piece of knowledge and node, the step from
    which it is correct, if it settles. *)

val sweep :
  ?seed:int ->
  ?runs:int ->
  ?spec:Scenario.spec ->
  unit ->
  (Scenario.spec, outcome, milestones) Sweep.t
(** One cell, the deployment. *)

val to_table : milestones list -> Ss_stats.Table.t
