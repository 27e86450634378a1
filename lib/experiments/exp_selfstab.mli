(** Experiment S1: measured self-stabilization — recovery rounds after
    transient state corruption, and stabilization under frame loss.
    Quantifies the Section 4 claims the paper proves but does not measure. *)

type cell =
  | Recovery of float
      (** converge, corrupt this fraction of the nodes, re-converge *)
  | Loss of float
      (** stabilize from scratch over a channel of this delivery
          probability *)

type row = {
  cell : cell;
  rounds : Ss_stats.Summary.t;
      (** recovery rounds of every run; for [Loss], the stabilization
          rounds of the runs that converged *)
  ok : int;
      (** [Recovery]: runs whose post-fault fixpoint equalled the pre-fault
          clustering; [Loss]: runs that converged *)
  runs : int;
}

val sweep :
  ?seed:int ->
  ?runs:int ->
  ?spec:Scenario.spec ->
  ?fractions:float list ->
  ?taus:float list ->
  unit ->
  (cell, bool * int, row) Sweep.t
(** The recovery cells (one per fraction), then the loss cells (one per
    tau). A run reports the [ok] flag and the round the output last
    changed. *)

val recovery_table : row list -> Ss_stats.Table.t
(** The [Recovery] rows. *)

val loss_table : row list -> Ss_stats.Table.t
(** The [Loss] rows. *)
