(** The figure the paper never drew: stabilization-round {e distributions}
    across scale, density, identifier adversary and channel loss.

    The paper's central theorem says expected stabilization time is
    constant in n thanks to the constant-height name DAG. This experiment
    measures it: grid deployments from 1k to 1M nodes (flat executor) at
    two densities, electing with DAG names versus with adversarially
    placed flat identifiers (BFS order from a random root — the winning
    belief must then cross the deployment hop by hop), under perfect and
    lossy channels. Every cell runs replicates on the deterministic domain
    pool and reports the stabilization distribution with 95%
    percentile-bootstrap CIs on mean and median; runs that hit the round
    cap enter the distribution as right-censored observations
    ({!Ss_stats.Estimate}). Lossy cells additionally warm-start the
    stabilized run and tally post-stabilization violations over a fixed
    horizon — the probabilistic-stabilization regime — reporting the
    violation rate and the time-between-violation distribution (tail gap
    censored). Per-curve verdicts classify each (density, naming, loss)
    series as flat or growing in n via CI overlap, stochastic dominance
    and a two-sample KS test.

    The experiment is a {!Sweep} that flags raising runs only. Results
    are bit-identical at any domain count: cell [k]'s replicates draw the
    positional sub-streams of [seed + 7919 (k + 1)] and every bootstrap is
    keyed by (seed, cell index, statistic) — see DESIGN §14. *)

module Estimate = Ss_stats.Estimate

type naming =
  | Dag  (** elect on constant-height DAG names (the paper's mechanism) *)
  | Adversarial
      (** no DAG: elect on flat ids placed in BFS order from a random
          root ({!Ss_cluster.Adversarial.bfs_ids}) *)

type cell = {
  c_side : int;  (** grid side; nodes = side² *)
  c_k : float;  (** radius as a multiple of grid spacing (density knob) *)
  c_tau : float;  (** per-frame delivery probability; 1.0 = perfect *)
  c_naming : naming;
  c_runs : int;
  c_cap : int;  (** round cap; a run still changing at the cap is censored *)
}

type row = {
  cell : cell;
  nodes : int;
  degree : float;  (** measured mean degree *)
  stab : Estimate.t;  (** stabilization rounds; censored at the cap *)
  mean_ci : Estimate.ci;
  median_ci : Estimate.ci;
  p95_lb : float;  (** 95th-percentile lower bound (nearest rank) *)
  viol_per_100 : float;
      (** post-stabilization violation rounds per 100 rounds under loss;
          [nan] when the channel is perfect or nothing stabilized *)
  gaps : Estimate.t;
      (** time between violations over the fixed horizon; the wait after
          the last violation is censored. Empty unless measured. *)
  seconds : float;  (** informational; excluded from tables/CSV *)
}

type trend = Flat | Growing | Mixed

type verdict = {
  v_k : float;
  v_naming : naming;
  v_tau : float;
  v_sides : int list;
  v_trend : trend;
      (** [Flat]: every size's mean CI overlaps the smallest size's, or
          sits within one quiet window (the protocol's own time constant,
          {!Ss_cluster.Distributed.default_params}[.cache_ttl + 2] rounds)
          of it — near-deterministic replicates make the CIs razor-thin,
          and a sub-constant offset is not scale growth; [Growing]: means
          strictly increase and the largest size's CI lies wholly above
          the smallest's; [Mixed] otherwise *)
  v_sup : float;  (** P(largest-size draw > smallest-size draw), ties half *)
  v_ks_p : float;  (** two-sample KS p-value, largest vs smallest size *)
}

val violation_horizon : int
(** Rounds of the warm-started violation phase (400). *)

val smoke_cells : cell list
(** Sides 12 and 24 at both densities and namings plus one lossy cell;
    seconds of runtime, used by [repro stabilization --smoke] and CI. *)

val default_cells : cell list
(** The full sweep: sides {32, 100, 316, 1000} (≈1k..1M nodes) × density
    × naming on the perfect channel, plus lossy cells at the small sides.
    The 1M-node cap is set between the 100k-node worst case and the
    1M-node best case, so adversarial cells censor there by design. *)

type outcome = {
  obs : Estimate.obs;  (** stabilization rounds; censored at the cap *)
  degree : float;  (** measured mean degree of the cell's grid *)
  horizon : int;  (** rounds of the violation phase; 0 when skipped *)
  viols : int;  (** violating rounds in that phase *)
  gap_obs : Estimate.obs list;  (** times between violations *)
  seconds : float;  (** processor time of the replicate, informational *)
}
(** What one replicate reports. *)

val sweep :
  ?seed:int -> ?cells:cell list -> unit -> (cell, outcome, row) Sweep.t
(** Rows in cell order. [cells] defaults to {!default_cells}. A cell's
    grid is built once and shared by its replicates; the row's [degree]
    is nan when every replicate raised. *)

val verdicts : row list -> verdict list
(** One verdict per (density, naming, loss) series with ≥ 2 sizes,
    ordered by density, then naming, then loss. *)

val dag_flat : verdict list -> bool
(** The paper's claim on this data: every with-DAG series is [Flat]. *)

val to_table : row list -> Ss_stats.Table.t
val verdicts_table : verdict list -> Ss_stats.Table.t
