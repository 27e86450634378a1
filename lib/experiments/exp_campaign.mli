(** Robustness experiment C2: adversarial fault-campaign sweep.

    A deterministic grid sweep over (corruption fraction × channel ×
    crash churn × scheduler × Byzantine adversary): each cell runs the
    distributed stack through {!Ss_cluster.Invariants.monitor}, so every
    run reports its violation dwell per fault burst and — when it exhausts
    the round budget — a divergence classification (oscillating vs still
    changing) instead of a bare [converged = false].

    The campaign is a {!Sweep}: a run that raises is recorded as a failed
    run inside its row, never a crashed campaign, and every anomalous run
    (raising, non-converging, or violating safety after recovery) carries
    a replay pointer ({!Sweep.replay}). *)

type cell = {
  c_fraction : float;  (** fraction of nodes corrupted at the burst round *)
  c_channel : Ss_radio.Channel.t;
  c_crash : float;
      (** per-round crash probability over a 15-round churn window after
          the burst (crashed nodes trickle back; all rejoin at the end);
          0 disables churn *)
  c_scheduler : Ss_engine.Scheduler.t;
  c_byz : (int * Ss_engine.Adversary.behavior) option;
      (** permanent Byzantine adversary: [Some (count, behavior)] turns
          [count] random nodes Byzantine from the burst round on, forging
          with {!Ss_cluster.Distributed.forge}; [None] keeps the cell
          transient-only *)
}

val cell_label : cell -> string list
(** The five grid coordinates, rendered (fraction, channel, crash, sched,
    byz). *)

type grid = {
  g_fractions : float list;
  g_channels : Ss_radio.Channel.t list;
  g_crash : float list;
  g_schedulers : Ss_engine.Scheduler.t list;
  g_byz : (int * Ss_engine.Adversary.behavior) option list;
}

val default_bursty : Ss_radio.Channel.t
(** The grid's Gilbert–Elliott channel: mostly-clean links with ~4-round
    deep fades a few times per hundred rounds. *)

val default_grid : grid
val smoke_grid : grid

val cells : grid -> cell list
(** Cartesian product in a fixed order (fraction-major, Byzantine-minor). *)

type row = {
  cell : cell;
  runs : int;
  converged : int;
  oscillating : int;  (** budget-exhausted runs with a periodic digest tail *)
  still_changing : int;  (** budget-exhausted runs without one *)
  failed : int;  (** runs that raised *)
  dwell : Ss_stats.Summary.t;
      (** closed-burst violation dwell (rounds illegitimate after a
          disturbance), pooled over the cell's runs *)
  max_dwell : int;  (** worst closed-burst dwell; 0 when none closed *)
  unrecovered : int;  (** bursts still violating when their run ended *)
  post_violations : int;
      (** violating rounds after recovery, totalled — 0 for a
          self-stabilizing protocol *)
  peak_ghosts : int;  (** worst single-round ghost-reference count *)
  worst_radius : int;
      (** Byzantine cells: worst violation radius over the cell's runs
          (largest hop distance from a violating node to the Byzantine
          set, once the adversary is live); 0 elsewhere *)
  uncontained : int;
      (** Byzantine cells: runs whose clean region was still violating
          when the run ended *)
  bad : (int * string) list;
      (** replay pointers: anomalous run index with the reason (exception
          text, classification, or closure failure; for Byzantine cells
          only raising or uncontained runs are anomalous — a permanent
          adversary is {e supposed} to keep its neighborhood dirty, so
          convergence and burst-closure verdicts don't apply) *)
}

val default_spec : Scenario.spec
val default_burst_round : int

val default_horizon : int
(** Clean-region horizon (2): a lying frame poisons its receivers and,
    via the relayed 2-hop summaries, their neighbors — so strict
    stabilization is asserted at distance > 2 from the Byzantine set. *)

type outcome = {
  converged : bool;
  classification : Ss_engine.Monitor.classification;
  dwells : int list;  (** closed-burst violation dwells *)
  burst_unrecovered : int;  (** bursts still violating at the end *)
  post : int;  (** violating rounds after recovery *)
  ghost_peak : int;  (** worst single-round ghost-reference count *)
  containment : Ss_engine.Monitor.containment option;
}
(** What one run reports. *)

val run_one :
  spec:Scenario.spec ->
  max_rounds:int ->
  burst_round:int ->
  horizon:int ->
  cell ->
  Ss_prng.Rng.t ->
  outcome
(** One run of a cell, on the sparse executor. A Byzantine cell wraps the
    protocol in {!Ss_engine.Adversary.Wrap}, switches the adversary on at
    [burst_round] and watches the clean region beyond [horizon] hops;
    {!Exp_adversary} runs its cells through this too. *)

val judge : cell -> outcome -> string option
(** [Some reason] iff the run is anomalous. For Byzantine cells only an
    uncontained run is; elsewhere non-convergence (with its
    classification), an unrecovered burst or post-recovery violations. *)

val sweep :
  ?seed:int ->
  ?runs:int ->
  ?spec:Scenario.spec ->
  ?grid:grid ->
  ?max_rounds:int ->
  ?burst_round:int ->
  ?horizon:int ->
  unit ->
  (cell, outcome, row) Sweep.t
(** One row per {!cells} of [grid]; every cell's run [i] draws stream [i]
    of [seed]. *)

val to_table : ?replay_prefix:string -> row list -> Ss_stats.Table.t
(** The worst-case table: per cell, convergence/classification counts, max
    violation dwell, post-recovery violations, and replay pointers for
    every anomalous run. With [replay_prefix] (e.g. ["repro campaign
    --seed 42 --smoke"]) each anomaly renders as a complete copy-pasteable
    command: [<prefix> --cell K --run I (reason)]. Rows must be in sweep
    order (the cell index is positional). *)

val verdict : row list -> string list
(** The summary lines: worst dwell across the grid and anomalous cell
    count; for grids with Byzantine cells, the worst-case containment
    radius and uncontained-run count. *)
