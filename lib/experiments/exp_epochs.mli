(** Extension experiments M2 and M3: warm-start re-clustering per epoch,
    as a function of node speed (M2) or of the per-epoch link-failure
    probability (M3) — the "speed of the nodes" and "frequency of links
    failure" axes of the paper's future work. Expected shape: head
    retention and membership stability fall with speed or failure rate,
    while the rounds to re-stabilize from the previous epoch's heads stay
    near-constant; only the amount of churn grows. *)

type cell =
  | Speed of float
      (** a random-walk fleet of at most this speed (m/s), stepped one
          epoch between re-clusterings *)
  | Fade of float
      (** a static deployment whose links each fail with this
          probability, drawn afresh every epoch *)

type row = {
  cell : cell;
  rounds : Ss_stats.Summary.t;  (** re-stabilization rounds per epoch *)
  retention : Ss_stats.Summary.t;
  membership : Ss_stats.Summary.t;
}

val faded :
  Ss_prng.Rng.t -> Ss_topology.Graph.t -> rate:float -> Ss_topology.Graph.t
(** The topology with each link independently removed with the given
    probability. *)

val speed_cells : cell list
(** [Speed] at 0, 0.5, 1.6, 4, 10 and 20 m/s. *)

val fade_cells : cell list
(** [Fade] at 0, 1, 5, 10, 20 and 40 %. *)

type outcome
(** What one run reports: per epoch, the rounds, retention and
    membership stability. *)

val sweep :
  ?seed:int ->
  ?runs:int ->
  ?count:int ->
  ?spec:Scenario.spec ->
  epochs:int ->
  cell list ->
  (cell, outcome, row) Sweep.t
(** [epochs] re-clusterings per run (3 runs by default). A [Speed] run
    deploys [count] uniform nodes (300) at radius 0.1 and moves them 2 s
    per epoch; a [Fade] run deploys [spec] (Poisson 300 at 0.1). *)

val to_table : row list -> Ss_stats.Table.t
(** The speed table when the first row is a [Speed] cell, the
    link-failure table otherwise. *)
