(** Robustness experiment C3: Byzantine containment sweep.

    A deterministic sweep over (behavior × Byzantine count × channel) on a
    fixed deployment class, with the adversary switching on at
    [from_round] and the {!Ss_engine.Monitor} containment metrics
    watching the clean region — every node more than [horizon] hops from
    any Byzantine node. Global convergence is {e not} the bar (a
    permanent adversary may keep its neighborhood dirty forever); the
    strict-stabilization bar is that violations stay within a bounded
    radius of the Byzantine set and the clean region ends the run
    legitimate. See [repro adversary].

    Each cell is an {!Exp_campaign.cell} with no corruption, no churn and
    the synchronous daemon, so each run is the campaign's Byzantine-cell
    run ({!Exp_campaign.run_one}), judged by {!Exp_campaign.judge}. *)

type row = {
  behavior : Ss_engine.Adversary.behavior;
  channel : Ss_radio.Channel.t;
  count : int;  (** Byzantine nodes per run *)
  runs : int;
  contained : int;  (** runs whose clean region ended legitimate *)
  worst_radius : int;
      (** worst violation radius over the config's runs: largest hop
          distance from a violating node to the Byzantine set *)
  radius : Ss_stats.Summary.t;  (** per-run worst radius *)
  ttc : Ss_stats.Summary.t;
      (** time to containment (rounds from activation until the clean
          region went clean for good), over contained runs *)
  escaped_rounds : int;
      (** clean-region-violating rounds, totalled over runs *)
  converged : int;
  oscillating : int;  (** budget-exhausted runs with a periodic tail *)
  failed : int;  (** runs that raised *)
  bad : (int * string) list;
      (** replay pointers: anomalous run index (raising or uncontained —
          global convergence is not the bar under a permanent adversary)
          with the reason text *)
}

val default_spec : Scenario.spec

val default_channels : Ss_radio.Channel.t list
(** perfect, bernoulli 0.8, asymmetric 0.5..1.0, and the campaign's
    Gilbert–Elliott bursty channel. *)

val cells :
  behaviors:Ss_engine.Adversary.behavior list ->
  counts:int list ->
  channels:Ss_radio.Channel.t list ->
  Exp_campaign.cell list
(** The sweep's cell order: behavior-major, count-middle, channel-minor. *)

val sweep :
  ?seed:int ->
  ?runs:int ->
  ?spec:Scenario.spec ->
  ?behaviors:Ss_engine.Adversary.behavior list ->
  ?counts:int list ->
  ?channels:Ss_radio.Channel.t list ->
  ?max_rounds:int ->
  ?from_round:int ->
  ?horizon:int ->
  unit ->
  (Exp_campaign.cell, Exp_campaign.outcome, row) Sweep.t
(** One row per {!cells}; every cell's run [i] draws stream [i] of
    [seed]. *)

val to_table : ?replay_prefix:string -> row list -> Ss_stats.Table.t
(** With [replay_prefix] (e.g. ["repro adversary --seed 42"]) each
    anomalous run renders as a complete copy-pasteable command:
    [<prefix> --cell K --run I (reason)]. Rows must be in sweep order
    (the cell index is positional). *)

val verdict : row list -> string list
(** The summary line: worst-case containment radius and uncontained
    runs. *)
