(** Robustness experiment: the data-plane workload under load x channel
    x churn — delivery ratio, latency, retries, the delivery-ratio
    dip-and-recovery around a mid-run crash burst, and energy-fairness
    of believed-head duty, measured {e during} stabilization. A {!Sweep}
    over load x channel x burst cells on the typed sparse executor that
    flags raising runs only. *)

module P :
  Ss_engine.Protocol.FLAT
    with type state = Ss_cluster.Distributed.state
     and type message = Ss_cluster.Distributed.message

type load = { load_label : string; rate : float }

val default_loads : load list
(** light (2 msg/round) and heavy (8 msg/round). *)

type chan = { chan_label : string; chan : Ss_radio.Channel.t }

val default_channels : chan list
(** perfect, Bernoulli 0.9, bursty (Gilbert–Elliott) — applied to {e
    both} the control and the data plane. *)

type row = {
  r_load : string;
  r_chan : string;
  r_burst : bool;
  r_runs : int;
  offered : int;
  delivered : int;
  expired : int;
  died : int;
  latency : Ss_stats.Summary.t;
  retries : Ss_stats.Summary.t;
  stalls : int;
  reroutes : int;
  invalidations : int;
  pre : Ss_stats.Summary.t;
  dip : Ss_stats.Summary.t;
  recovered : int;
  rec_rounds : Ss_stats.Summary.t;
  jain : Ss_stats.Summary.t;
  depleted : int;
  converged : int;
}

val dip_recovery :
  burst_round:int ->
  window:int ->
  Ss_traffic.Workload.cohort list ->
  float * float * int option
(** [(pre, dip, recovered_at)] from a cohort series: mean pre-burst
    cohort ratio (excluding the cold-start window), worst post-burst
    cohort ratio, and rounds from the burst to the first cohort
    regaining 95% of [pre] ([None] if it never does). [pre] and [dip]
    are nan when no cohort qualifies. *)

val default_spec : Scenario.spec
(** Poisson intensity 1000, radius 0.06 — the 1k-node deployment of the
    acceptance run. *)

type cell = { c_load : load; c_chan : chan; c_burst : bool }

type outcome
(** What one run reports. *)

val sweep :
  ?seed:int ->
  ?runs:int ->
  ?spec:Scenario.spec ->
  ?loads:load list ->
  ?channels:chan list ->
  ?bursts:bool list ->
  ?rounds:int ->
  ?ttl:int ->
  ?window:int ->
  ?burst_round:int ->
  ?rejoin_round:int ->
  ?fraction:float ->
  unit ->
  (cell, outcome, row) Sweep.t
(** One cell per load x channel x burst, load-major; every cell's run [i]
    draws stream [i] of [seed]. [rounds] is the last offered round; runs
    extend by [ttl] so every message resolves. *)

val to_table : row list -> Ss_stats.Table.t

type verification = {
  v_agree : bool;  (** sparse and flat bit-identical on every observable *)
  v_detail : string;
  v_pre : float;  (** pre-burst cohort delivery ratio *)
  v_dip : float;  (** worst post-burst cohort ratio *)
  v_recovered_at : int option;
      (** rounds from the burst to the first cohort regaining 95% of the
          pre-burst ratio *)
  v_ratio : float;  (** whole-run delivery ratio *)
  v_latency_mean : float;
}

val verify :
  ?seed:int ->
  ?spec:Scenario.spec ->
  ?rounds:int ->
  ?ttl:int ->
  ?window:int ->
  ?burst_round:int ->
  ?rejoin_round:int ->
  ?fraction:float ->
  ?rate:float ->
  ?channel:Ss_radio.Channel.t ->
  unit ->
  verification
(** Replay one heavy-load lossy burst cell under the typed sparse
    executor and the flat executor from the same run stream; compare the
    workload planes ({!Ss_traffic.Workload.equal}), protocol states and
    liveness bit for bit, and report the cell's dip-and-recovery. *)
