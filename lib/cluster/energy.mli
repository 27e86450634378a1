(** Energy-aware clustering — the extension named in the paper's
    conclusion ("we also want to consider energy constraints in the
    stabilization algorithm").

    Keeps the density-driven structure but quantizes density into bands and
    ranks nodes within a band by residual battery level, so the head role
    rotates among the densest nodes of an area instead of draining one node
    to death. Head duty costs more charge per epoch than member duty. *)

type battery

val battery : capacity:float -> battery
(** A full battery; capacity must be positive. *)

val charge : battery -> float
val is_alive : battery -> bool

val level : ?levels:int -> battery -> int
(** Residual charge discretized into [levels] buckets (default 8); an empty
    battery is level 0. *)

val spend : battery -> float -> unit
(** Drain, clamped at zero. Raises [Invalid_argument] on a negative
    amount — a drain expressed with the wrong sign would silently
    recharge the battery. *)

type drain = { head_per_epoch : float; member_per_epoch : float }

val default_drain : drain
(** Head duty costs 5 units per epoch, member duty 1. *)

val apply_duty :
  drain:drain ->
  battery array ->
  alive:(int -> bool) ->
  is_head:(int -> bool) ->
  unit
(** One epoch of duty costs against arbitrary role predicates — the form
    the data-plane workload uses, where "head" is each node's {e
    believed} role read from its protocol state rather than an oracle
    {!Assignment.t}. Dead nodes (by predicate or by empty battery) pay
    nothing. *)

val apply_drain : drain:drain -> battery array -> Assignment.t -> unit
(** One epoch of duty costs, per the assignment's roles. *)

val election_values :
  ?levels:int -> Ss_topology.Graph.t -> battery array -> Density.t array
(** Per-node election value: density quantized into 4 bands, battery
    {!level} as the low-order component. Feed to
    {!Algorithm.run}'s [values]. *)

val living_subgraph : Ss_topology.Graph.t -> battery array -> Ss_topology.Graph.t
(** The topology restricted to links whose both endpoints are alive (dead
    nodes keep their index, with degree zero). *)

type epoch_result = {
  assignment : Assignment.t;
  alive : int;
  heads : int;  (** heads that are alive *)
}

val run_epoch :
  ?drain:drain ->
  ?init_heads:int array ->
  Ss_prng.Rng.t ->
  Ss_topology.Graph.t ->
  battery array ->
  ids:int array ->
  epoch_result option
(** One election + duty epoch on the living subgraph with energy-weighted
    values and the incumbent tie-break; [None] once every node is dead. *)

type lifetime = {
  epochs_to_first_death : int;
  epochs_to_half_dead : int;
  total_head_changes : int;
}

val simulate_lifetime :
  ?drain:drain ->
  ?capacity:float ->
  energy_aware:bool ->
  Ss_prng.Rng.t ->
  Ss_topology.Graph.t ->
  ids:int array ->
  lifetime
(** Run epochs until half the network is dead, at most 10,000 of them.
    [energy_aware:false] is the
    energy-oblivious baseline (plain density election, same drain), whose
    heads die markedly earlier. *)
