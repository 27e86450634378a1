(** Algorithm N1: randomized construction of locally-unique names from the
    constant space γ, inducing a DAG of height at most |γ|+1 (Theorem 1).

    Follows the Section 5 simulation discipline: all nodes draw a name and
    broadcast it (step 1); in each later step, every node that collides with
    a 1-neighbor and has the smaller global id re-draws from the locally
    unused names. The step count is 1 plus the number of steps in which
    someone re-picked (Table 3's convention — a collision-free draw costs a
    single step, which is how the paper's rows average 1.9-2.2). *)

type result = {
  names : int array;  (** one name in [0 .. gamma_size-1] per node *)
  steps : int;  (** 1 + number of steps in which a node re-picked *)
  gamma_size : int;
  converged : bool;  (** false only if 1000 steps were exhausted *)
}

val build :
  Ss_prng.Rng.t ->
  Ss_topology.Graph.t ->
  ids:int array ->
  gamma:int ->
  result
(** [ids] are the globally unique node identifiers used to pick the re-picking
    side of a collision. *)

val build_spec :
  Ss_prng.Rng.t ->
  Ss_topology.Graph.t ->
  ids:int array ->
  gamma_spec:Gamma.t ->
  result
(** Same, sizing γ from the topology. *)

val initial_names : Ss_prng.Rng.t -> gamma:int -> int -> int array
(** Fresh uniform draws (the state N1 starts from). *)

val is_valid : Ss_topology.Graph.t -> int array -> bool
(** No radio link joins equal names. *)

val height : Ss_topology.Graph.t -> int array -> int option
(** Height of the name-oriented DAG; [None] when names are not locally
    unique. Theorem 1 bounds this by |γ|+1 — and orienting by strictly
    decreasing names actually bounds it by |γ|-1 edges; tests check the
    theorem's (weaker) bound. *)
