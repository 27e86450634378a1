(** The density-driven clustering algorithm as a round-based fixpoint
    computation (the "oracle" execution: perfect local knowledge, lossless
    channel). One synchronous round is one Δ(τ) step of the paper, so
    [rounds] is the stabilization time in steps.

    For the message-level execution with losses, caches and faults, see
    {!Distributed}. *)

type scheduler =
  | Synchronous  (** all nodes read the previous round's shared variables *)
  | Sequential
      (** central daemon: nodes update in index order reading live values;
          immune to lockstep oscillations of the fusion rule *)

type outcome = {
  assignment : Assignment.t;
  rounds : int;  (** rounds executed, including the final quiet round *)
  converged : bool;  (** false when the round budget ran out *)
  values : Density.t array;  (** metric value per node *)
  effective_ids : int array;  (** DAG names if enabled, global ids else *)
  dag : Dag_id.result option;  (** N1 result when DAG names were built *)
}

type topology
(** The tables a run reads that depend only on the graph (and the
    configuration's metric and fusion flag): per-node metric values and,
    under fusion, every node's two-hop row. Build one per graph and pass
    it to every run on that graph to stop recomputing them. *)

val topology :
  ?values:Density.t array -> Config.t -> Ss_topology.Graph.t -> topology
(** [values] overrides the per-node metric values (used by the
    energy-aware extension); default is [Metric.value_all config.metric].
    The two-hop rows ({!Ss_topology.Neighborhood.two_hop_rows}) are built
    iff [config.fusion]. Raises [Invalid_argument] when [values] has the
    wrong length. *)

val two_hop : topology -> int -> int array
(** [two_hop t p] is N²_p as an ascending array. Raises
    [Invalid_argument] when [t] was built for a fusion-free
    configuration. *)

val run :
  ?scheduler:scheduler ->
  ?init_heads:int array ->
  ?max_rounds:int ->
  ?dag_names:int array ->
  ?topology:topology ->
  Ss_prng.Rng.t ->
  Config.t ->
  Ss_topology.Graph.t ->
  ids:int array ->
  outcome
(** [init_heads] warm-starts the H variables (mobility epochs, incumbent
    tie-break); default is every node its own head; a negative head
    raises [Invalid_argument] naming the node and the value. [dag_names]
    supplies pre-built names instead of running N1; it must hold one
    name per node. [topology] supplies the graph's
    tables (default: [topology config graph]); it must have been built for
    this very graph and for a configuration with the same metric and
    fusion flag — a table of the wrong size, or fusion rows missing,
    raises [Invalid_argument]. The generator is used by N1 and is
    untouched otherwise. *)

val cluster :
  ?scheduler:scheduler ->
  ?init_heads:int array ->
  ?max_rounds:int ->
  ?dag_names:int array ->
  ?topology:topology ->
  Ss_prng.Rng.t ->
  Config.t ->
  Ss_topology.Graph.t ->
  ids:int array ->
  Assignment.t
(** [run] projected to its assignment. *)

val shuffled_ids : Ss_prng.Rng.t -> Ss_topology.Graph.t -> int array
(** a uniform random id permutation (the paper's random-id assumption). *)
