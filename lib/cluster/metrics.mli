(** Cluster-quality measurements used by the Section 5 experiments. *)

val cluster_count : Assignment.t -> int

val head_eccentricities :
  Ss_topology.Graph.t -> Assignment.t -> (int * int) list
(** Per head: max hop distance (in the full graph) to a cluster member —
    the paper's e(H(u)/C(u)). *)

val mean_head_eccentricity :
  Ss_topology.Graph.t -> Assignment.t -> float option
(** Average over clusters; [None] when there are no clusters. *)

val tree_lengths : Assignment.t -> (int * int) list
(** Per head: the longest parent-chain length among members — the paper's
    clusterization tree length (its stabilization-time proxy). *)

val mean_tree_length : Assignment.t -> float option
val max_tree_length : Assignment.t -> int

val cluster_sizes : Assignment.t -> int list
val mean_cluster_size : Assignment.t -> float option

val head_retention :
  before:Assignment.t -> after:Assignment.t -> float option
(** Fraction of [before]'s heads still heads in [after]; the mobility
    statistic of Section 5. [None] when [before] has no heads. *)

val membership_stability :
  before:Assignment.t -> after:Assignment.t -> float option
(** Fraction of nodes keeping the same head across epochs. *)

val min_head_separation : Ss_topology.Graph.t -> Assignment.t -> int option
(** Smallest hop distance between two distinct heads ([None] with fewer than
    two mutually reachable heads). The fusion rule targets >= 3. One
    multi-source BFS from all heads: linear in the graph, not one BFS per
    head. *)

type summary = {
  clusters : int;
  mean_eccentricity : float;
  mean_tree_length : float;
  max_tree_length : int;
  mean_size : float;
}

val summarize : Ss_topology.Graph.t -> Assignment.t -> summary
val pp_summary : summary Fmt.t
