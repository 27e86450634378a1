(** Algorithm configuration: which metric elects heads, which refinements of
    the paper are active. *)

type t = {
  metric : Metric.t;  (** node-importance metric (the paper: density) *)
  tie : Order.tie;  (** tie-break rule; [Incumbent_then_id] is Section 4.3 *)
  fusion : bool;  (** Section 4.3 two-hop cluster-head fusion rule *)
  use_dag_names : bool;  (** Section 4.1: break ties on DAG names *)
  gamma : Gamma.t;  (** name-space sizing when [use_dag_names] *)
}

val basic : t
(** The plain density algorithm of Section 3/4.2 (global-id tie-break). *)

val with_dag : t
(** Basic plus the Section 4.1 DAG names. *)

val improved : t
(** Basic plus the two Section 4.3 stability refinements. *)

val improved_with_dag : t
(** All refinements on. *)

val make :
  ?metric:Metric.t ->
  ?tie:Order.tie ->
  ?fusion:bool ->
  ?gamma:Gamma.t ->
  unit ->
  t

val pp : t Fmt.t
