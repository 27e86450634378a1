(** The legitimate-state predicate of the self-stabilization proof.

    An assignment is legitimate for a configuration when it is a fixpoint
    of the guarded assignments R1/R2 (re-running the election warm-started
    from its H values reproduces it exactly) and it is structurally sound
    (parents are self-or-neighbor, chains terminate at the claimed head).
    Self-stabilization experiments assert this predicate on whatever state
    the system converges to after faults. *)

type violation =
  | Structural of Assignment.problem
  | Not_a_fixpoint of {
      node : int;
      field : string;  (** "H" or "F" *)
      current : int;
      expected : int;
    }

val pp_violation : violation Fmt.t

val check :
  ?dag_names:int array ->
  ?topology:Algorithm.topology ->
  Config.t ->
  Ss_topology.Graph.t ->
  ids:int array ->
  Assignment.t ->
  (unit, violation list) result
(** Pass the [dag_names] (and the [topology] tables, e.g. custom values
    for the energy extension) the assignment was produced with; otherwise
    the rule is evaluated against global ids / the configuration's metric.
    A [topology] built once per graph spares each check the per-graph
    tables ({!Algorithm.topology}). *)

val is_legitimate :
  ?dag_names:int array ->
  ?topology:Algorithm.topology ->
  Config.t ->
  Ss_topology.Graph.t ->
  ids:int array ->
  Assignment.t ->
  bool
