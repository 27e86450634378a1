(** Max-Min d-cluster formation (Amis et al., INFOCOM 2000) — the
    connectivity-and-identity baseline cited by the paper.

    2d flooding rounds (d of floodmax then d of floodmin) elect heads such
    that every node is within d hops of its head. *)

type logs = {
  floodmax : int array array;  (** round-indexed winner per node *)
  floodmin : int array array;
}

val run :
  Ss_topology.Graph.t -> ids:int array -> d:int -> Assignment.t * logs
(** Full clustering: heads mapped back to node indices, parents derived
    along shortest paths toward the head, inconsistent elections resolved to
    self-heads so the assignment always validates. *)

val cluster : Ss_topology.Graph.t -> ids:int array -> d:int -> Assignment.t
