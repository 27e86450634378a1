(** Extension experiment H1: head population per hierarchy level (paper
    future work). Expected shape: each level shrinks the head count by a
    large factor; two to three levels suffice for a thousand nodes. *)

type row = {
  intensity : float;
  nodes : Ss_stats.Summary.t;
  per_level : Ss_stats.Summary.t array;
  levels : Ss_stats.Summary.t;
}

val max_levels : int

val sweep :
  ?seed:int ->
  ?runs:int ->
  ?radius:float ->
  ?intensities:float list ->
  unit ->
  (float, int * int * int list, row) Sweep.t
(** One cell per Poisson intensity; a run reports the node count, the
    level count and the heads per level. *)

val to_table : row list -> Ss_stats.Table.t
