(** k-hop neighborhoods N^i_p as defined in the paper (Section 3):
    N^1_p = N_p, and N^i_p adds the neighbors of N^(i-1)_p. The node itself
    never belongs to its own neighborhood. *)

module Iset : Set.S with type elt = int

val one_hop : Graph.t -> int -> Iset.t
val two_hop : Graph.t -> int -> Iset.t
val k_hop : Graph.t -> int -> int -> Iset.t

val closed : Graph.t -> int -> Iset.t
(** [{p} ∪ N_p]. *)

val to_sorted_array : Iset.t -> int array

val two_hop_rows : Graph.t -> int array array
(** Every node's N²_p as an ascending array: row [p] equals
    [to_sorted_array (two_hop g p)]. Built with one stamp array and one
    reusable buffer instead of sets, so the only allocation is the rows. *)

val links_within : Graph.t -> Iset.t -> int
(** Edges of the graph with both endpoints inside the set. *)
