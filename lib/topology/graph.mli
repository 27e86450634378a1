(** Immutable undirected graphs over nodes [0 .. n-1].

    This is the network topology substrate: symmetric links (the paper
    assumes bidirectional communication), sorted adjacency arrays, optional
    node positions for geometric topologies. *)

type t

val of_edges : ?positions:Ss_geom.Vec2.t array -> n:int -> (int * int) list -> t
(** Build from an edge list; duplicates are merged. Raises [Invalid_argument]
    on self loops or out-of-range endpoints. *)

val of_adjacency : ?positions:Ss_geom.Vec2.t array -> int list array -> t
(** Build from per-node neighbor lists; must be symmetric. *)

val of_sorted_adjacency : ?positions:Ss_geom.Vec2.t array -> int array array -> t
(** Trusted constructor for adjacency that is already valid: the caller
    guarantees every row is strictly increasing, self-loop free, within
    [0 .. n-1], and symmetric ([q] in row [p] iff [p] in row [q]). Nothing
    of that is re-checked — this is the churn hot path ({!Dynamic.snapshot}
    patches rows derived from an already-validated base graph). The arrays
    are adopted without copying and must never be mutated afterwards; rows
    may be shared with other graphs. Positions length is still checked. *)

val unit_disk : radius:float -> Ss_geom.Vec2.t array -> t
(** Unit-disk graph: an edge joins every pair at Euclidean distance
    [<= radius]. Built in expected linear time via a spatial index. This is
    the paper's radio model: [radius] is the transmission range R. *)

val sorted_row : int array -> int -> int array
(** [sorted_row buf len] sorts [buf.(0 .. len-1)] in place and returns a
    fresh copy of that prefix: how {!unit_disk} and the two-hop rows turn
    a work buffer of distinct neighbours into an adjacency row. Short rows
    (every unit-disk row at realistic degrees) allocate nothing but the
    copy. *)

val node_count : t -> int
val edge_count : t -> int

val neighbors : t -> int -> int array
(** Sorted 1-neighborhood N_p (never contains [p] itself). The returned
    array is owned by the graph; do not mutate. *)

val degree : t -> int -> int

val max_degree : t -> int
(** The paper's density bound delta. *)

val mean_degree : t -> float

val mem_edge : t -> int -> int -> bool
(** Logarithmic membership test. *)

val positions : t -> Ss_geom.Vec2.t array option
val position : t -> int -> Ss_geom.Vec2.t option

val iter_nodes : t -> (int -> unit) -> unit
val fold_nodes : t -> ('a -> int -> 'a) -> 'a -> 'a
val iter_edges : t -> (int -> int -> unit) -> unit
(** Each undirected edge visited once, with [p < q]. *)

val edges : t -> (int * int) list

val equal : t -> t -> bool
(** Structural equality of the topology: same node count and identical
    adjacency rows. Positions are metadata and not compared. *)

val is_symmetric : t -> bool
(** Always true for graphs built by this module; exposed for tests. *)

val check_node : t -> int -> unit
(** Raises [Invalid_argument] if the node is out of range. *)

val pp : t Fmt.t
