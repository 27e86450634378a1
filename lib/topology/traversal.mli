(** Breadth-first traversals and hop-distance metrics. *)

val unreachable : int
(** Distance value meaning "no path" ([max_int]). *)

val bfs_from : ?filter:(int -> bool) -> Graph.t -> int -> int array
(** Hop distances from the source; [unreachable] where no path exists.
    [filter] restricts the walk to nodes satisfying it (used for distances
    inside a cluster-induced subgraph). *)

val distance : Graph.t -> int -> int -> int option
(** Hop distance between two nodes. *)

val eccentricity : ?filter:(int -> bool) -> Graph.t -> int -> int
(** Greatest finite hop distance from the source (within [filter] if given).
    This is the paper's e(H(u)/C) when filtered to the cluster members. *)

val bfs_order : Graph.t -> int array
(** A locality order of the nodes: position [r] holds the [r]-th node a
    breadth-first walk reaches. Each walk starts at the lowest-index
    unvisited node and visits neighbors in ascending index order, so
    every connected component is one contiguous run, in BFS layer order,
    and isolated nodes sit alone. The result is a permutation of
    [0, n); O(n + m), no closures. *)

val components : Graph.t -> int array * int
(** Connected-component label per node, and component count. *)

val is_connected : Graph.t -> bool

val largest_component : Graph.t -> int list
(** Sorted members of a largest connected component. *)

val diameter : Graph.t -> int
(** Largest finite eccentricity over all nodes (ignores disconnection). *)

val shortest_path : Graph.t -> src:int -> dst:int -> int list option
(** One shortest path, inclusive of both endpoints. *)
