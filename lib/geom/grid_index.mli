(** Uniform-grid spatial index over a point array, with in-place point
    moves.

    Supports radius queries in expected O(1) per query when the cell size is
    on the order of the query radius; used to build unit-disk graphs in
    linear time and to maintain them incrementally under continuous
    motion. *)

type t

val build : box:Bbox.t -> cell:float -> Vec2.t array -> t
(** Index the given points. [cell] should normally equal the query radius;
    a cell so small that the grid would exceed four buckets per point is
    doubled until it does not (queries stay exact at any cell size).
    Points outside [box] are clamped to the border cells (still found by
    queries, at a small constant cost). The array is adopted, not copied:
    a caller that mutates an entry must call {!move} on its index before
    the next query, so bucket membership never diverges from positions. *)

val size : t -> int
(** Number of indexed points. *)

val move : t -> int -> unit
(** [move t i] re-buckets point [i] after its entry in the adopted points
    array was updated. A move that stays within the point's current cell
    costs one comparison; a cell change costs the old bucket's length.
    Raises [Invalid_argument] on an out-of-range index. *)

val within : t -> Vec2.t -> float -> int list
(** Sorted indices of points within radius of the given center. *)

val neighbors : t -> int -> float -> int list
(** [neighbors t i r] is the sorted indices of points within [r] of point
    [i], excluding [i] itself. *)

val neighbors_into : t -> int -> float -> int array -> int
(** [neighbors_into t i r buf] writes the indices {!neighbors} returns,
    in bucket order (unsorted), to [buf.(0 ..)] and returns how many it
    wrote. Allocates nothing; [buf] needs room for [size t - 1]
    entries. *)
