(** Rule R2 with the Section 4.3 refinements (incumbent tie-break, fusion
    against 2-hop heads): the one election kernel. {!Algorithm}, the
    typed [Distributed] handle and the flat step only fill its tables.

    A cache table is the entries
    [[q; heard; gid; dag; links; nodes; head; nlen; nbr_0 .. nbr_{nlen-1}]]
    of a flat cache row between two offsets; a far table is entries
    [[q; heard; links; nodes; eff; is_head]] of stride 6. A density None
    is [links = -1], a head None is [-1]. [heard] and the claims are
    never read. Entries are named by offset, never by key: packed keys
    may be negative, and a hand-built cache may repeat one.

    An evaluation returns {!hold} (parent and head stay), {!own} (the
    node heads itself) or the offset [o] of the entry joined: parent
    [c.(o)], head [c.(o + 6)]; joining a head None holds instead. On
    {!fuse} the caller fills the far table for {!dominating}, and on its
    offset [v] flags the entries adjacent to key [f.(v)] for {!bridge}.

    [Algorithm] never gets {!hold}: its densities are known, it rejects
    negative heads, and its 2-hop rows are N1 ∪ N2, where a head that
    dominates a locally maximal node lies in N2 \ N1 and so has a
    bridge. *)

val hold : int
val own : int
val fuse : int

val first :
  tie:Order.tie -> dag:bool -> fusion:bool -> links:int -> nodes:int ->
  eff:int -> inc:bool -> int array -> int -> int -> int
(** [first ~tie ~dag ~fusion ~links ~nodes ~eff ~inc c off stop]: the
    node's key against the entries of [c] in [[off, stop)], whose
    effective id is the [dag] column under [~dag], else [gid]. {!hold}
    on a missing density, {!own} with no entry, the strongest entry
    (ties keep the first) when the node is not above it, else {!fuse}
    under [~fusion] and {!own} without. *)

val dominating :
  tie:Order.tie -> links:int -> nodes:int -> eff:int -> inc:bool ->
  int array -> int -> int -> int
(** [dominating ~tie ~links ~nodes ~eff ~inc f off len]: the strongest
    far entry with a known density and [is_head <> 0] above the node
    (ties keep the first), or {!own} when there is none. *)

val bridge :
  tie:Order.tie -> dag:bool -> int array -> int -> int -> int array -> int
(** [bridge ~tie ~dag c off stop flags]: the strongest entry whose flag
    ([flags.(i)] for the [i]-th entry) is non-zero, ties keeping the
    first, or {!hold} when none is. *)

val free_name : Ss_prng.Rng.t -> gamma:int -> current:int -> int array -> int
(** N1's re-pick. On entry [names.(k) <> 0] marks each name [k] in
    [[0, gamma)] a neighbour holds; one draw [j] takes the [(j+1)]-th
    largest free name. When none is free the result is [current] and
    nothing is drawn: a step at an input fixpoint must not move. The
    call overwrites [names] with the free names. *)
