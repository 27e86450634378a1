(** Dynamic topology: a static {!Graph.t} overlaid with a node liveness
    mask and a per-link up/down status, so a single engine run can
    experience crashes, joins, sleep/wake cycles and link flapping
    between rounds.

    The base graph fixes the node universe and the radio links that can
    ever exist; events toggle which of them are currently usable. A
    consistent static {!snapshot} is derived on demand (and cached until
    the next mutation) so protocols keep reading an ordinary immutable
    {!Graph.t}: nodes that are crashed or asleep appear isolated, and
    downed links are absent from both endpoints' adjacency.

    Snapshots are maintained {e incrementally}: each event marks the
    adjacency rows it touches (the node's own row and its base
    neighbors', or a downed link's two endpoints) and {!snapshot} patches
    only those rows of the previous snapshot, constructing the result
    through the trusted {!Graph.of_sorted_adjacency} — no re-sorting,
    no re-validation. The patched snapshot is structurally identical to
    a full {!materialize} rebuild (same sorted arrays), which a property
    suite enforces over random event plans. *)

type status =
  | Alive  (** participating normally *)
  | Crashed  (** failed: loses its state; rejoins via [join] with fresh state *)
  | Asleep  (** powered down: keeps its state; resumes via [wake] *)

type t

val create : ?reuse_snapshots:bool -> Graph.t -> t
(** All nodes [Alive], all base links up.

    [reuse_snapshots] (default [false]) trades snapshot immutability for
    an allocation-free patch path: after the first divergence from the
    base, {!snapshot} patches one privately owned graph {e in place} and
    returns that same object every time, so a flipped round costs only
    the touched degrees — the default mode additionally copies the O(n)
    row-pointer array per flipped round to keep every returned snapshot
    immutable. Under reuse, a snapshot held across a later event {e sees
    the mutation}; callers must consume each snapshot within its round
    (the engine hot paths do). Also, once diverged, a return to the
    pristine state keeps returning the owned graph (structurally equal
    to the base, but not physically the base graph). *)

val base : t -> Graph.t
(** The underlying static graph (node universe and potential links). *)

val node_count : t -> int

val status : t -> int -> status

val is_alive : t -> int -> bool

val alive_count : t -> int

val nodes_with : t -> status -> int list
(** Sorted nodes currently in the given status. *)

(** Transitions return whether they changed anything: crashing a dead
    node, waking an alive one, etc. are no-ops reported as [false]. *)

val crash : t -> int -> bool
(** [Alive] or [Asleep] -> [Crashed]. *)

val join : t -> int -> bool
(** [Crashed] -> [Alive]. The caller owns re-initializing the node's
    protocol state (a crash loses it). *)

val sleep : t -> int -> bool
(** [Alive] -> [Asleep]. *)

val wake : t -> int -> bool
(** [Asleep] -> [Alive], protocol state retained by the caller. *)

val link_down : t -> int -> int -> bool
(** Take a base link down. Raises [Invalid_argument] if the pair is not
    an edge of the base graph; returns [false] if already down. *)

val link_up : t -> int -> int -> bool
(** Restore a downed base link; [false] if it was not down. *)

val is_link_down : t -> int -> int -> bool

val down_count : t -> int
(** Number of currently downed links, O(1) — hot paths use it to skip
    per-edge {!is_link_down} probes entirely when nothing is down. *)

val down_list : t -> (int * int) list
(** Downed links, each once with [p < q], sorted. *)

val rebase :
  t -> base:Graph.t -> added:(int * int) list -> removed:(int * int) list -> unit
(** Swap the base graph for a new one over the same node universe —
    continuous motion rewiring the potential links mid-run. [added] and
    [removed] must be exactly the edge diff between the old and new base
    (e.g. a {!Motion.flush} result); only the endpoints of those edges
    are re-patched in the next {!snapshot}, so the cost of a rebase is
    the diff, not the graph. Down-marks on removed links are dropped — a
    link that leaves radio range and later returns starts in the up
    state. Node statuses are untouched. Raises [Invalid_argument] if the
    node counts differ. *)

val pristine : t -> bool
(** True when every node is alive and every link is up — the snapshot is
    the base graph itself. *)

val snapshot : t -> Graph.t
(** The current effective topology as an immutable graph over the same
    node indices. Cached: consecutive calls without intervening events
    return the same physical graph (and the base graph while
    [pristine]). Incremental: only the rows dirtied since the previous
    snapshot are recomputed — O(sum of touched base degrees), not
    O(n + m). *)

val materialize : t -> Graph.t
(** Reference full rebuild of the effective topology through the checked
    {!Graph.of_adjacency} path, ignoring the snapshot cache. Costs
    O((n + m) log); exists so tests and benches can cross-check the
    incremental {!snapshot} against first principles. *)

val pp : t Fmt.t
