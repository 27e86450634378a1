(** A dependency-free domain pool for index-parallel work.

    Built on stdlib [Domain]/[Mutex]/[Condition] only. A pool of [domains]
    runs [domains - 1] worker domains; the submitting domain joins the work
    itself, so [create ~domains:1] spawns nothing and {!map} degenerates to
    a sequential loop.

    Work items are claimed one index at a time from a shared counter
    (work-sharing rather than true stealing: items here are coarse —
    whole experiment runs — so a single claim point is not contended).
    Results are always collected into an index-ordered array, so the
    output is independent of which domain ran which item and of the
    interleaving: callers that give item [i] all the state it needs
    (e.g. a pre-split PRNG sub-stream) get bit-identical results for
    every domain count. *)

type t

val create : domains:int -> t
(** Pool using [domains] total domains (including the caller's).
    Raises [Invalid_argument] if [domains < 1]. *)

val domains : t -> int
(** Total domains the pool uses, including the submitting one. *)

val map : t -> int -> (int -> 'a) -> 'a array
(** [map t n f] is [[| f 0; ...; f (n-1) |]], with the items executed on
    the pool's domains in an unspecified order and collected by index.
    A raising item never aborts the job: {e every} item executes (on both
    the parallel and the sequential path), no worker is orphaned, the pool
    stays usable, and the exception of the lowest raising index is
    re-raised in the caller once all items have finished. Do not call
    [map] on the same pool from within [f]: the nested submission
    deadlocks. *)

val shutdown : t -> unit
(** Wait for any in-flight job, stop the workers and join them.
    Idempotent; using {!map} afterwards raises [Invalid_argument]. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f] runs [f] with a fresh pool and shuts it down
    afterwards, whether [f] returns or raises. *)
