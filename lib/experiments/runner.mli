(** Seeded multi-run execution and aggregation.

    Every run derives its PRNG sub-stream from the base seed by position
    alone (run [i] is the [i]-th split of the base generator), so the
    stream of run [i] never depends on the total number of runs or on how
    many domains execute them. Combined with index-ordered result
    collection, this makes every entry point below return bit-identical
    results for every [domains] value. *)

val jobs_of_string : string -> int
(** Parse a domain count: a positive integer, surrounding blanks allowed.
    Raises [Invalid_argument] naming the value otherwise. *)

val default_domains : unit -> int
(** Domain count used when [?domains] is omitted: 1 when the [REPRO_JOBS]
    environment variable is unset, its value otherwise. Raises
    [Invalid_argument] naming the value when it is not a positive
    integer. *)

val streams : seed:int -> runs:int -> Ss_prng.Rng.t array
(** The per-run generators: element [i] is the sub-stream run [i]
    receives. A prefix of [streams ~seed ~runs:n] equals
    [streams ~seed ~runs:m] for [m <= n]. *)

val replicate :
  ?domains:int ->
  seed:int ->
  runs:int ->
  (run:int -> Ss_prng.Rng.t -> 'a) ->
  'a list
(** Run [f] once per independent PRNG sub-stream of [seed]; the result
    list is in run order. With [domains > 1] the runs execute on a
    {!Ss_stats.Pool} of that many domains — [f] must then not mutate
    state shared between runs. Raises [Invalid_argument] when [runs] or
    [domains] is below 1. *)

val summarize :
  ?domains:int ->
  seed:int ->
  runs:int ->
  (Ss_prng.Rng.t -> float) ->
  Ss_stats.Summary.t
(** Aggregate a scalar measurement across runs (added in run order). *)

val summarize_fields :
  ?domains:int ->
  seed:int ->
  runs:int ->
  string list ->
  (Ss_prng.Rng.t -> (string * float) list) ->
  (string * Ss_stats.Summary.t) list
(** Aggregate a set of named measurements; [f] must return a value for a
    subset of the declared fields each run. *)
