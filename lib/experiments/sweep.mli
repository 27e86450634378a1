(** One experiment sweep: a list of cells, each replicated over
    positional PRNG streams on the domain pool and folded in run order
    into one row. Every replicated [repro] command is one of these.

    The contract every sweep driver gets from this module (DESIGN §6 and
    §15):

    - {b Positional streams.} Run [i] of cell [k] draws the [i]-th
      sub-stream of [seed k] ({!streams}). It never depends on the other
      cells, on the run count, or on the domain count, so rows are
      bit-identical at any [domains].
    - {b Failure capture.} An exception raised while preparing a cell or
      executing one of its runs becomes a [Raised] outcome carrying the
      exception text. The sweep never aborts.
    - {b Replay.} {!replay} re-executes exactly one (cell, run) pair, from
      the same stream, and judges it as the sweep did.
    - {b Exit status.} {!exit_status} is 1 iff some run raised. *)

val jobs_of_string : string -> int
(** Parse a domain count: a positive integer, surrounding blanks allowed.
    Raises [Invalid_argument] naming the value otherwise. *)

val streams : seed:int -> runs:int -> Ss_prng.Rng.t array
(** The per-run generators: element [i] is the sub-stream run [i]
    receives (the [i]-th split of the base generator). A prefix of
    [streams ~seed ~runs:n] equals [streams ~seed ~runs:m] for
    [m <= n]. *)

type 'a outcome = Done of 'a | Raised of string  (** the exception text *)

type 'a runs = {
  index : int;  (** the cell's position in the sweep *)
  outcomes : 'a outcome list;  (** one per run, in run order *)
  failed : int;  (** runs that raised *)
  bad : (int * string) list;
      (** replay pointers: every anomalous run (raised, or flagged by the
          judge) with its reason, in run order *)
}

type ('cell, 'a, 'row) t = {
  label : 'cell -> string;  (** the cell's coordinates, for messages *)
  cells : 'cell list;  (** enumeration order = cell index *)
  runs : 'cell -> int;  (** replicates of a cell (at least 1) *)
  seed : int -> int;  (** base seed of cell [k]'s streams *)
  run : 'cell -> Ss_prng.Rng.t -> 'a;
      (** one run. Work done before the function takes its generator is
          done once per cell, on the calling domain, and shared by the
          cell's runs; what follows must not mutate state shared between
          runs. *)
  judge : 'cell -> 'a -> string option;
      (** [Some reason] iff a completed run is anomalous *)
  fold : 'cell -> 'a runs -> 'row;
}

val raised_only : 'cell -> 'a -> string option
(** The judge of sweeps that flag raising runs only. *)

val completed : 'a runs -> 'a list
(** The outcomes of the runs that did not raise, in run order. *)

val summaries :
  int -> ('a -> (int -> float -> unit) -> unit) -> 'a runs ->
  Ss_stats.Summary.t array
(** [summaries n samples runs]: [n] summaries (columns), filled in run
    order from the completed runs. [samples o add] calls [add c x] for
    every observation [x] of column [c] that outcome [o] makes. *)

type ('cell, 'a, 'row) entry = { cell : 'cell; runs : 'a runs; row : 'row }

val run : ?domains:int -> ('cell, 'a, 'row) t -> ('cell, 'a, 'row) entry list
(** Every cell in order. [domains] defaults to 1 when the [REPRO_JOBS]
    environment variable is unset, its value otherwise. Raises
    [Invalid_argument] when [domains], [REPRO_JOBS] or a cell's run count
    is not a positive integer. *)

val rows : ?domains:int -> (_, _, 'row) t -> 'row list
(** The rows of {!run}. *)

val replay :
  ('cell, 'a, _) t -> cell:int -> run:int -> 'cell * 'a outcome * string option
(** Re-execute run [run] of cell [cell] alone: the outcome and the verdict
    ([Some reason] iff anomalous, with the reason text of [bad]) the
    sweep recorded for that pair. Raises [Invalid_argument] for a cell
    outside the sweep, a negative run index, or a run index the cell
    does not reach. *)

val raised : (_, _, _) entry list -> (int * int * string) list
(** Every run that raised, as (cell index, run index, exception text). *)

val exit_status : (_, _, _) entry list -> int
(** 1 if some run raised, 0 otherwise. *)

val pointer : prefix:string -> cell:int -> run:int -> string
(** The replay command [<prefix> --cell K --run I]. *)

val replay_column :
  prefix:string option -> index:int -> (int * string) list -> string
(** A row's replay pointers for a table column: with a prefix, one
    [<prefix> --cell K --run I (reason)] command per anomalous run;
    without, the bare [I: reason] pairs; ["-"] when there are none. *)
