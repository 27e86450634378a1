(** Within-run topology churn plans.

    A plan decides, before each round, which dynamic-topology events hit
    the network: node crashes and rejoins, sleep/wake cycles, per-link
    up/down flapping, and transient state corruption. Plans are either
    deterministic schedules or random processes driven by the engine's
    generator (so whole runs stay replayable from the seed); the engine
    applies the emitted events to its {!Ss_topology.Dynamic} overlay
    before the round's communication.

    [Corrupt] is the engine's only transient-fault injector: a
    corruption-only plan (say {!corrupt_count}) is one kind of churn. *)

type event =
  | Crash of int  (** node fails and loses its state *)
  | Join of int  (** a crashed node rejoins with freshly initialized state *)
  | Sleep of int  (** node powers down, retaining its state *)
  | Wake of int  (** a sleeping node resumes with its retained state *)
  | Link_down of int * int  (** a base link fades out *)
  | Link_up of int * int  (** a downed link comes back *)
  | Corrupt of int  (** scramble the node's state in place (needs the
                        engine's [~corrupt] function) *)

val pp_event : event Fmt.t

val event_label : event -> string
(** Stable short name ("crash", "join", "sleep", "wake", "link-down",
    "link-up", "corrupt") for per-event-type accounting. *)

type t

val events_at :
  t -> round:int -> Ss_topology.Dynamic.t -> Ss_prng.Rng.t -> event list
(** The events this plan emits for the given round, drawn against the
    current topology (random plans pick victims among the currently
    alive nodes / currently up links). *)

val horizon : t -> int option
(** Last round at which the plan can still emit events, when bounded.
    The engine keeps a run alive (even through quiescence) until the
    horizon has passed, so scheduled storms always fire. *)

(** {1 Plan constructors} *)

val schedule : (int * event list) list -> t
(** Deterministic plan; rounds start at 1. Raises [Invalid_argument] on
    a round below 1. *)

val generator :
  ?horizon:int ->
  (round:int -> Ss_topology.Dynamic.t -> Ss_prng.Rng.t -> event list) ->
  t
(** Arbitrary (possibly randomized) event source. Give [horizon] when
    the source stops emitting after a known round; otherwise the engine
    only stops on quiescence after [max_rounds]-bounded exploration. *)

val compose : t list -> t
(** Union of plans; events are emitted in plan order within a round. *)

val nothing : t
(** The empty plan. *)

(** {2 Canned deterministic bursts} *)

val crash_fraction : round:int -> fraction:float -> t
(** Crash [ceil (fraction * alive)] uniformly chosen alive nodes (at
    least one while any node is alive). *)

val sleep_fraction : round:int -> fraction:float -> t

val corrupt_fraction : round:int -> fraction:float -> t

val corrupt_count : round:int -> count:int -> t
(** Corrupt [count] uniformly chosen alive nodes (clamped to the alive
    population). *)

val join_all : round:int -> t
(** Rejoin every crashed node. *)

val wake_all : round:int -> t
(** Wake every sleeping node. *)

val links_up_all : round:int -> t
(** Restore every downed link. *)

(** {2 Random processes}

    All windows are inclusive round ranges with [1 <= first <= last]. *)

val bernoulli_crash : first:int -> last:int -> p_crash:float -> ?p_join:float -> unit -> t
(** Each round of the window: every alive node crashes independently
    with probability [p_crash]; every crashed node rejoins with
    probability [p_join] (default 0). *)

val link_flap : first:int -> last:int -> p_down:float -> ?p_up:float -> unit -> t
(** Each round of the window: every up base link fades with probability
    [p_down]; every downed link recovers with probability [p_up]
    (default 0). *)

val poisson_crash_bursts :
  first:int -> last:int -> rate:float -> mean_size:float -> t
(** Poisson burst arrivals: each round of the window a burst fires with
    probability [1 - exp (-rate)]; its size is Poisson with mean
    [mean_size] (at least 1), victims uniform among alive nodes. *)
