(** Permanent Byzantine adversary as a protocol transformer.

    The paper proves stabilization for {e transient} faults — corruption
    that eventually stops. This module models faults that never stop: a
    set of Byzantine nodes keeps running the protocol's state machine but
    broadcasts rewritten frames forever. {!Wrap} turns any
    {!Protocol.S} into the same protocol with such an adversary grafted
    onto its emissions, leaving state transitions untouched, so
    containment (how far violations radiate from the Byzantine set, see
    {!Monitor}) is measured against the honest semantics.

    {2 Keying discipline}

    Every adversarial choice made in-round — which forgery a [Liar]
    emits, which of its two frames an [Oscillator] shows — is a pure
    function of (adversary key, node, executed-step counter) via
    {!Ss_prng.Rng.subkey} lanes; no sequential draws. The counter
    advances only on executed steps, and {!Wrap.warm} forces stepping
    exactly while an emission can still depend on it, so sparse and dense
    executions see bit-identical adversarial traffic
    ([test/suite_adversary.ml] is the differential battery). *)

type behavior =
  | Mute  (** broadcasts nothing: to neighbors, a permanently lossy link *)
  | Stuck
      (** replays the honest emission frozen at the corruption round,
          forever — stale claims that never refresh *)
  | Liar
      (** forges the ordered-on fields of its current honest emission
          (via the protocol-supplied hook), re-keyed every step *)
  | Oscillator
      (** alternates two fixed forgeries of the frozen emission with a
          keyed phase — never lets the neighborhood settle *)

val behaviors : behavior list
(** All four, in declaration order (for sweeps). *)

val behavior_to_string : behavior -> string

type role = Honest | Byzantine of behavior

type ('s, 'm) node_state = {
  inner : 's;  (** the wrapped protocol's state, evolving honestly *)
  steps : int;  (** executed steps — the adversary's activation clock *)
  role : role;
  base : 'm option;
      (** honest emission as of the last pre-activation step ([Some] for
          every Byzantine node, [None] for honest ones) *)
}

val distances : Ss_topology.Graph.t -> int list -> int array
(** [distances graph sources] is the hop distance from each node to the
    nearest of [sources] (multi-source BFS);
    {!Ss_topology.Traversal.unreachable} where no source is reachable —
    and everywhere when [sources] is empty. Containment metrics
    precompute this once per run on the base deployment. Raises
    [Invalid_argument] on an out-of-range source. *)

(** Per-wrap configuration: the adversary key (independent of the run's
    base key), the Byzantine roster, the activation round, and the
    protocol-specific forgery hook. *)
module type CONFIG = sig
  type message

  val key : Ss_prng.Rng.key

  val roles : (int * behavior) list
  (** Byzantine nodes and their behaviors; every other node is honest.
      Duplicate nodes are rejected at functor application, out-of-range
      nodes at [init]. *)

  val from_round : int
  (** Engine round at which behaviors switch on (>= 1; 1 means the very
      first emission is already adversarial). A node's emission at round
      [r] reflects [r - 1] executed steps, so the honest emission frozen
      by [Stuck]/[Oscillator] is the one the node would have broadcast at
      round [from_round]. A node re-joining after a crash restarts its
      step counter and re-runs the activation delay. *)

  val forge : Ss_prng.Rng.key -> int -> message -> message
  (** [forge key node honest] rewrites the fields the protocol orders on
      (density, identifiers, head claims…). Must be a pure function of
      its arguments, drawing only through the keyed helpers — it is
      called from [emit] and re-invoked on replay. *)
end

(** [Wrap (P) (A)] is [P] with [A]'s adversary grafted onto emissions.
    Frames become [P.message option]: [None] is a mute round and is
    dropped before [P.handle] ever sees it (to the wrapped protocol a
    silenced neighbor is indistinguishable from one whose frames the
    channel lost). Satisfies the {!Protocol.S} step-input contract
    whenever [P] does; run it sparsely with
    [~mode:(Sparse { warm = Some (warm P_warm) })]. *)
module Wrap (P : Protocol.S) (A : CONFIG with type message = P.message) : sig
  include
    Protocol.S
      with type state = (P.state, P.message) node_state
       and type message = P.message option

  val byzantine : int list
  (** The Byzantine roster, in [A.roles] order. *)

  val role : int -> role

  val active : state -> bool
  (** Whether the node's behavior has switched on ([steps >=
      from_round - 1]). *)

  val project : state -> P.state
  (** The wrapped protocol's state — feed this to invariant checks so
      legitimacy is judged on honest semantics. *)

  val warm : (P.state -> bool) -> state -> bool
  (** [warm p_warm] is the wrapped warm hook: [p_warm] on the inner state,
      plus the adversary's own clock (every Byzantine node before
      activation; [Liar]/[Oscillator] forever, their emissions moving
      each step — [Mute]/[Stuck] go emission-constant once active). *)

  val lift_corrupt :
    (Ss_prng.Rng.t -> int -> P.state -> P.state) ->
    Ss_prng.Rng.t ->
    int ->
    state ->
    state
  (** Lift a transient-corruption scrambler to wrapped states (scrambles
      the inner state; role, clock and frozen emission survive). *)
end
