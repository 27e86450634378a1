(** The full protocol stack at message level, pluggable into
    {!Ss_engine.Engine}: neighbor discovery by periodic local broadcast,
    N1 name resolution, density computation and cluster-head election — all
    recomputed from received frames, with cache expiry, which is what makes
    the stack self-stabilizing.

    Use this for step-schedule measurements (Table 2), DAG-construction
    steps under message semantics, lossy-channel runs and fault-injection
    recovery. For fast perfect-knowledge clustering on a static graph, use
    {!Algorithm}. *)

type params = {
  algo : Config.t;
  ids : int array option;  (** global ids; default: the node index *)
  cache_ttl : int;
      (** rounds a cache entry survives without being refreshed; 1 suffices
          on a perfect channel, larger values ride out frame loss. {!Make}
          raises [Invalid_argument] when it is negative: every entry would
          expire the round it is heard. *)
}

val default_params : params

type summary = {
  s_node : int;
  s_density : Density.t option;
  s_eff : int;
  s_is_head : bool;
}

type message = {
  m_node : int;
  m_gid : int;
  m_dag : int;
  m_density : Density.t option;
  m_head : int option;
  m_nbrs : summary array;
}
(** One frame: the sender's shared variables plus a relay summary of its
    cached 1-neighborhood (what lets receivers see 2 hops). *)

type entry = {
  e_heard : int;
  e_gid : int;
  e_dag : int;
  e_density : Density.t option;
  e_head : int option;
  e_nbrs : int array;
}

type far_entry = {
  f_heard : int;
  f_density : Density.t option;
  f_eff : int;
  f_is_head : bool;
}

type state = {
  clock : int;
  gamma : int;
  gid : int;
  dag : int;
  density : Density.t option;
  parent : int option;
  head : int option;
  cache : (int * entry) list;
  far : (int * far_entry) list;
}
(** Exposed concretely so experiments can inspect per-round snapshots and
    fault plans can build targeted corruptions. *)

module Make (_ : sig
  val params : params
end) :
  Ss_engine.Protocol.FLAT with type state = state and type message = message
(** [equal_state] compares only the protocol outputs (name, density, parent,
    head); cache bookkeeping churns every round by design. When measuring
    stabilization, ask the engine for more quiet rounds than the cache TTL:
    relays in flight and pending expiries can leave isolated output-quiet
    rounds mid-convergence.

    The [Flat] submodule packs the whole deployment into int planes for
    the {!Ss_engine.Flat} executor: scalars (clock, gamma, gid, dag,
    density numerator/denominator, parent, head) one array slot per node,
    the 1-hop cache, 2-hop far cache and emitted frame as per-node
    strided int rows. The rows of each of these three planes are slices
    of one arena, sized by [Flat.alloc] for a converged node on its graph
    and laid out in slot order; a row that outgrows its slice moves to an
    array of its own for good. Every per-node plane holds node
    [p] at its slot, [p]'s rank in {!Ss_topology.Traversal.bfs_order} of
    the graph given to [Flat.alloc] (the order {!Ss_engine.Flat_core}
    walks), so a step's own planes and its senders' frames lie close
    together; node ids stay the keys inside rows. Options are sentinel-encoded
    (density [None] as [(-1, 0)], parent/head [None] as [-1]) — injective
    for every reachable and every {!corrupt}-produced state, so plane
    equality coincides with structural equality on the typed fields.
    [Flat.step] is draw-for-draw equivalent to [handle] (it consumes the
    generator only in the N1 name re-pick, exactly when the typed path
    does), which [test/suite_flat.ml] enforces differentially. *)

val pending_expiry : state -> bool
(** The engine's sparse-mode warm hook: true while any cache or far entry
    was not refreshed at the node's last executed step — it is aging
    toward the TTL and will expire (changing density, election inputs and
    relayed summaries) even if no frame ever changes again, so the sparse
    executor must keep stepping the node until the pending expiries
    drain. Pass as [Engine.Make(P).Sparse { warm = Some pending_expiry }]. *)

val corrupt : Ss_prng.Rng.t -> int -> state -> state
(** Scramble every corruptible field (names, density, head, parent, cached
    values) within type-correct bounds; the transient-fault model. *)

val forge : Ss_prng.Rng.key -> int -> message -> message
(** Forgery hook for {!Ss_engine.Adversary.CONFIG}: rewrite every field
    the election orders on — an implausibly attractive density claim, a
    self-head claim, scrambled gid/DAG names, poisoned 2-hop summaries —
    as a pure {e keyed} function of (key, node, honest frame), so replay
    and the sparse executor see the same lie. The sender index is left
    truthful: the radio layer authenticates which transceiver
    transmitted; only claims inside the frame are forgeable. *)

val to_assignment : ?alive:bool array -> state array -> Assignment.t
(** Project converged states to an assignment (nodes without an elected head
    read as their own heads). Under churn, pass the engine's final liveness
    mask: crashed/sleeping nodes hold frozen shared variables, so they are
    projected as isolated self-heads — their status in the snapshot
    topology. *)

val ghost_references : alive:bool array -> state array -> int
(** Number of dangling references held by alive nodes: a parent, head or
    cache entry naming a node that is dead or out of range. Cache TTL
    expiry plus re-election drain these after a churn burst; sampling the
    count per round (via the engine's [probe]) shows how long the network
    keeps believing ghosts. *)

val ghost_holders : alive:bool array -> state array -> int list
(** The alive nodes holding at least one such dangling reference, sorted —
    the node-level attribution {!Ss_engine.Monitor}'s containment metrics
    need. [ghost_references ~alive states = 0] iff
    [ghost_holders ~alive states = []]. *)
