(** The flat executor's round loop: the graph's own adjacency rows (one
    replaced where motion rewires it), a domain-sharded dirty frontier,
    protocol steps driven through an {!ops} record over opaque
    struct-of-arrays buffers.

    This module is the allocation-audited hot path of {!Flat}: nothing
    here allocates per round (buffers are preallocated and grown
    monotonically; a grep lint in [./check] bans [Array.copy] and list
    operations from the implementation). It is generic in the protocol's
    scratch type so the engine library carries no protocol dependency —
    {!Flat.Make} instantiates it with closures over a
    {!Protocol.FLAT}'s buffers.

    {2 Determinism across domain counts}

    A synchronous round runs as: parallel {e state} phase (each frontier
    node steps against the pre-round emission planes, writing only its
    own planes and a per-node flag byte), parallel {e emission} phase
    (each refreshes its emitted frame), then a {e serial} mark pass in
    frontier order that counts and stamps changes and builds the next
    frontier.
    Since no step observes another step's in-round output and the mark
    pass is serial, the shard partition is unobservable: any [domains]
    value yields bit-identical runs. Sequential and random-order daemons
    are order-dependent by definition and run serially on the submitting
    domain.

    {2 Walk order}

    {!create} fixes a locality order, {!Ss_topology.Traversal.bfs_order}
    of its graph ({!order}). The synchronous phases and the mark pass
    walk the frontier in that order: a protocol whose buffers lay their
    per-node planes out in the same order (as [Distributed.Flat] does)
    then steps nodes whose planes sit next to each other. The order is
    unobservable for the reason the shard partition is: no step sees
    another's in-round output, and the mark pass only orders the next
    worklist. The Sequential walk keeps ascending node order and the
    Random_order walk its permutation, since their schedules are part of
    the result. *)

type 's ops = {
  step : 's -> Ss_prng.Rng.key -> int -> int array -> int -> bool;
      (** [step scratch hkey p senders count]: one protocol step of node
          [p] hearing [senders.(0..count-1)]; returns whether the state
          changed. Node randomness is derived from [(hkey, p)] by the
          protocol, lazily — a step that draws nothing allocates no
          generator. Must not touch emission planes. *)
  refresh : 's -> int -> bool;
      (** Re-derive node [p]'s emission plane; [true] iff it changed. *)
  warm : int -> bool;  (** Pending time-based behavior for node [p]. *)
}

type 's t

val create :
  ?pool:Ss_stats.Pool.t ->
  ops:'s ops ->
  scratches:'s array ->
  live:bool array ->
  changed_at:int array ->
  written_at:int array ->
  Ss_topology.Graph.t ->
  's t
(** Share the graph's adjacency rows (graph rows are immutable) and
    allocate the frontier planes. [scratches] fixes the shard count (one
    scratch per shard); pass a [pool] to run synchronous phases on its
    domains, else all shards execute on the caller. [live] is shared, not
    copied: the orchestrator refreshes it in place after churn. [changed_at] is
    shared the same way: {!step_round} writes the round into the entry
    of every node whose step changed its state (in the serial mark pass
    or walk, so the stamps are identical at any shard count), and the
    orchestrator stamps the state rewrites it performs itself.
    [written_at] is shared likewise: {!step_round} writes the round into
    the entry of every node it steps, changed or not (in the parallel
    state phase, where each node writes only its own entry, or in the
    serial walk), so while an entry stays put the node's state has not
    been written. *)

val mark_now : 's t -> int -> unit
(** Add a node to the current frontier (idempotent). *)

val mark_all : 's t -> unit

val order : 's t -> int array
(** The locality order (rank → node) the synchronous walk follows. The
    array is shared: callers must not mutate it. *)

val set_row : 's t -> int -> int array -> unit
(** Replace node [p]'s potential-neighbor row after a motion rebase.
    The array is adopted, not copied — callers must not mutate it. *)

val step_round :
  's t ->
  round:int ->
  scheduler:Scheduler.t ->
  deliver:(src:int -> dst:int -> bool) ->
  prev:(src:int -> dst:int -> bool) option ->
  hkey:Ss_prng.Rng.key ->
  perm:int array option ->
  has_down:bool ->
  edge_down:(int -> int -> bool) ->
  int
(** Execute round [round] over the current frontier and advance it;
    returns the changed-node count, stamps each changed node's
    [changed_at] entry with [round], and each stepped node's
    [written_at] entry. [prev] is the previous round's delivery plan
    — pass it on non-deterministic channels so nodes whose incident
    delivery pattern flipped get re-stepped ({!Engine} sparse mode's
    replay). [perm] is the round's schedule for [Random_order] (required
    there, ignored otherwise). [has_down]/[edge_down] filter the
    potential rows down to the effective topology: [edge_down] is only
    consulted when [has_down] is true, so churn-free rounds skip the
    probe entirely. *)
