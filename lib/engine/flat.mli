(** The flat-memory executor: {!Engine.Make}'s run loop over a
    {!Protocol.FLAT}'s struct-of-arrays planes, with the frontier in
    {!Flat_core} (the graph's own adjacency rows, domain-sharded dirty
    frontier, zero per-round allocation).

    Equivalent to [Engine.Make(P).run] — the same run record, states
    modulo [P.equal_state] — for protocols honoring the {!Protocol.FLAT}
    contract; the differential battery in [test/suite_flat.ml] enforces
    flat ≡ sparse ≡ dense over random graphs, channels, schedulers,
    churn and motion. Engine's [Sparse] mode runs the same loop and the
    same {!Flat_core} over a boxed view of the typed protocol, so flat ≡
    sparse compares two representations of one protocol, not two
    frontiers. Differences from the reference executor:

    - [?domains] runs synchronous rounds sharded over a domain pool;
      every domain count yields bit-identical results (see
      {!Flat_core}).
    - No [?probe]: it hands a typed state array to an arbitrary callback
      every round, which would force a full unpack per round and defeat
      the flat representation. Use [?on_round] or [?workload] (its reader
      unpacks on demand) for instrumentation. Faults are injected as in
      {!Engine.Make.run}, by the churn plan's [Corrupt] events.
    - Warm behavior is not optional: the protocol's [Flat.warm] is
      always consulted (the typed executor's [Sparse { warm }] is a
      per-run choice).
    - Error messages name [Flat.run], not [Engine.run]. *)

module Make (P : Protocol.FLAT) : sig
  type run = Engine.Make(P).run = {
    states : P.state array;
        (** unpacked final states; they may share immutable sub-values
            (see {!Protocol.FLAT}'s [unpack]), so do not mutate them *)
    rounds : int;
    converged : bool;
    last_change_round : int;
    change_history : int list;
    alive : bool array;
    graph : Ss_topology.Graph.t;
    bursts : Engine.burst list;
    faults : Engine.fault_report list;
    changed_at : int array;
        (** per node, the round of its last output change, or 0 — as
            {!Engine.Make.run}'s field *)
  }
  (** The typed executor's record: both run one loop. *)

  val run :
    ?scheduler:Scheduler.t ->
    ?channel:Ss_radio.Channel.t ->
    ?max_rounds:int ->
    ?quiet_rounds:int ->
    ?churn:Churn.t ->
    ?corrupt:(Ss_prng.Rng.t -> int -> P.state -> P.state) ->
    ?motion:Engine.motion_hook ->
    ?on_round:(Engine.round_info -> unit) ->
    ?on_event:(round:int -> Churn.event -> unit) ->
    ?workload:
      (round:int ->
      graph:Ss_topology.Graph.t ->
      alive:bool array ->
      read:P.state Engine.reader ->
      bool) ->
    ?domains:int ->
    ?states:P.state array ->
    Ss_prng.Rng.t ->
    Ss_topology.Graph.t ->
    run
  (** Same per-round order and randomness discipline as
      {!Engine.Make.run}: motion rebases first, churn events apply to the
      rebased topology, then every live frontier node steps once over the
      incremental snapshot. The supplied generator drives only plan
      evaluation (churn, Join re-inits, Corrupt scrambles); everything
      in-round is counter-keyed off a base key drawn at entry, so the
      executors' draw streams coincide. [?states] warm-starts by packing
      the array (one entry per node, checked); [?domains] (default 1)
      shards synchronous state/emission phases over that many domains.
      [?workload] is {!Engine.Make.run}'s data-plane hook with
      [read.state] backed by unpack-on-demand: the hook pays one typed
      unpack per state it actually inspects, and the flat representation
      survives. [read.changed_at] is a plain array read, so a hook that
      caches what it read pays unpacks only for nodes whose outputs
      changed since — the traffic workload's duty drain re-reads just
      those. [read.written_at] is one too, stamped by {!Flat_core} for
      every node it steps, so a hook caching something derived from the
      whole state (the traffic workload's route views) re-reads a node
      only after its state was written. Same activity semantics: an
      active workload keeps the run alive through quiescence without
      resetting the quiescence counter. Defaults are
      {!Engine.Make.run}'s, kept once in {!Engine.Make.enter}. *)
end
