(** Round-based executor for shared-variable protocols.

    One round is the paper's step Δ(τ): every node locally broadcasts its
    shared variables once and processes the frames that survive the channel.
    The executor detects fixpoints, counts stabilization rounds and — given
    a {!Churn} plan — applies events between rounds so the protocol must
    recover in place: topology events (crashes, joins, sleep/wake, link
    flapping) and transient state corruption ([Corrupt]), the only way a
    run rewrites a state outside a step besides [Join]. *)

type round_info = {
  round : int;
  changed : int;
  events : int;  (** churn events applied before this round's communication *)
  corrupted : int list;
      (** nodes whose state churn [Corrupt] events rewrote before this
          round's communication, in plan order; [] on clean rounds *)
}

type fault_report = {
  fault_round : int;  (** round the corruption landed on *)
  corrupted : int list;  (** same contents as {!round_info.corrupted} *)
}

type motion_hook =
  round:int -> (Ss_topology.Graph.t * Ss_topology.Motion.diff) option
(** Continuous-mobility feed, called once at the top of every round. Return
    [None] on a round with nothing in motion (a frozen fleet costs
    nothing); otherwise return the new base graph and the edge diff from
    the previous round's base — exactly what {!Ss_topology.Motion.flush}
    produces after stepping a fleet and reporting its moves. The graph
    must cover the same node universe as the run's initial graph, which
    should itself be the maintainer's starting snapshot so every round
    shares the live position buffer. *)

type burst = {
  burst_start : int;  (** first round of a maximal run of event rounds *)
  burst_end : int;  (** last round of the burst (= [burst_start] for a
                        single-round burst) *)
  burst_events : int;  (** events applied across the burst *)
  recovery_rounds : int option;
      (** rounds after [burst_end] until the last state change before the
          next burst (0 when nothing changed); [None] when the run hit
          [max_rounds] still churning after the final burst *)
}

type 's reader = {
  state : int -> 's;  (** node [p]'s current state *)
  changed_at : int -> int;
      (** the round in which node [p]'s outputs last changed, or 0 when
          they never did: a step that changed the state in the
          [P.equal_state] sense, or a state rewrite ([Join] or [Corrupt]).
          While it stays at or below a round [r], the
          node's outputs are the ones [state] returned after round [r]. *)
  written_at : int -> int;
      (** the last round in which node [p]'s state was written, or 0 when
          it never was: any executed step, even one that left the outputs
          equal in the [P.equal_state] sense, or a rewrite ([Join] or
          [Corrupt]). Never below [changed_at p].
          While it does not move, [state p] returns a state structurally
          equal to the previous read, caches and freshness stamps
          included, so a hook may cache anything it derives from the
          whole state under this key. [changed_at] is not such a key:
          a step can move cache entries that [P.equal_state] ignores. *)
}
(** The [?workload] hook's read-only view of the protocol states, built
    once per run. *)

module Make (P : Protocol.S) : sig
  type mode =
    | Dense
        (** every live node steps every round: the reference walk, kept
            independent of the frontier so the differential batteries
            check one against the other. It reads each node's snapshot
            row and re-emits every delivered frame from the states. *)
    | Sparse of { warm : (P.state -> bool) option }
        (** dirty-set execution on {!Flat_core}, through a boxed view of
            [P] (the typed states plus each node's current frame, which
            every receiver reads). A node steps only when its input could
            have changed since its last step: it changed itself, a node
            it can hear changed its emission, a churn event touched
            its neighborhood, an incident channel delivery decision
            flipped, or [warm] reports pending time-based behavior (e.g.
            {!Ss_cluster.Distributed.pending_expiry}: cache entries aging
            toward their TTL, which must keep ticking for the protocol to
            stay self-stabilizing; [None] means never warm). Equivalent
            to [Dense] on every field of {!run} — states modulo
            [P.equal_state], the rest exactly — for
            protocols honoring the {!Protocol.S} step-input contract;
            cost per round is proportional to the perturbed region, not
            the network. *)

  type run = {
    states : P.state array;
        (** final states; crashed/sleeping nodes hold their last (Join
            re-initializes, Wake resumes) *)
    rounds : int;  (** rounds executed, including the final quiet ones *)
    converged : bool;  (** true when the quiet-round target was reached *)
    last_change_round : int;
        (** the paper's stabilization time in steps: the last round in which
            any node's state changed or any event fired (0 when already
            stable) *)
    change_history : int list;
        (** changed-node count per round, oldest first *)
    alive : bool array;
        (** final liveness mask; all-true for churn-free runs *)
    graph : Ss_topology.Graph.t;
        (** final effective topology (= the input graph when no churn
            event ever fired) *)
    bursts : burst list;
        (** disturbance bursts (maximal runs of churn-event rounds),
            oldest first, with measured recovery times *)
    faults : fault_report list;
        (** every round on which churn [Corrupt] rewrote at least one
            node, oldest first — the dwell-time attribution feed for
            {!Monitor} *)
    changed_at : int array;
        (** per node, the round of its last output change, or 0 — the
            final values of {!reader.changed_at} *)
  }

  val init_states :
    Ss_prng.Rng.t -> Ss_topology.Graph.t -> P.state array
  (** One [P.init] per node. *)

  val run :
    ?mode:mode ->
    ?scheduler:Scheduler.t ->
    ?channel:Ss_radio.Channel.t ->
    ?max_rounds:int ->
    ?quiet_rounds:int ->
    ?churn:Churn.t ->
    ?corrupt:(Ss_prng.Rng.t -> int -> P.state -> P.state) ->
    ?motion:motion_hook ->
    ?on_round:(round_info -> unit) ->
    ?on_event:(round:int -> Churn.event -> unit) ->
    ?probe:
      (round:int ->
      graph:Ss_topology.Graph.t ->
      alive:bool array ->
      P.state array ->
      unit) ->
    ?workload:
      (round:int ->
      graph:Ss_topology.Graph.t ->
      alive:bool array ->
      read:P.state reader ->
      bool) ->
    ?states:P.state array ->
    Ss_prng.Rng.t ->
    Ss_topology.Graph.t ->
    run
  (** Execute rounds until [quiet_rounds] consecutive rounds change no state
      (and apply no churn event), or until [max_rounds]. When the
      churn plan has a bounded {!Churn.horizon}, the run is kept alive
      through quiescence until the horizon passes, so scheduled storms
      always fire.

      Per round, in order: [motion] fires first — when it reports edge
      flips, the dynamic topology is {e rebased} onto the new unit-disk
      graph (down-marks on links that left radio range are dropped; a
      pair drifting back into range starts with the link up) and, in
      sparse mode, both endpoints of every flipped edge join the dirty
      frontier (plus, on a position-dependent channel such as [jammed],
      every moved node and its audience — movement alone can change
      deliveries there). Edge flips reset the quiescence counter — a run
      cannot "converge" mid-rewiring — but are {e not} churn events: they
      appear in no burst accounting, and a round whose fleet moved
      without flipping an edge can still close out convergence. Then
      [churn] events are applied to the (possibly rebased) dynamic
      topology ([Crash]/[Sleep] silence a node, [Join] revives it with a
      fresh [P.init] against the base graph, [Wake] revives it with its
      retained state, link events retopologize; [Corrupt] rewrites the
      node's state through [corrupt] — supplying a plan that emits
      [Corrupt] without [corrupt] raises [Invalid_argument]; transient
      faults are injected this way only, e.g. {!Churn.corrupt_count}); then
      every {e alive} node broadcasts once over the current snapshot and
      handles what it heard. Crashed and sleeping nodes neither emit nor
      handle, and their frames vanish from neighbors' caches — recovery is
      the protocol's job.

      [on_event] fires once per applied event (no-ops — crashing a dead
      node, downing a downed link — are skipped and not counted);
      [on_round] fires after each round and reports the corrupted nodes;
      [probe] additionally sees the round's effective topology snapshot,
      the liveness mask and live states (all read-only) for mid-run
      instrumentation such as invariant monitoring. [states] warm-starts
      from a previous run; it must have exactly one entry per graph node
      (raises [Invalid_argument] up front on a length mismatch). The array
      is copied on entry — the run never mutates the caller's snapshot, so
      the same warm-start array can seed several runs.

      [workload] is the data-plane hook ({!Ss_traffic.Workload} is the
      canonical client): it fires once per round, after [probe], with the
      round's effective snapshot, liveness mask and a {!reader} (the
      states plus each node's last output-change and last write round,
      so a hook that caches what it read re-reads only nodes whose
      outputs, or whole states, moved), and returns whether the
      workload is still active. An
      active workload keeps the run alive through protocol quiescence
      (like a bounded churn horizon) so in-flight messages can drain;
      it never resets the quiescence counter, so [last_change_round] and
      [converged] mean the same thing with and without traffic. The hook
      must not mutate protocol state, and any randomness it consumes
      must be counter-keyed from its own key — never the run's generator
      — or executor equivalence (dense ≡ sparse ≡ flat) breaks.

      Randomness is split into two disjoint families. The supplied
      generator drives only the per-round plan evaluation — churn events,
      [Join] re-initializations, [Corrupt] scrambles — which
      every mode performs identically. Everything inside the round is
      {e counter-keyed} off a base key drawn once at entry: channel loss
      is a pure function of (key, round, src, dst), the random-order
      daemon's permutation of (key, round), and each node's [handle]
      generator of (key, round, node). Skipping a node therefore cannot
      shift any other consumer's stream, which is what makes
      [~mode:Sparse] bit-equivalent to [Dense] on every channel and
      scheduler.

      Sparse mode additionally relies on the protocol honoring the
      {!Protocol.S} step-input contract. No hook can write a state: the
      run loop itself applies every rewrite ([Join], [Corrupt]) and puts
      the node and its audience on the frontier.

      Defaults: dense mode, synchronous scheduler, perfect channel, 10000
      rounds max, one quiet round, no churn. *)

  (** {2 The run loop}

      [run] and {!Flat.Make.run} are thin entries into one round loop,
      which owns motion, churn, hooks, bursts and quiescence. The entry
      points below exist for {!Flat}; callers use [run]. *)

  type 'sc planes = {
    pack : int -> P.state -> unit;  (** overwrite node [p]'s state *)
    unpack : int -> P.state;  (** read node [p]'s state *)
    step :
      Ss_topology.Graph.t -> 'sc -> Ss_prng.Rng.key -> int -> int array ->
      int -> bool;
        (** [step snapshot scratch hkey p senders count]: as
            {!Protocol.FLAT}'s [Flat.step], given the round's snapshot *)
    refresh : 'sc -> int -> bool;  (** as [Flat.refresh_emit] *)
    warm : int -> bool;  (** as [Flat.warm] *)
    scratches : 'sc array;  (** one per shard, at least one *)
    pool : Ss_stats.Pool.t option;  (** shards synchronous phases *)
  }
  (** A {!Protocol.FLAT} deployment with its buffers applied: what
      {!Flat_core} steps. Handed to [loop] with states set and every
      emission plane already derived. *)

  type 'sc exec =
    | Walk of P.state array  (** the dense walk over these states *)
    | Frontier of 'sc planes  (** the frontier over these planes *)

  type settings = {
    who : string;  (** the entry point named in error messages *)
    base_key : Ss_prng.Rng.key;  (** the run's in-round key lanes *)
    scheduler : Scheduler.t;
    channel : Ss_radio.Channel.t;
    max_rounds : int;
    quiet_rounds : int;
  }
  (** A validated run configuration, defaults applied. *)

  val enter :
    who:string ->
    ?scheduler:Scheduler.t ->
    ?channel:Ss_radio.Channel.t ->
    ?max_rounds:int ->
    ?quiet_rounds:int ->
    ?states:P.state array ->
    Ss_prng.Rng.t ->
    Ss_topology.Graph.t ->
    settings
  (** Validate a run's arguments, naming [who] in the [Invalid_argument]
      message, apply {!run}'s defaults (the only copy of them) and draw
      the base key. Call before initializing states. *)

  val loop :
    settings ->
    exec:'sc exec ->
    ?churn:Churn.t ->
    ?corrupt:(Ss_prng.Rng.t -> int -> P.state -> P.state) ->
    ?motion:motion_hook ->
    ?on_round:(round_info -> unit) ->
    ?on_event:(round:int -> Churn.event -> unit) ->
    ?probe:
      (round:int -> graph:Ss_topology.Graph.t -> alive:bool array -> unit) ->
    ?workload:
      (round:int ->
      graph:Ss_topology.Graph.t ->
      alive:bool array ->
      read:P.state reader ->
      bool) ->
    Ss_prng.Rng.t ->
    Ss_topology.Graph.t ->
    run
  (** The rounds of {!run}, over [exec]; [probe] reads the states through
      its own closure. *)
end
