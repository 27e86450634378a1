(** The paper's safety predicates bundled for online monitoring.

    Everything {!Ss_engine.Monitor} needs to watch a {!Distributed} run:
    a digest of the protocol {e outputs} (stable across rounds once the
    clustering has stabilized, so oscillations are visible) and the
    violation set of the legitimate-state predicate, evaluated once per
    round on the live nodes ({!observe}). *)

val digest :
  graph:Ss_topology.Graph.t ->
  alive:bool array ->
  Distributed.state array ->
  int64
(** Order-sensitive 64-bit hash of each node's liveness bit and, for alive
    nodes, its outputs: gid, DAG name, density, parent, head. Deliberately
    excludes clocks, caches and relay tables — those churn every round by
    design and would hide any oscillation. Explicit SplitMix64-style
    mixing, not the stdlib generic hash (whose traversal cutoffs make
    structurally different states collide trivially). *)

val close_head_pairs : Algorithm.topology -> Assignment.t -> (int * int) list
(** Every head pair [(h, h')], [h < h'], at hop distance 1 or 2 — closer
    than the fusion rule's 3-hop floor — in no particular order. Read off
    the two-hop rows of [topology] (built for a fusion configuration) in
    one pass over the heads, where {!Metrics.min_head_separation} runs a
    BFS per head. *)

val observe :
  ?topology:Algorithm.topology ->
  config:Config.t ->
  ids:int array ->
  graph:Ss_topology.Graph.t ->
  alive:bool array ->
  Distributed.state array ->
  Ss_engine.Monitor.observation
(** One evaluation of a round: the assignment is projected once from the
    live states onto [graph] (pass the engine's per-round snapshot) and
    {!Legitimacy.check} runs once; the counts and the violators are both
    read off that result.

    [counts], empty/zero when the projected assignment is legitimate:
    - ["illegitimate"]: number of {!Legitimacy.check} violations (fixpoint
      and structural);
    - ["ghosts"]: {!Distributed.ghost_references} held by alive nodes;
    - ["head-separation"]: 1 when [config.fusion] is on and two heads sit
      closer than 3 hops (as {!Metrics.min_head_separation} would report);
      omitted for fusion-free configurations, where 1-hop head adjacency
      is legal.

    [violators]: the sorted, deduplicated set of nodes the violations sit
    at — each {!Legitimacy.check} violation's node, every
    {!Distributed.ghost_holders} believer, and (under [config.fusion])
    both endpoints of every head pair closer than 3 hops. Empty iff the
    counts are all zero.

    [digest] is {!digest}. [topology] passes [graph]'s tables, built for
    [config] ({!Algorithm.topology}); default: built afresh. *)

val violations :
  config:Config.t ->
  ids:int array ->
  graph:Ss_topology.Graph.t ->
  alive:bool array ->
  Distributed.state array ->
  (string * int) list
(** The [counts] of {!observe}. *)

val violators :
  config:Config.t ->
  ids:int array ->
  graph:Ss_topology.Graph.t ->
  alive:bool array ->
  Distributed.state array ->
  int list
(** The [violators] of {!observe}. *)

val monitor :
  ?window:int ->
  ?adversary:Ss_engine.Monitor.adversary ->
  config:Config.t ->
  ids:int array ->
  unit ->
  Distributed.state Ss_engine.Monitor.t
(** A ready-made monitor over {!observe}: wire its [Monitor.probe] and
    [Monitor.on_round] into [Engine.run]. With [adversary], the report's
    [containment] field tracks violation radius and clean-region
    legitimacy. The monitor keeps the tables of the last snapshot it saw
    and reuses them while the engine hands it the same (physically equal)
    graph, so a run pays for them once per topology change, not per
    round. That requires immutable snapshots, which [Engine.run]
    guarantees for probed runs. *)

val monitor_via :
  ?window:int ->
  ?adversary:Ss_engine.Monitor.adversary ->
  project:('wrapped -> Distributed.state) ->
  config:Config.t ->
  ids:int array ->
  unit ->
  'wrapped Ss_engine.Monitor.t
(** {!monitor} for runs whose engine states wrap {!Distributed.state} —
    typically [Ss_engine.Adversary.Wrap]ped runs, with
    [~project:Q.project]: each probe projects the wrapped array once, so
    legitimacy is judged on the honest protocol semantics. *)
