(** Online invariant monitor and divergence classifier.

    Plugs into {!Engine.Make.run}'s [?probe] and [?on_round] hooks and, every
    round, (1) evaluates a caller-supplied set of safety invariants on the
    live states, attributing violation {e dwell} to the disturbance burst
    that opened it, and (2) folds a caller-supplied 64-bit digest of the
    round's protocol outputs into a bounded ring so a run that exhausts
    [max_rounds] is never silent: the report classifies it as
    [Oscillating] (the digest window has a periodic tail) or
    [Still_changing] (it does not).

    Dwell semantics. A disturbance (churn event or corruption round, as
    reported by {!note_disturbance} / {!on_round}) opens a burst; further
    disturbances while the system is still dirty extend the same burst. The
    burst closes at the first {e clean} probe round — all invariants zero —
    at or after the last disturbance; its dwell is that round minus the last
    disturbance round (0 when the disturbance round itself probes clean).
    [post_recovery_violations] counts violating rounds seen after at least
    one burst has closed while no burst is open — for a self-stabilizing
    protocol under a transient fault plan it must be 0 (the paper's closure
    property); the count deliberately excludes the cold-start convergence
    prefix, which is charged to no burst.

    Classification. [Converged] iff the engine reported convergence.
    Otherwise the digest window (newest [window] rounds) is scanned for the
    smallest period [p] whose tail repeats for at least [2*p] entries;
    [first_seen] is the earliest round (within the window) from which the
    tail is [p]-periodic. A digest constant over the tail reads as
    [Oscillating] with [period = 1] — outputs frozen yet the engine still
    counting changes (e.g. internal clocks ticking). No periodic tail means
    [Still_changing]. *)

type classification =
  | Converged
  | Oscillating of { period : int; first_seen : int }
  | Still_changing

type burst = {
  first : int;  (** round of the disturbance that opened the burst *)
  last : int;  (** last disturbance round folded into the burst *)
  dwell : int option;
      (** rounds from [last] to the first clean probe; [None] when the run
          ended with the burst still dirty *)
}

(** Containment tracking against a permanent Byzantine set (see
    {!Adversary}). [dist] is the hop distance from each node to the
    nearest Byzantine node, precomputed on the base deployment
    ({!Adversary.distances}); nodes at distance > [horizon] form the
    {e clean region}, which strict stabilization demands stay legitimate
    once the system has settled. Tracking starts at round [active_from]
    (the adversary's activation round), so the cold-start convergence
    prefix — violations everywhere, charged to no one — is excluded. *)
type adversary = { dist : int array; horizon : int; active_from : int }

type containment = {
  tracked_rounds : int;  (** probe rounds at or after [active_from] *)
  worst_radius : int;
      (** max over tracked rounds of the violation radius: the largest
          hop distance from any violating node to the Byzantine set (0
          when nothing ever violated; escapes with {e no} Byzantine node
          reachable are counted in [escaped_rounds] but not here) *)
  escaped_rounds : int;
      (** tracked rounds with a violator inside the clean region *)
  last_escape : int option;  (** round of the last clean-region violation *)
  contained : bool;
      (** the clean region was violation-free at the end of the run:
          never broken, or every escape followed by at least one tracked
          clean round *)
  time_to_containment : int option;
      (** rounds from activation until the clean region went clean for
          good ([Some 0] when it never broke; [None] while escapes are
          still live, i.e. [not contained]) *)
}

type report = {
  classification : classification;
  rounds : int;  (** probe rounds observed *)
  violating_rounds : int;  (** rounds with at least one nonzero invariant *)
  totals : (string * int) list;
      (** per-invariant count of violating rounds, in first-seen order *)
  peaks : (string * int) list;
      (** per-invariant peak single-round count, in first-seen order *)
  bursts : burst list;  (** oldest first *)
  max_dwell : int option;  (** largest closed-burst dwell *)
  unrecovered : int;  (** bursts still dirty when the run ended *)
  post_recovery_violations : int;
  containment : containment option;
      (** [Some] iff the monitor was created with [~adversary] *)
}

type observation = {
  digest : int64;
      (** hash of the round's protocol {e outputs} only — never clocks,
          timestamps or message caches, which change every round and would
          mask any oscillation *)
  counts : (string * int) list;
      (** labelled violation counts; zero or absent labels mean clean *)
  violators : int list;
      (** the nodes the round's violations sit at (e.g.
          {!Ss_cluster.Invariants.violators}); feeds the containment
          metrics *)
}
(** Everything the monitor reads from one round, computed by one
    callback so the predicates behind [counts] and [violators] are
    evaluated once. *)

type 'state t

val create :
  ?window:int ->
  ?adversary:adversary ->
  observe:
    (graph:Ss_topology.Graph.t -> alive:bool array -> 'state array -> observation) ->
  unit ->
  'state t
(** [observe] is called once per probed round. With [adversary], the
    observation's [violators] feed the containment metrics; [horizon < 0]
    or [active_from < 1] raise [Invalid_argument]. [window] is the
    digest-ring capacity (default 64): oscillations with period above
    [window/2] are reported as [Still_changing]. Raises
    [Invalid_argument] when [window < 2]. *)

val probe :
  'state t ->
  round:int ->
  graph:Ss_topology.Graph.t ->
  alive:bool array ->
  'state array ->
  unit
(** Feed one round; pass directly as [Engine.run ~probe:(Monitor.probe m)].
    Rounds must be fed in strictly increasing order: a round at or below
    the previous probe's raises [Invalid_argument]. *)

val last : 'state t -> observation option
(** The most recent probe's observation, [None] before the first probe —
    for callers that need more of a round than the report keeps, without
    evaluating it a second time. *)

val note_disturbance : 'state t -> round:int -> unit
(** Record that round [round] was disturbed (churn or corruption). Call
    before or after the round's [probe]; both orders attribute dwell to the
    same burst. *)

val on_round : 'state t -> Engine.round_info -> unit
(** Adapter: notes a disturbance when the round applied churn events or
    corrupted nodes. Pass as [Engine.run ~on_round:(Monitor.on_round m)]. *)

val report : 'state t -> converged:bool -> report
(** Digest the run; [converged] comes from [Engine.run]'s result. *)

val classify : converged:bool -> last_round:int -> int64 array -> classification
(** The bare classifier: [digests] is the window oldest-first, covering
    rounds [last_round - length + 1 .. last_round]. Exposed for tests. *)

val pp_classification : Format.formatter -> classification -> unit

val classification_label : classification -> string
(** ["converged"], ["oscillating(p=..)"] or ["still-changing"]. *)
