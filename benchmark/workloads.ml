(* The six benchmark workloads.

   Each workload builds its inputs from the seed alone (set-up), times
   one call of the public entry point ([Flat.Make(P).run] or
   [Engine.Make(P).run]) in CPU seconds, then checks the outputs. Traced
   runs instantiate the same executors on {!Timed}'s pass-through
   functors and wrap the hooks; nothing else differs, which the smoke run
   verifies by comparing the traced run's final states with the untraced
   one's. Why each workload is in the set is in README.md. *)

module Graph = Ss_topology.Graph
module Builders = Ss_topology.Builders
module Motion = Ss_topology.Motion
module Rng = Ss_prng.Rng
module Channel = Ss_radio.Channel
module Protocol = Ss_engine.Protocol
module Engine = Ss_engine.Engine
module Churn = Ss_engine.Churn
module Monitor = Ss_engine.Monitor
module Adversary = Ss_engine.Adversary
module Config = Ss_cluster.Config
module Distributed = Ss_cluster.Distributed
module Legitimacy = Ss_cluster.Legitimacy
module Invariants = Ss_cluster.Invariants
module Assignment = Ss_cluster.Assignment
module Fleet = Ss_mobility.Fleet
module Model = Ss_mobility.Model
module W = Ss_traffic.Workload
module Summary = Ss_stats.Summary

type size = Full | Smoke

type result = {
  setup_s : float;  (** CPU seconds building the deployment and inputs *)
  build_s : float;  (** the topology-construction part of [setup_s] *)
  run_s : float;  (** CPU seconds inside the timed entry point(s) *)
  attempted : int;
  failed : int;
  failures : string list;  (** one line per failed op *)
  digest : int64;  (** {!Invariants.digest} of the final states *)
  facts : (string * int) list;  (** outcome counts, pinned with [digest] *)
  extra : (string * float * string) list;
      (** workload-level per-layer values the tracer cannot see *)
}

(* Ops are named checks; each failing one is a failed op. *)
let result ~setup_s ~build_s ~run_s ~checks ~digest ~facts ?(extra = []) () =
  let failures =
    List.filter_map (fun (name, ok) -> if ok then None else Some name) checks
  in
  {
    setup_s;
    build_s;
    run_s;
    attempted = List.length checks;
    failed = List.length failures;
    failures;
    digest;
    facts;
    extra;
  }

let quiet_rounds = Distributed.default_params.Distributed.cache_ttl + 2

(* Unit-disk radius giving the requested mean degree over [n] uniform
   nodes in the unit square. *)
let radius_for ~degree n = sqrt (degree /. (Float.pi *. float_of_int n))

let cpu f =
  let t0 = Sys.time () in
  let v = f () in
  (v, Sys.time () -. t0)

(* Independent generators for deployment, run and extras, keyed by seed. *)
let streams seed = Rng.split_n (Rng.create ~seed) 4

let deployment ~n ~degree rng =
  cpu (fun () ->
      Builders.random_geometric_count rng ~count:n
        ~radius:(radius_for ~degree n))

let improved = { Distributed.default_params with algo = Config.improved_with_dag }

(* ------------------------------------------------------------ executors *)

module type DP =
  Protocol.FLAT
    with type state = Distributed.state
     and type message = Distributed.message

let protocol ~traced params : (module DP) =
  let module P = Distributed.Make (struct
    let params = params
  end) in
  if traced then (module Timed.Flat (P)) else (module P)

type run = {
  states : Distributed.state array;
  rounds : int;
  converged : bool;
  last_change_round : int;
  change_history : int list;
  alive : bool array;
  final_graph : Graph.t;
  bursts : Engine.burst list;
}

(* Hooks as the executor sees them. Traced runs always pass [on_round]
   (harmless: it only observes) and close each round span at the last
   hook the executor calls in that round. *)
let hooks ~traced ?on_round ?probe ?workload () =
  if not traced then (on_round, probe, workload)
  else
    let last =
      if Option.is_some workload then `Workload
      else if Option.is_some probe then `Probe
      else `On_round
    in
    ( Some (Timed.on_round ~closes:(last = `On_round) on_round),
      Option.map (Timed.probe ~closes:(last = `Probe)) probe,
      Option.map (Timed.workload ~closes:(last = `Workload)) workload )

(* One timed [Flat.Make(P).run]; [run_s] covers that call only. *)
let flat_run (module P : DP) ~traced ?channel ?churn ?motion ?workload ?states
    ?(domains = 1) ~max_rounds ~quiet_rounds rng graph =
  let module F = Ss_engine.Flat.Make (P) in
  let on_round, _, workload = hooks ~traced ?workload () in
  let churn = if traced then Option.map Timed.churn churn else churn in
  if traced then Tracer.start_run ();
  let r, run_s =
    cpu (fun () ->
        let r =
          F.run ?channel ?churn ?motion ?on_round ?workload ?states ~domains
            ~max_rounds ~quiet_rounds rng graph
        in
        if traced then Tracer.finish_run ();
        r)
  in
  ( {
      states = r.F.states;
      rounds = r.F.rounds;
      converged = r.F.converged;
      last_change_round = r.F.last_change_round;
      change_history = r.F.change_history;
      alive = r.F.alive;
      final_graph = r.F.graph;
      bursts = r.F.bursts;
    },
    run_s )

(* Where a flat workload runs: the measured flat executor, or one of the
   typed reference executors the smoke run compares it with. *)
type exec = Flat of { traced : bool; domains : int } | Sparse | Dense

let measured ~traced = Flat { traced; domains = 1 }

let execute exec params ?channel ?churn ?motion ?workload ?states ~max_rounds
    ~quiet_rounds rng graph =
  match exec with
  | Flat { traced; domains } ->
      flat_run (protocol ~traced params) ~traced ~domains ?channel ?churn ?motion
        ?workload ?states ~max_rounds ~quiet_rounds rng graph
  | Sparse | Dense ->
      let module P = Distributed.Make (struct
        let params = params
      end) in
      let module E = Engine.Make (P) in
      let mode =
        if exec = Dense then E.Dense
        else E.Sparse { warm = Some Distributed.pending_expiry }
      in
      let r, run_s =
        cpu (fun () ->
            E.run ~mode ?channel ?churn ?motion ?workload ?states ~max_rounds
              ~quiet_rounds rng graph)
      in
      ( {
          states = r.E.states;
          rounds = r.E.rounds;
          converged = r.E.converged;
          last_change_round = r.E.last_change_round;
          change_history = r.E.change_history;
          alive = r.E.alive;
          final_graph = r.E.graph;
          bursts = r.E.bursts;
        },
        run_s )

let digest r = Invariants.digest ~graph:r.final_graph ~alive:r.alive r.states

(* Observables every executor must agree on (states modulo equal_state). *)
let same_run a b =
  a.rounds = b.rounds && a.converged = b.converged
  && a.last_change_round = b.last_change_round
  && a.change_history = b.change_history
  && a.alive = b.alive && a.bursts = b.bursts
  && Graph.equal a.final_graph b.final_graph
  && digest a = digest b

(* Bit-identity, caches and clocks included: flat runs at different
   domain counts, traced or not, must agree on this. *)
let identical a b = same_run a b && a.states = b.states

(* The smoke run's cross-checks of a flat workload: [go exec] runs it at
   smoke size on [exec] and returns the run plus any workload state that
   [eq] compares. *)
let identities ?(dense = true) ?(eq = fun _ _ -> true) go =
  let base, x = go (measured ~traced:false) in
  let agrees label same exec =
    let r, y = go exec in
    (label, same base r && eq x y)
  in
  [ agrees "flat = sparse" same_run Sparse ]
  @ (if dense then [ agrees "flat = dense" same_run Dense ] else [])
  @ [
      agrees "1 domain = 2 domains" identical (Flat { traced = false; domains = 2 });
      agrees "untraced = traced" identical (measured ~traced:true);
    ]

(* ---------------------------------------------------------------- checks *)

let legitimate config ~ids r =
  let assignment = Distributed.to_assignment ~alive:r.alive r.states in
  let dag_names =
    if config.Config.use_dag_names then
      Some (Array.map (fun (st : Distributed.state) -> st.Distributed.dag) r.states)
    else None
  in
  Result.is_ok (Legitimacy.check ?dag_names config r.final_graph ~ids assignment)

(* The fusion rule's 3-hop head separation, checked by a BFS bounded to
   2 hops from every head: O(heads x degree^2), where
   [Invariants.violations] runs an unbounded BFS per head. Two heads 2
   hops apart are legal when the rule sees them tie: DAG names are unique
   among neighbours only, so such heads can carry the same name and the
   same density, and then neither dominates the other (about one seed in
   seventy of [cold_start], see README.md). Adjacent heads never are. *)
let heads_separated config r =
  let a = Distributed.to_assignment ~alive:r.alive r.states in
  let g = r.final_graph in
  let is_head p = r.alive.(p) && Assignment.is_head a p in
  let tie p q =
    let sp = r.states.(p) and sq = r.states.(q) in
    config.Config.use_dag_names
    && sp.Distributed.dag = sq.Distributed.dag
    && Option.equal Ss_cluster.Density.equal sp.Distributed.density sq.Distributed.density
  in
  let ok = ref true in
  for h = 0 to Graph.node_count g - 1 do
    if is_head h then
      Array.iter
        (fun u ->
          if is_head u then ok := false;
          Array.iter
            (fun v -> if v <> h && is_head v && not (tie h v) then ok := false)
            (Graph.neighbors g u))
        (Graph.neighbors g h)
  done;
  !ok

let head_count r =
  let a = Distributed.to_assignment ~alive:r.alive r.states in
  List.length (List.filter (fun h -> r.alive.(h)) (Assignment.heads a))

(* A cold run's ops: it converged to a legitimate configuration. *)
let converged_checks config ~ids r =
  [
    ("converged", r.converged);
    ("legitimate", legitimate config ~ids r);
    ("no ghost references", Distributed.ghost_references ~alive:r.alive r.states = 0);
    ("heads 3 hops apart or tied", (not config.Config.fusion) || heads_separated config r);
  ]

let stabilization_facts r =
  [
    ("nodes", Array.length r.states);
    ("rounds", r.rounds);
    ("last_change_round", r.last_change_round);
    ("heads", head_count r);
  ]

(* ------------------------------------------------------------ workloads *)

type spec = {
  name : string;
  executor : [ `Flat | `Engine ];
  run : size:size -> seed:int -> traced:bool -> result;
  smoke_identity : seed:int -> (string * bool) list;
      (** smoke-size cross-checks against the reference executors *)
}

(* --- cold_start: the full algorithm from init_all to quiescence ------- *)

let cold_go size seed exec =
  let s = streams seed in
  let n = match size with Full -> 22_000 | Smoke -> 1_500 in
  let graph, build_s = deployment ~n ~degree:9.0 s.(0) in
  let r, run_s = execute exec improved ~max_rounds:500 ~quiet_rounds s.(1) graph in
  (r, build_s, run_s)

let cold_start =
  {
    name = "cold_start";
    executor = `Flat;
    run =
      (fun ~size ~seed ~traced ->
        let r, build_s, run_s = cold_go size seed (measured ~traced) in
        result ~setup_s:build_s ~build_s ~run_s
          ~checks:
            (converged_checks Config.improved_with_dag
               ~ids:(Array.init (Array.length r.states) Fun.id)
               r)
          ~digest:(digest r) ~facts:(stabilization_facts r) ());
    smoke_identity =
      (fun ~seed ->
        identities (fun exec ->
            let r, _, _ = cold_go Smoke seed exec in
            (r, ())));
  }

(* --- adversarial_wave: BFS-ordered ids on a grid, no DAG --------------- *)

let wave_go size seed exec =
  let s = streams seed in
  let side = match size with Full -> 80 | Smoke -> 30 in
  let (graph, ids), setup_s =
    cpu (fun () ->
        let spacing = 1.0 /. float_of_int (side - 1) in
        let graph =
          Builders.geometric_grid ~cols:side ~rows:side ~radius:(1.5 *. spacing)
        in
        (graph, Ss_cluster.Adversarial.bfs_ids graph))
  in
  let params = { Distributed.default_params with algo = Config.basic; ids = Some ids } in
  let r, run_s =
    execute exec params ~max_rounds:((4 * side) + 100) ~quiet_rounds s.(1) graph
  in
  (r, ids, setup_s, run_s)

let adversarial_wave =
  {
    name = "adversarial_wave";
    executor = `Flat;
    run =
      (fun ~size ~seed ~traced ->
        let r, ids, setup_s, run_s = wave_go size seed (measured ~traced) in
        result ~setup_s ~build_s:setup_s ~run_s
          ~checks:(converged_checks Config.basic ~ids r)
          ~digest:(digest r) ~facts:(stabilization_facts r) ());
    smoke_identity =
      (fun ~seed ->
        identities (fun exec ->
            let r, _, _, _ = wave_go Smoke seed exec in
            (r, ())));
  }

(* --- churn_recovery: a warm network under small crash/rejoin bursts --- *)

(* DAG names and the incumbent tie-break, without the fusion rule: with
   fusion, about one seed in eight leaves a handful of nodes changing
   state every round after the last rejoin (see README.md), and a
   benchmark workload must not fail its own checks. *)
let churn_params =
  { Distributed.default_params with algo = { Config.improved_with_dag with fusion = false } }

(* Crash 0.2 % of the live nodes every 25 rounds from round 5; rejoin
   them all 12 rounds later; stop 100 rounds after the last rejoin. The
   set-up builds the deployment and converges it from init_all: the run
   starts from those states. *)
let churn_go size seed exec =
  let s = streams seed in
  let n, bursts = match size with Full -> (8_000, 24) | Smoke -> (1_500, 4) in
  let graph, build_s = deployment ~n ~degree:9.0 s.(0) in
  let warm, warm_s =
    cpu (fun () ->
        let r, _ =
          flat_run (protocol ~traced:false churn_params) ~traced:false
            ~max_rounds:500 ~quiet_rounds s.(2) graph
        in
        if not r.converged then failwith "churn_recovery: warm-up did not converge";
        r.states)
  in
  let plan =
    Churn.compose
      (List.concat
         (List.init bursts (fun i ->
              let r = 5 + (25 * i) in
              [
                Churn.crash_fraction ~round:r ~fraction:0.002;
                Churn.join_all ~round:(r + 12);
              ])))
  in
  let r, run_s =
    execute exec churn_params ~churn:plan ~states:warm
      ~max_rounds:(5 + (25 * (bursts - 1)) + 12 + 100)
      ~quiet_rounds s.(1) graph
  in
  (r, build_s, build_s +. warm_s, run_s)

let churn_recovery =
  {
    name = "churn_recovery";
    executor = `Flat;
    run =
      (fun ~size ~seed ~traced ->
        let r, build_s, setup_s, run_s = churn_go size seed (measured ~traced) in
        (* One op per burst (crashes and rejoins are separate bursts): it
           recovered before the next one or the end of the run. *)
        result ~setup_s ~build_s ~run_s
          ~checks:
            (List.map
               (fun (b : Engine.burst) ->
                 ( Printf.sprintf "burst at round %d recovered" b.Engine.burst_start,
                   Option.is_some b.Engine.recovery_rounds ))
               r.bursts)
          ~digest:(digest r)
          ~facts:
            [
              ("nodes", Array.length r.states);
              ("rounds", r.rounds);
              ("last_change_round", r.last_change_round);
              ("bursts", List.length r.bursts);
              ("alive", Array.fold_left (fun a l -> if l then a + 1 else a) 0 r.alive);
            ]
          ());
    smoke_identity =
      (fun ~seed ->
        identities (fun exec ->
            let r, _, _, _ = churn_go Smoke seed exec in
            (r, ())));
  }

(* --- traffic_burst: the data plane over the clustering ----------------- *)

(* Open-loop arrivals on a perfect control channel: Bernoulli 0.95 data
   frames, 600-unit batteries feeding crashes back into the churn plan, a
   5 % crash mid-run and a full rejoin. The run always lasts until the
   last offered message's TTL, so its length does not depend on when the
   final message happens to land. *)
let traffic_go size seed exec =
  let s = streams seed in
  let n, rate, last_offer, ttl, burst, rejoin =
    match size with
    | Full -> (4_000, 6.0, 440, 160, 300, 420)
    | Smoke -> (1_500, 6.0, 160, 64, 100, 150)
  in
  let graph, build_s = deployment ~n ~degree:12.0 s.(0) in
  let (w, churn), rest_s =
    cpu (fun () ->
        let w =
          W.create
            {
              W.default_config with
              W.seed = Rng.int s.(2) 0x3FFFFFFF;
              channel = Channel.bernoulli 0.95;
              rate;
              last_round = Some last_offer;
              ttl;
              energy = Some { W.default_energy with W.capacity = 600.0 };
            }
            ~n:(Graph.node_count graph)
        in
        ( w,
          Churn.compose
            [
              Churn.crash_fraction ~round:burst ~fraction:0.05;
              Churn.join_all ~round:rejoin;
              W.churn_feed w;
            ] ))
  in
  let max_rounds = last_offer + ttl + 8 in
  let r, run_s =
    execute exec Distributed.default_params ~churn ~workload:(W.hook w) ~max_rounds
      ~quiet_rounds:max_rounds s.(1) graph
  in
  (r, w, build_s, build_s +. rest_s, run_s)

let cohort_floor = 0.8

let traffic_burst =
  {
    name = "traffic_burst";
    executor = `Flat;
    run =
      (fun ~size ~seed ~traced ->
        let r, w, build_s, setup_s, run_s = traffic_go size seed (measured ~traced) in
        let t = W.totals w in
        (* An op is one 20-round cohort of offered messages (by birth
           round); it fails when under 80 % of them arrive within their
           TTL. Single messages are lost to the injected crashes by design
           (their holder dies), so per-message delivery is pinned, not
           judged. *)
        let checks =
          List.filter_map
            (fun (co : W.cohort) ->
              if co.W.c_offered = 0 then None
              else
                Some
                  ( Printf.sprintf "cohort from round %d delivered %.3f < %.2f"
                      co.W.c_start co.W.c_ratio cohort_floor,
                    co.W.c_ratio >= cohort_floor ))
            (W.cohorts ~window:20 w)
        in
        result ~setup_s ~build_s ~run_s ~checks ~digest:(digest r)
          ~facts:
            [
              ("nodes", Array.length r.states);
              ("rounds", r.rounds);
              ("offered", t.W.offered);
              ("delivered", t.W.delivered);
              ("expired", t.W.expired);
              ("died", t.W.died);
              ("attempts", t.W.attempts);
            ]
          ~extra:
            [
              ("workload.attempts", float_of_int t.W.attempts, "count");
              ( "workload.retry_ratio",
                float_of_int t.W.failures /. float_of_int (max 1 t.W.attempts),
                "ratio" );
              ("workload.latency_mean_rounds", Summary.mean t.W.latency, "rounds");
              ("workload.latency_max_rounds", Summary.maximum t.W.latency, "rounds");
            ]
          ());
    smoke_identity =
      (fun ~seed ->
        identities ~dense:false ~eq:W.equal (fun exec ->
            let r, w, _, _, _ = traffic_go Smoke seed exec in
            (r, w)));
  }

(* --- byzantine_sweep: many small typed runs under Oscillators ---------- *)

module type TP =
  Protocol.S
    with type state = Distributed.state
     and type message = Distributed.message

module Improved = Distributed.Make (struct
  let params = improved
end)

type replicate = {
  settled : bool;  (** converged, or outputs in a periodic cycle *)
  contained : bool;
  worst_radius : int;
  r_digest : int64;
  r_rounds : int;
  r_history : int list;
}

(* One replicate over a fixed horizon: a jittered-grid deployment (its
   cost varies far less between seeds than a uniform one's at this
   size), 5 Oscillators live from round 1, a 5 % crash at round 20
   rejoining at 40, and the invariant monitor probing containment every
   round. *)
let byz_replicate ~side ~rounds ~traced rng =
  let (graph, byz), build_s =
    cpu (fun () ->
        let n = side * side in
        let graph =
          Graph.unit_disk ~radius:(radius_for ~degree:9.0 n)
            (Ss_geom.Point_process.jittered_grid rng ~cols:side ~rows:side
               ~box:Ss_geom.Bbox.unit_square ~jitter:0.4)
        in
        (graph, Array.to_list (Array.sub (Rng.permutation rng n) 0 5)))
  in
  let adv_key = Rng.key_of rng in
  let module PI =
    (val if traced then (module Timed.Typed (Timed.Distributed_layers) (Improved) : TP)
         else (module Improved : TP))
  in
  let module Q =
    Adversary.Wrap
      (PI)
      (struct
        type message = Distributed.message

        let key = adv_key
        let roles = List.map (fun p -> (p, Adversary.Oscillator)) byz
        let from_round = 1
        let forge = Distributed.forge
      end)
  in
  let module QS = struct
    module type S = Protocol.S with type state = Q.state and type message = Q.message
  end in
  let module QE =
    (val if traced then (module Timed.Typed (Timed.Adversary_layers) (Q) : QS.S)
         else (module Q : QS.S))
  in
  let module E = Engine.Make (QE) in
  let (monitor, churn), rest_s =
    cpu (fun () ->
        ( Invariants.monitor_via
            ~adversary:
              { Monitor.dist = Adversary.distances graph byz; horizon = 2; active_from = 1 }
            ~project:Q.project ~config:Config.improved_with_dag
            ~ids:(Array.init (Graph.node_count graph) Fun.id)
            (),
          Churn.compose
            [ Churn.crash_fraction ~round:20 ~fraction:0.05; Churn.join_all ~round:40 ] ))
  in
  let churn = if traced then Timed.churn churn else churn in
  let on_round, probe, _ =
    hooks ~traced ~on_round:(Monitor.on_round monitor) ~probe:(Monitor.probe monitor) ()
  in
  if traced then Tracer.start_run ();
  let (r, report), run_s =
    cpu (fun () ->
        let r =
          E.run
            ~mode:(E.Sparse { warm = Some (Q.warm Distributed.pending_expiry) })
            ~churn ?on_round ?probe ~quiet_rounds:rounds ~max_rounds:rounds rng graph
        in
        let report = Monitor.report monitor ~converged:r.E.converged in
        if traced then Tracer.finish_run ();
        (r, report))
  in
  let containment =
    match report.Monitor.containment with
    | Some c -> c
    | None -> failwith "byzantine_sweep: monitor reported no containment"
  in
  ( {
      settled = report.Monitor.classification <> Monitor.Still_changing;
      contained = containment.Monitor.contained;
      worst_radius = containment.Monitor.worst_radius;
      r_digest =
        Invariants.digest ~graph:r.E.graph ~alive:r.E.alive (Array.map Q.project r.E.states);
      r_rounds = r.E.rounds;
      r_history = r.E.change_history;
    },
    (build_s, build_s +. rest_s),
    run_s )

let byzantine_sweep =
  let config = function Full -> (10, 9, 70) | Smoke -> (2, 12, 60) in
  {
    name = "byzantine_sweep";
    executor = `Engine;
    run =
      (fun ~size ~seed ~traced ->
        let replicates, side, rounds = config size in
        let outcomes =
          List.mapi
            (fun i rng ->
              match byz_replicate ~side ~rounds ~traced rng with
              | v -> Ok v
              | exception e ->
                  Error (Printf.sprintf "replicate %d raised %s" i (Printexc.to_string e)))
            (Array.to_list (Rng.split_n (streams seed).(1) replicates))
        in
        let reps = List.filter_map Result.to_option outcomes in
        let sum f = List.fold_left (fun a (r, b, s) -> a +. f (r, b, s)) 0.0 reps in
        let count p = List.length (List.filter (fun (r, _, _) -> p r) reps) in
        (* One op per replicate: it ran without raising and its outputs
           settled (a fixpoint or a periodic cycle). Under a permanent
           adversary global convergence is not the bar. *)
        result
          ~setup_s:(sum (fun (_, (_, s), _) -> s))
          ~build_s:(sum (fun (_, (b, _), _) -> b))
          ~run_s:(sum (fun (_, _, s) -> s))
          ~checks:
            (List.mapi
               (fun i -> function
                 | Ok (r, _, _) -> (Printf.sprintf "replicate %d settled" i, r.settled)
                 | Error msg -> (msg, false))
               outcomes)
          ~digest:
            (List.fold_left
               (fun h (r, _, _) -> Int64.add (Int64.mul h 0x100000001b3L) r.r_digest)
               0L reps)
          ~facts:
            [
              ("replicates", replicates);
              ("rounds", List.fold_left (fun a (r, _, _) -> a + r.r_rounds) 0 reps);
              ("contained", count (fun r -> r.contained));
              ( "worst_radius",
                List.fold_left (fun a (r, _, _) -> max a r.worst_radius) 0 reps );
            ]
          ());
    smoke_identity =
      (fun ~seed ->
        let _, side, rounds = config Smoke in
        let go traced =
          let r, _, _ = byz_replicate ~side ~rounds ~traced (Rng.split_n (streams seed).(1) 1).(0) in
          r
        in
        let a = go false and b = go true in
        [ ("untraced = traced", a.r_digest = b.r_digest && a.r_history = b.r_history) ]);
  }

(* --- lossy_mobile: a lossy control channel and pedestrian motion ------- *)

(* 10 % of the nodes walk at pedestrian speed, one second per round; the
   motion hook steps them, moves them in the incremental unit-disk
   maintainer and hands the executor the flushed edge diff. *)
let mobile_go size seed exec =
  let s = streams seed in
  let n, rounds = match size with Full -> (3_000, 60) | Smoke -> (1_000, 40) in
  let radius = radius_for ~degree:9.0 n in
  let (motion, graph), build_s =
    cpu (fun () ->
        let g = Builders.random_geometric_count s.(0) ~count:n ~radius in
        let motion = Motion.create ~radius (Option.get (Graph.positions g)) in
        (motion, Motion.graph motion))
  in
  let (fleet, movers), rest_s =
    cpu (fun () ->
        let movers = Array.sub (Rng.permutation s.(2) n) 0 (n / 10) in
        Array.sort Int.compare movers;
        ( Fleet.create s.(2) ~model:Model.pedestrian ~box:Ss_geom.Bbox.unit_square
            (Array.map (Motion.position motion) movers),
          movers ))
  in
  let traced = match exec with Flat { traced; _ } -> traced | Sparse | Dense -> false in
  let flips = ref 0 in
  let hook ~round:_ =
    let moved =
      Timed.span traced Tracer.mob_step (fun () ->
          Fleet.step_moved fleet 1.0 (fun i p -> Motion.move motion movers.(i) p))
    in
    if traced then Tracer.add Tracer.c_moved moved;
    if moved = 0 then None
    else begin
      let diff = Timed.span traced Tracer.topo_flush (fun () -> Motion.flush motion) in
      let k = diff.Motion.n_added + diff.Motion.n_removed in
      flips := !flips + k;
      if traced then Tracer.add Tracer.c_edge_flips k;
      Some (Motion.graph motion, diff)
    end
  in
  let r, run_s =
    execute exec Distributed.default_params ~channel:(Channel.bernoulli 0.9)
      ~motion:hook ~max_rounds:rounds ~quiet_rounds:rounds s.(1) graph
  in
  let incremental_ok =
    r.rounds = rounds
    && Graph.equal (Motion.graph motion) (Graph.unit_disk ~radius (Motion.positions motion))
  in
  (r, !flips, incremental_ok, build_s, build_s +. rest_s, run_s)

let lossy_mobile =
  {
    name = "lossy_mobile";
    executor = `Flat;
    run =
      (fun ~size ~seed ~traced ->
        let r, flips, ok, build_s, setup_s, run_s = mobile_go size seed (measured ~traced) in
        result ~setup_s ~build_s ~run_s
          ~checks:[ ("ran the full horizon, incremental topology = rebuild", ok) ]
          ~digest:(digest r)
          ~facts:
            [
              ("nodes", Array.length r.states);
              ("rounds", r.rounds);
              ("edge_flips", flips);
              ("heads", head_count r);
            ]
          ());
    smoke_identity =
      (fun ~seed ->
        identities (fun exec ->
            let r, _, _, _, _, _ = mobile_go Smoke seed exec in
            (r, ())));
  }

let all =
  [ cold_start; adversarial_wave; churn_recovery; traffic_burst; byzantine_sweep; lossy_mobile ]

let find name = List.find_opt (fun w -> w.name = name) all
