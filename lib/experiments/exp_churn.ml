(* Extension experiment C1: recovery under within-run churn.

   A single engine run per (scheduler, storm) pair per seed: the stack
   converges on a Poisson deployment at paper densities, then the churn
   plan hits it mid-run — crash storms, link flapping, sleep/wake cycles,
   state corruption — and the protocol must recover in place, with no
   restart and no rebuilt topology. We record the engine's per-burst
   recovery times, the peak number of ghost references (alive nodes still
   naming vanished neighbors as parent/head or caching their frames), the
   applied events by type, and whether the final configuration is
   legitimate on the final effective topology. *)

module Graph = Ss_topology.Graph
module Rng = Ss_prng.Rng
module Scheduler = Ss_engine.Scheduler
module Churn = Ss_engine.Churn
module Config = Ss_cluster.Config
module Distributed = Ss_cluster.Distributed
module Legitimacy = Ss_cluster.Legitimacy
module Table = Ss_stats.Table
module Summary = Ss_stats.Summary
module Counter = Ss_stats.Counter

module P = Distributed.Make (struct
  let params = Distributed.default_params
end)

module E = Ss_engine.Engine.Make (P)

(* Quiet-round target above the cache TTL: pending expiries and in-flight
   relays can leave isolated output-quiet rounds mid-convergence. *)
let quiet_rounds = Distributed.default_params.Distributed.cache_ttl + 2

type storm =
  | Crash_recover  (** 25% of the nodes crash, later all rejoin *)
  | Crash_permanent  (** 25% crash and stay dead *)
  | Link_flaps  (** a link-flapping storm, then full link restoration *)
  | Sleep_wake  (** 30% sleep, later wake with retained state *)
  | Combined  (** crashes + flaps + sleep + corruption, staggered *)
  | Corrupt of float  (** this fraction of the nodes corrupted at once *)

let default_storms =
  [ Crash_recover; Crash_permanent; Link_flaps; Sleep_wake; Combined ]

let storm_label = function
  | Crash_recover -> "crash 25% + rejoin"
  | Crash_permanent -> "crash 25% (permanent)"
  | Link_flaps -> "link flap storm"
  | Sleep_wake -> "sleep 30% + wake"
  | Combined -> "combined"
  | Corrupt fraction -> Printf.sprintf "corrupt %.0f%%" (100.0 *. fraction)

(* First burst well past cold-start convergence (typically < 30 rounds at
   intensity 300, R = 0.1); restoration bursts spaced so each storm phase
   can settle and be measured on its own. *)
let plan_of_storm = function
  | Crash_recover ->
      Churn.compose
        [
          Churn.crash_fraction ~round:40 ~fraction:0.25;
          Churn.join_all ~round:80;
        ]
  | Crash_permanent -> Churn.crash_fraction ~round:40 ~fraction:0.25
  | Link_flaps ->
      Churn.compose
        [
          Churn.link_flap ~first:40 ~last:50 ~p_down:0.04 ~p_up:0.25 ();
          Churn.links_up_all ~round:75;
        ]
  | Sleep_wake ->
      Churn.compose
        [
          Churn.sleep_fraction ~round:40 ~fraction:0.3;
          Churn.wake_all ~round:70;
        ]
  | Combined ->
      Churn.compose
        [
          Churn.crash_fraction ~round:40 ~fraction:0.2;
          Churn.link_flap ~first:55 ~last:60 ~p_down:0.03 ~p_up:0.3 ();
          Churn.join_all ~round:75;
          Churn.links_up_all ~round:90;
          Churn.sleep_fraction ~round:100 ~fraction:0.15;
          Churn.wake_all ~round:115;
          Churn.corrupt_fraction ~round:130 ~fraction:0.2;
        ]
  | Corrupt fraction -> Churn.corrupt_fraction ~round:40 ~fraction

type row = {
  scheduler : Scheduler.t;
  storm : storm;
  runs : int;
  bursts : int; (* event bursts observed across all runs *)
  recovered : int; (* bursts with a finite recovery time *)
  recovery : Summary.t; (* recovery rounds over recovered bursts *)
  peak_ghosts : Summary.t; (* per-run maximum ghost-reference count *)
  events : Counter.t; (* applied events by type, pooled over runs *)
  legitimate : int; (* runs ending in a legitimate configuration *)
  converged : int;
}

(* What one run reports; everything the row aggregates, gathered without
   touching state shared between runs so the runs can execute on any
   number of domains. *)
type outcome = {
  run_converged : bool;
  run_bursts : int option list; (* per burst: recovery rounds if finite *)
  run_peak_ghosts : int;
  run_events : Counter.t;
  run_legitimate : bool;
}

let run_one ~spec ~max_rounds (scheduler, storm) rng =
  let world = Scenario.build rng spec in
  let graph = world.Scenario.graph in
  let ghosts = ref 0 in
  let events = Counter.create () in
  let result =
    E.run
      ~mode:(E.Sparse { warm = Some Distributed.pending_expiry })
      ~scheduler ~quiet_rounds ~max_rounds ~churn:(plan_of_storm storm)
      ~corrupt:Distributed.corrupt
      ~on_event:(fun ~round:_ ev -> Counter.incr events (Churn.event_label ev))
      ~probe:(fun ~round:_ ~graph:_ ~alive states ->
        ghosts := max !ghosts (Distributed.ghost_references ~alive states))
      rng graph
  in
  let ids = Array.init (Graph.node_count graph) Fun.id in
  let assignment =
    Distributed.to_assignment ~alive:result.E.alive result.E.states
  in
  {
    run_converged = result.E.converged;
    run_bursts =
      List.map (fun b -> b.Ss_engine.Engine.recovery_rounds) result.E.bursts;
    run_peak_ghosts = !ghosts;
    run_events = events;
    run_legitimate =
      Legitimacy.is_legitimate Config.basic result.E.graph ~ids assignment;
  }

let fold (scheduler, storm) (runs : outcome Sweep.runs) =
  let bursts = ref 0 in
  let recovered = ref 0 in
  let recovery = Summary.create () in
  let peak_ghosts = Summary.create () in
  let events = ref (Counter.create ()) in
  let legitimate = ref 0 in
  let converged = ref 0 in
  List.iter
    (fun o ->
      if o.run_converged then incr converged;
      List.iter
        (fun b ->
          incr bursts;
          match b with
          | Some r ->
              incr recovered;
              Summary.add_int recovery r
          | None -> ())
        o.run_bursts;
      Summary.add_int peak_ghosts o.run_peak_ghosts;
      events := Counter.merge !events o.run_events;
      if o.run_legitimate then incr legitimate)
    (Sweep.completed runs);
  {
    scheduler;
    storm;
    runs = List.length runs.Sweep.outcomes;
    bursts = !bursts;
    recovered = !recovered;
    recovery;
    peak_ghosts;
    events = !events;
    legitimate = !legitimate;
    converged = !converged;
  }

let default_spec = Scenario.poisson ~intensity:300.0 ~radius:0.1 ()

let default_schedulers = [ Scheduler.Synchronous; Scheduler.Random_order ]

let sweep ?(seed = 42) ?(runs = 5) ?(spec = default_spec)
    ?(schedulers = default_schedulers) ?(storms = default_storms)
    ?(max_rounds = 2_000) () =
  {
    Sweep.label =
      (fun (scheduler, storm) ->
        Fmt.str "%a/%s" Scheduler.pp scheduler (storm_label storm));
    cells =
      List.concat_map
        (fun scheduler -> List.map (fun storm -> (scheduler, storm)) storms)
        schedulers;
    runs = (fun _ -> runs);
    seed = (fun _ -> seed);
    run = run_one ~spec ~max_rounds;
    judge = Sweep.raised_only;
    fold;
  }

let to_table rows =
  let t =
    Table.create ~title:"Churn — in-place recovery from topology events"
      ~header:
        [
          "scheduler"; "storm"; "bursts"; "recovered"; "mean recovery";
          "max recovery"; "peak ghosts"; "legitimate"; "converged";
        ]
      ()
  in
  Table.add_rows t
    (List.map
       (fun r ->
         [
           Fmt.str "%a" Scheduler.pp r.scheduler;
           storm_label r.storm;
           Table.cell_int r.bursts;
           Printf.sprintf "%d/%d" r.recovered r.bursts;
           Table.cell_float ~decimals:1 (Summary.mean r.recovery);
           Table.cell_float ~decimals:0 (Summary.maximum r.recovery);
           Table.cell_float ~decimals:1 (Summary.mean r.peak_ghosts);
           Printf.sprintf "%d/%d" r.legitimate r.runs;
           Printf.sprintf "%d/%d" r.converged r.runs;
         ])
       rows)

let events_table rows =
  let t =
    Table.create ~title:"Churn — applied events by type"
      ~header:[ "scheduler"; "storm"; "events" ]
      ~aligns:[ Table.Right; Table.Right; Table.Left ] ()
  in
  Table.add_rows t
    (List.map
       (fun r ->
         [
           Fmt.str "%a" Scheduler.pp r.scheduler;
           storm_label r.storm;
           String.concat ", "
             (List.map
                (fun (k, v) -> Printf.sprintf "%s=%d" k v)
                (Counter.to_list r.events));
         ])
       rows)
