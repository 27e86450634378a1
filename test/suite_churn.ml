module Graph = Ss_topology.Graph
module Dynamic = Ss_topology.Dynamic
module Builders = Ss_topology.Builders
module Engine = Ss_engine.Engine
module Churn = Ss_engine.Churn
module Scheduler = Ss_engine.Scheduler
module Config = Ss_cluster.Config
module Algorithm = Ss_cluster.Algorithm
module Assignment = Ss_cluster.Assignment
module Distributed = Ss_cluster.Distributed
module Legitimacy = Ss_cluster.Legitimacy
module Counter = Ss_stats.Counter
module Rng = Ss_prng.Rng

let rng () = Rng.create ~seed:1234

(* ---------------------------------------------------------------- Dynamic *)

let test_dynamic_crash_isolates () =
  let dyn = Dynamic.create (Builders.path 5) in
  Alcotest.(check bool) "pristine at start" true (Dynamic.pristine dyn);
  Alcotest.(check bool) "snapshot is base while pristine" true
    (Dynamic.snapshot dyn == Dynamic.base dyn);
  Alcotest.(check bool) "crash applies" true (Dynamic.crash dyn 2);
  Alcotest.(check bool) "crash is idempotent" false (Dynamic.crash dyn 2);
  let g = Dynamic.snapshot dyn in
  Alcotest.(check int) "crashed node isolated" 0 (Graph.degree g 2);
  Alcotest.(check (array int)) "neighbor loses the edge" [| 0 |]
    (Graph.neighbors g 1);
  Alcotest.(check bool) "mask reflects the crash" false (Dynamic.is_alive dyn 2);
  Alcotest.(check int) "alive count" 4 (Dynamic.alive_count dyn);
  Alcotest.(check (list int)) "crashed list" [ 2 ]
    (Dynamic.nodes_with dyn Dynamic.Crashed)

let test_dynamic_transitions () =
  let dyn = Dynamic.create (Builders.path 3) in
  Alcotest.(check bool) "wake needs asleep" false (Dynamic.wake dyn 0);
  Alcotest.(check bool) "join needs crashed" false (Dynamic.join dyn 0);
  Alcotest.(check bool) "sleep applies" true (Dynamic.sleep dyn 0);
  Alcotest.(check bool) "sleeping node can crash" true (Dynamic.crash dyn 0);
  Alcotest.(check bool) "crashed node cannot wake" false (Dynamic.wake dyn 0);
  Alcotest.(check bool) "join revives" true (Dynamic.join dyn 0);
  Alcotest.(check bool) "alive again" true (Dynamic.is_alive dyn 0);
  Alcotest.(check bool) "back to pristine" true (Dynamic.pristine dyn)

let test_dynamic_link_toggle () =
  let dyn = Dynamic.create (Builders.complete 4) in
  Alcotest.(check bool) "down applies" true (Dynamic.link_down dyn 1 0);
  Alcotest.(check bool) "down is idempotent" false (Dynamic.link_down dyn 0 1);
  let g = Dynamic.snapshot dyn in
  Alcotest.(check bool) "edge gone" false (Graph.mem_edge g 0 1);
  Alcotest.(check bool) "reverse gone too" false (Graph.mem_edge g 1 0);
  Alcotest.(check bool) "other edges intact" true (Graph.mem_edge g 0 2);
  Alcotest.(check (list (pair int int))) "down list normalized" [ (0, 1) ]
    (Dynamic.down_list dyn);
  Alcotest.(check bool) "up restores" true (Dynamic.link_up dyn 0 1);
  Alcotest.(check bool) "up is idempotent" false (Dynamic.link_up dyn 0 1);
  Alcotest.(check bool) "restored edge back" true
    (Graph.mem_edge (Dynamic.snapshot dyn) 0 1);
  Alcotest.check_raises "non-edge rejected"
    (Invalid_argument "Dynamic: not a link of the base graph") (fun () ->
      ignore (Dynamic.link_down (Dynamic.create (Builders.path 3)) 0 2))

let test_dynamic_snapshot_cached () =
  let dyn = Dynamic.create (Builders.cycle 6) in
  ignore (Dynamic.crash dyn 0);
  let a = Dynamic.snapshot dyn in
  let b = Dynamic.snapshot dyn in
  Alcotest.(check bool) "same physical graph without events" true (a == b);
  ignore (Dynamic.join dyn 0);
  let c = Dynamic.snapshot dyn in
  Alcotest.(check bool) "rebuilt after event" true (c != b);
  Alcotest.(check int) "full cycle restored" 6 (Graph.node_count c);
  Alcotest.(check int) "edges restored" 6 (Graph.edge_count c)

let test_dynamic_snapshot_positions_carried () =
  (* Patched snapshots must keep carrying the base graph's positions. *)
  let rng = Rng.create ~seed:7 in
  let graph = Builders.random_geometric_count rng ~count:30 ~radius:0.3 in
  let dyn = Dynamic.create graph in
  ignore (Dynamic.crash dyn 3);
  let snap = Dynamic.snapshot dyn in
  Alcotest.(check bool) "positions shared with the base" true
    (Graph.positions snap == Graph.positions graph)

let test_dynamic_back_to_pristine_restores_base () =
  (* Returning to the pristine state hands back the base graph itself, no
     matter how the overlay got there. *)
  let dyn = Dynamic.create (Builders.complete 5) in
  ignore (Dynamic.link_down dyn 0 1);
  ignore (Dynamic.crash dyn 2);
  ignore (Dynamic.snapshot dyn);
  ignore (Dynamic.link_up dyn 0 1);
  ignore (Dynamic.join dyn 2);
  Alcotest.(check bool) "pristine" true (Dynamic.pristine dyn);
  Alcotest.(check bool) "snapshot is the base graph" true
    (Dynamic.snapshot dyn == Dynamic.base dyn)

(* The incremental-snapshot acceptance property: over random event plans —
   crash/join/sleep/wake/link-down/link-up in several bursts with a
   snapshot taken after each burst, so rows are patched on top of already
   patched snapshots — the patched snapshot is structurally identical to
   the reference full rebuild, every time. *)
let prop_patch_matches_rebuild =
  QCheck.Test.make ~name:"dynamic: patched snapshot = full rebuild"
    ~count:1000
    (QCheck.make
       ~print:(fun (n, p, seed) ->
         Printf.sprintf "n=%d p=%.2f seed=%d" n p seed)
       QCheck.Gen.(
         triple (int_range 1 40) (float_range 0.0 0.3) (int_range 0 99_999)))
    (fun (n, p, seed) ->
      let rng = Rng.create ~seed in
      let graph = Builders.gnp rng ~n ~p in
      let dyn = Dynamic.create graph in
      let edges = Array.of_list (Graph.edges graph) in
      let random_edge () = edges.(Rng.int rng (Array.length edges)) in
      let ok = ref true in
      let bursts = 1 + Rng.int rng 4 in
      for _ = 1 to bursts do
        let events = 1 + Rng.int rng 6 in
        for _ = 1 to events do
          let v = Rng.int rng n in
          match Rng.int rng (if Array.length edges = 0 then 4 else 6) with
          | 0 -> ignore (Dynamic.crash dyn v)
          | 1 -> ignore (Dynamic.join dyn v)
          | 2 -> ignore (Dynamic.sleep dyn v)
          | 3 -> ignore (Dynamic.wake dyn v)
          | 4 ->
              let a, b = random_edge () in
              ignore (Dynamic.link_down dyn a b)
          | _ ->
              let a, b = random_edge () in
              ignore (Dynamic.link_up dyn a b)
        done;
        let snap = Dynamic.snapshot dyn in
        let reference = Dynamic.materialize dyn in
        ok :=
          !ok
          && Graph.equal snap reference
          && Graph.is_symmetric snap
          && (not (Dynamic.pristine dyn) || snap == Dynamic.base dyn)
      done;
      !ok)

let qcheck_cases = List.map QCheck_alcotest.to_alcotest [ prop_patch_matches_rebuild ]

(* ------------------------------------------------------------------ Churn *)

let test_schedule_events_at () =
  let plan =
    Churn.schedule [ (2, [ Churn.Crash 0 ]); (5, [ Churn.Join 0; Churn.Crash 1 ]) ]
  in
  let dyn = Dynamic.create (Builders.path 3) in
  let r = rng () in
  Alcotest.(check int) "silent round" 0
    (List.length (Churn.events_at plan ~round:1 dyn r));
  Alcotest.(check int) "round 2 fires" 1
    (List.length (Churn.events_at plan ~round:2 dyn r));
  Alcotest.(check int) "round 5 fires both" 2
    (List.length (Churn.events_at plan ~round:5 dyn r));
  Alcotest.check_raises "round 0 rejected"
    (Invalid_argument "Churn.schedule: rounds start at 1") (fun () ->
      ignore (Churn.schedule [ (0, []) ]))

let test_horizon () =
  let check_opt = Alcotest.(check (option int)) in
  check_opt "schedule horizon" (Some 7)
    (Churn.horizon (Churn.schedule [ (3, []); (7, []); (2, []) ]));
  check_opt "canned burst horizon" (Some 40)
    (Churn.horizon (Churn.crash_fraction ~round:40 ~fraction:0.5));
  check_opt "window horizon" (Some 50)
    (Churn.horizon (Churn.link_flap ~first:40 ~last:50 ~p_down:0.1 ()));
  check_opt "compose takes the max" (Some 50)
    (Churn.horizon
       (Churn.compose
          [
            Churn.crash_fraction ~round:40 ~fraction:0.5;
            Churn.link_flap ~first:10 ~last:50 ~p_down:0.1 ();
          ]));
  check_opt "unbounded generator" None
    (Churn.horizon (Churn.generator (fun ~round:_ _ _ -> [])))

let test_crash_fraction_targets_alive () =
  let dyn = Dynamic.create (Builders.complete 10) in
  ignore (Dynamic.crash dyn 0);
  ignore (Dynamic.crash dyn 1);
  let plan = Churn.crash_fraction ~round:3 ~fraction:0.5 in
  let events = Churn.events_at plan ~round:3 dyn (rng ()) in
  (* ceil (0.5 * 8 alive) = 4 distinct alive victims. *)
  Alcotest.(check int) "victim count" 4 (List.length events);
  let victims =
    List.map (function Churn.Crash p -> p | _ -> Alcotest.fail "not a crash")
      events
  in
  Alcotest.(check bool) "victims distinct" true
    (List.length (List.sort_uniq compare victims) = List.length victims);
  List.iter
    (fun p ->
      Alcotest.(check bool) "victim was alive" true (Dynamic.is_alive dyn p))
    victims

let test_join_all_and_links_up_all () =
  let dyn = Dynamic.create (Builders.complete 4) in
  ignore (Dynamic.crash dyn 1);
  ignore (Dynamic.crash dyn 3);
  ignore (Dynamic.link_down dyn 0 2);
  let joins = Churn.events_at (Churn.join_all ~round:9) ~round:9 dyn (rng ()) in
  Alcotest.(check int) "one join per crashed node" 2 (List.length joins);
  let ups =
    Churn.events_at (Churn.links_up_all ~round:9) ~round:9 dyn (rng ())
  in
  Alcotest.(check (list (pair int int))) "one up per downed link" [ (0, 2) ]
    (List.map
       (function Churn.Link_up (p, q) -> (p, q) | _ -> Alcotest.fail "not up")
       ups)

let test_windowed_plans_respect_window () =
  let dyn = Dynamic.create (Builders.complete 6) in
  let r = rng () in
  let plan = Churn.bernoulli_crash ~first:5 ~last:8 ~p_crash:1.0 () in
  Alcotest.(check int) "before window" 0
    (List.length (Churn.events_at plan ~round:4 dyn r));
  Alcotest.(check int) "inside window" 6
    (List.length (Churn.events_at plan ~round:5 dyn r));
  Alcotest.(check int) "after window" 0
    (List.length (Churn.events_at plan ~round:9 dyn r))

(* --------------------------------------------------- Engine under churn *)

(* Same toy protocol as suite_engine: flood the maximum value seen. *)
module Floodmax = struct
  type state = int

  type message = int

  let init _rng graph p = Graph.node_count graph - p

  let emit _graph _p st = st

  let handle _rng _graph _p st msgs =
    List.fold_left (fun acc (_, v) -> max acc v) st msgs

  let equal_state = Int.equal
end

module E = Engine.Make (Floodmax)

let test_crash_silences_node () =
  (* Node 0 holds the max (10); crashing it before its first broadcast
     leaves the survivors flooding 9. *)
  let g = Builders.path 10 in
  let churn = Churn.schedule [ (1, [ Churn.Crash 0 ]) ] in
  let result = E.run ~churn (rng ()) g in
  Alcotest.(check bool) "converged" true result.E.converged;
  Alcotest.(check bool) "node 0 dead" false result.E.alive.(0);
  Alcotest.(check int) "frozen state" 10 result.E.states.(0);
  for p = 1 to 9 do
    Alcotest.(check int) "survivors carry 9" 9 result.E.states.(p)
  done;
  Alcotest.(check int) "snapshot isolates the dead node" 0
    (Graph.degree result.E.graph 0)

let test_join_reinitializes () =
  (* Crash the max-holder, then rejoin it: Join re-runs P.init, so the 10
     re-enters the network and floods everywhere. *)
  let g = Builders.path 10 in
  let churn =
    Churn.schedule [ (1, [ Churn.Crash 0 ]); (15, [ Churn.Join 0 ]) ]
  in
  let result = E.run ~churn ~quiet_rounds:2 (rng ()) g in
  Alcotest.(check bool) "converged" true result.E.converged;
  Alcotest.(check bool) "node 0 back" true result.E.alive.(0);
  Array.iter
    (fun st -> Alcotest.(check int) "max restored everywhere" 10 st)
    result.E.states;
  Alcotest.(check bool) "full topology restored" true
    (Graph.edge_count result.E.graph = 9)

let test_sleep_retains_state () =
  (* Sleeping node 0 keeps its 10 and spreads it after waking. *)
  let g = Builders.path 6 in
  let churn =
    Churn.schedule [ (1, [ Churn.Sleep 0 ]); (12, [ Churn.Wake 0 ]) ]
  in
  let result = E.run ~churn ~quiet_rounds:2 (rng ()) g in
  Alcotest.(check bool) "converged" true result.E.converged;
  Array.iter
    (fun st -> Alcotest.(check int) "retained max everywhere" 6 st)
    result.E.states

let test_horizon_keeps_run_alive () =
  (* Floodmax on a short path converges in a handful of rounds; a crash
     scheduled at round 30 must still fire even with quiet_rounds = 1. *)
  let g = Builders.path 5 in
  let churn = Churn.schedule [ (30, [ Churn.Crash 4 ]) ] in
  let result = E.run ~churn (rng ()) g in
  Alcotest.(check bool) "ran past the scheduled event" true
    (result.E.rounds >= 30);
  Alcotest.(check bool) "event applied" false result.E.alive.(4);
  match result.E.bursts with
  | [ b ] ->
      Alcotest.(check int) "burst at the scheduled round" 30
        b.Engine.burst_start;
      Alcotest.(check int) "one event" 1 b.Engine.burst_events;
      Alcotest.(check bool) "recovery measured" true
        (b.Engine.recovery_rounds <> None)
  | bs -> Alcotest.failf "expected one burst, got %d" (List.length bs)

let test_noop_events_not_counted () =
  let g = Builders.path 4 in
  let churn =
    Churn.schedule
      [ (2, [ Churn.Crash 0; Churn.Crash 0; Churn.Wake 1; Churn.Link_up (1, 2) ]) ]
  in
  let counter = Counter.create () in
  let result =
    E.run ~churn
      ~on_event:(fun ~round:_ ev -> Counter.incr counter (Churn.event_label ev))
      (rng ()) g
  in
  Alcotest.(check int) "only the first crash applied" 1 (Counter.total counter);
  Alcotest.(check int) "crash counted" 1 (Counter.count counter "crash");
  match result.E.bursts with
  | [ b ] -> Alcotest.(check int) "burst counts applied events" 1 b.Engine.burst_events
  | _ -> Alcotest.fail "expected one burst"

let test_adjacent_event_rounds_merge_into_one_burst () =
  let g = Builders.complete 8 in
  let churn =
    Churn.schedule
      [
        (3, [ Churn.Crash 0 ]); (4, [ Churn.Crash 1 ]); (5, [ Churn.Crash 2 ]);
        (20, [ Churn.Join 0 ]);
      ]
  in
  let result = E.run ~churn ~quiet_rounds:2 (rng ()) g in
  match result.E.bursts with
  | [ storm; rejoin ] ->
      Alcotest.(check int) "storm starts at 3" 3 storm.Engine.burst_start;
      Alcotest.(check int) "storm ends at 5" 5 storm.Engine.burst_end;
      Alcotest.(check int) "storm pooled events" 3 storm.Engine.burst_events;
      Alcotest.(check int) "rejoin burst" 20 rejoin.Engine.burst_start;
      List.iter
        (fun b ->
          Alcotest.(check bool) "finite recovery" true
            (b.Engine.recovery_rounds <> None))
        result.E.bursts
  | bs -> Alcotest.failf "expected two bursts, got %d" (List.length bs)

let test_corrupt_without_function_raises () =
  let g = Builders.path 3 in
  let churn = Churn.schedule [ (2, [ Churn.Corrupt 0 ]) ] in
  Alcotest.check_raises "missing ~corrupt"
    (Invalid_argument "Engine.run: churn plan emits Corrupt but no ~corrupt given")
    (fun () -> ignore (E.run ~churn (rng ()) g));
  (* The flat entry shares the run loop and must still name itself. *)
  let module P = Distributed.Make (struct
    let params = Distributed.default_params
  end) in
  let module F = Ss_engine.Flat.Make (P) in
  Alcotest.check_raises "missing ~corrupt (flat)"
    (Invalid_argument "Flat.run: churn plan emits Corrupt but no ~corrupt given")
    (fun () -> ignore (F.run ~churn (rng ()) g))

let test_probe_sees_liveness () =
  let g = Builders.path 5 in
  let churn = Churn.schedule [ (3, [ Churn.Crash 2 ]) ] in
  let dead_seen = ref 0 in
  let _ =
    E.run ~churn
      ~probe:(fun ~round:_ ~graph:_ ~alive _states ->
        if not alive.(2) then incr dead_seen)
      (rng ()) g
  in
  Alcotest.(check bool) "probe observed the crash" true (!dead_seen > 0)

let test_fault_to_churn () =
  (* A corruption-only plan in the churn DSL: zeroing two nodes after
     convergence forces a re-flood back to the fixpoint. *)
  let g = Builders.path 6 in
  let churn = Churn.corrupt_count ~round:12 ~count:2 in
  let corrupt _ _ _ = 0 in
  let counter = Counter.create () in
  let result =
    E.run ~churn ~corrupt ~quiet_rounds:2
      ~on_event:(fun ~round:_ ev -> Counter.incr counter (Churn.event_label ev))
      (rng ()) g
  in
  Alcotest.(check bool) "converged" true result.E.converged;
  Alcotest.(check int) "two corruptions applied" 2
    (Counter.count counter "corrupt");
  Array.iter
    (fun st -> Alcotest.(check int) "healed" 6 st)
    result.E.states

(* ------------------------------------- Distributed protocol under churn *)

module PD = Distributed.Make (struct
  let params = Distributed.default_params
end)

module ED = Engine.Make (PD)

let quiet = Distributed.default_params.Distributed.cache_ttl + 2

let oracle_of graph =
  Algorithm.cluster (Rng.create ~seed:1) Config.basic graph
    ~ids:(Array.init (Graph.node_count graph) Fun.id)

let test_crash_quarter_recovers_legitimate () =
  (* The acceptance scenario: >= 20% of the nodes crash mid-run and stay
     dead; the survivors re-elect in place and the final configuration is
     legitimate on the surviving topology, under both schedulers. *)
  List.iter
    (fun scheduler ->
      let rng = Rng.create ~seed:31 in
      let graph = Builders.gnp rng ~n:50 ~p:0.1 in
      let churn = Churn.crash_fraction ~round:30 ~fraction:0.25 in
      let result =
        ED.run ~scheduler ~churn ~quiet_rounds:quiet ~max_rounds:3000 rng graph
      in
      Alcotest.(check bool) "reconverged in place" true result.ED.converged;
      let dead =
        Array.fold_left
          (fun acc a -> if a then acc else acc + 1)
          0 result.ED.alive
      in
      Alcotest.(check bool) ">= 20% crashed" true (dead >= 10);
      let assignment =
        Distributed.to_assignment ~alive:result.ED.alive result.ED.states
      in
      let ids = Array.init (Graph.node_count graph) Fun.id in
      Alcotest.(check bool) "legitimate on the surviving topology" true
        (Legitimacy.is_legitimate Config.basic result.ED.graph ~ids assignment);
      Alcotest.(check int) "no ghost references remain" 0
        (Distributed.ghost_references ~alive:result.ED.alive result.ED.states))
    [ Scheduler.Synchronous; Scheduler.Random_order ]

let test_crash_join_cycle_restores_configuration () =
  (* Crash a third of the network, then rejoin everyone: the run must come
     back to the unique pre-crash legitimate configuration without a
     restart. *)
  let rng = Rng.create ~seed:8 in
  let graph = Builders.gnp rng ~n:50 ~p:0.1 in
  let churn =
    Churn.compose
      [ Churn.crash_fraction ~round:30 ~fraction:0.3; Churn.join_all ~round:60 ]
  in
  let result = ED.run ~churn ~quiet_rounds:quiet ~max_rounds:3000 rng graph in
  Alcotest.(check bool) "converged" true result.ED.converged;
  Alcotest.(check bool) "everyone back" true
    (Array.for_all Fun.id result.ED.alive);
  let after = Distributed.to_assignment result.ED.states in
  Alcotest.(check bool) "same fixpoint as the oracle" true
    (Assignment.equal after (oracle_of graph));
  let ids = Array.init (Graph.node_count graph) Fun.id in
  Alcotest.(check bool) "legitimate" true
    (Legitimacy.is_legitimate Config.basic result.ED.graph ~ids after)

let test_link_flap_storm_recovers () =
  let rng = Rng.create ~seed:19 in
  let graph = Builders.gnp rng ~n:40 ~p:0.12 in
  let churn =
    Churn.compose
      [
        Churn.link_flap ~first:25 ~last:32 ~p_down:0.08 ~p_up:0.3 ();
        Churn.links_up_all ~round:45;
      ]
  in
  let result = ED.run ~churn ~quiet_rounds:quiet ~max_rounds:3000 rng graph in
  Alcotest.(check bool) "converged" true result.ED.converged;
  Alcotest.(check bool) "all links restored" true
    (Graph.edge_count result.ED.graph = Graph.edge_count graph);
  let after = Distributed.to_assignment result.ED.states in
  Alcotest.(check bool) "oracle fixpoint after the storm" true
    (Assignment.equal after (oracle_of graph))

let test_ghosts_spike_then_drain () =
  (* Right after a crash burst the survivors still cache the dead and may
     head-reference them; within the cache TTL the ghosts must drain to
     zero. *)
  let rng = Rng.create ~seed:23 in
  let graph = Builders.gnp rng ~n:50 ~p:0.1 in
  let churn = Churn.crash_fraction ~round:30 ~fraction:0.3 in
  let peak = ref 0 in
  let result =
    ED.run ~churn ~quiet_rounds:quiet ~max_rounds:3000
      ~probe:(fun ~round:_ ~graph:_ ~alive states ->
        peak := max !peak (Distributed.ghost_references ~alive states))
      rng graph
  in
  Alcotest.(check bool) "converged" true result.ED.converged;
  Alcotest.(check bool) "ghosts appeared after the burst" true (!peak > 0);
  Alcotest.(check int) "ghosts drained by the end" 0
    (Distributed.ghost_references ~alive:result.ED.alive result.ED.states)

(* A lossy-channel instance: cache entries must outlive slotted-channel
   frame loss, so the TTL is raised well above the default. *)
module PD_lossy = Distributed.Make (struct
  let params = { Distributed.default_params with Distributed.cache_ttl = 8 }
end)

module EL = Engine.Make (PD_lossy)

let test_combined_adversity_recovers () =
  (* Every adversity class at once: transient state corruption as
     [Churn.corrupt_count], a contended slotted channel, and a
     crash-then-rejoin storm — one run, one plan. Self-stabilization
     demands the network still settle into a safe configuration: the final
     assignment is legitimate and no ghost references survive. *)
  let rng = Rng.create ~seed:47 in
  let graph = Builders.gnp rng ~n:40 ~p:0.12 in
  let churn =
    Churn.compose
      [
        Churn.crash_fraction ~round:25 ~fraction:0.2;
        Churn.corrupt_count ~round:40 ~count:10;
        Churn.join_all ~round:70;
      ]
  in
  let result =
    EL.run
      ~channel:(Ss_radio.Channel.slotted ~slots:24)
      ~churn ~corrupt:Distributed.corrupt ~quiet_rounds:10 ~max_rounds:5000 rng graph
  in
  Alcotest.(check bool) "converged under combined adversity" true
    result.EL.converged;
  Alcotest.(check bool) "everyone rejoined" true
    (Array.for_all Fun.id result.EL.alive);
  let after = Distributed.to_assignment result.EL.states in
  let ids = Array.init (Graph.node_count graph) Fun.id in
  Alcotest.(check bool) "legitimate after combined adversity" true
    (Legitimacy.is_legitimate Config.basic result.EL.graph ~ids after);
  Alcotest.(check int) "no ghost references" 0
    (Distributed.ghost_references ~alive:result.EL.alive result.EL.states)

(* -------------------------------------------------------------- Exp_churn *)

(* A probe may keep the graphs it is handed: a probed run must not patch
   a past round's snapshot in place. Keep every round's graph with a copy
   of its rows through crashes, joins and link flaps, then check that no
   kept graph moved since its round. *)
let test_probed_snapshots_outlive_their_round () =
  let graph = Builders.geometric_grid ~cols:5 ~rows:4 ~radius:0.3 in
  let n = Graph.node_count graph in
  let p, q = List.hd (Graph.edges graph) in
  let churn =
    Churn.schedule
      [
        (3, [ Churn.Crash 7; Churn.Link_down (p, q) ]);
        (5, [ Churn.Sleep 12 ]);
        (8, [ Churn.Join 7; Churn.Link_up (p, q) ]);
        (10, [ Churn.Wake 12; Churn.Crash 3 ]);
      ]
  in
  let kept = ref [] in
  let probe ~round:_ ~graph ~alive:_ _states =
    kept :=
      (graph, Array.init n (fun v -> Array.copy (Graph.neighbors graph v)))
      :: !kept
  in
  let result =
    ED.run
      ~mode:(ED.Sparse { warm = Some Distributed.pending_expiry })
      ~churn ~probe ~quiet_rounds:quiet (rng ()) graph
  in
  Alcotest.(check bool) "probed every round" true
    (List.length !kept = result.ED.rounds);
  List.iter
    (fun (g, rows) ->
      for v = 0 to n - 1 do
        Alcotest.(check (array int))
          "kept snapshot unchanged" rows.(v) (Graph.neighbors g v)
      done)
    !kept

let test_exp_churn_small () =
  (* Acceptance: finite recovery for every burst, legitimate and converged,
     under both schedulers. Miniature deployment to stay quick. *)
  let rows =
    Ss_experiments.Sweep.rows
      (Ss_experiments.Exp_churn.sweep ~seed:5 ~runs:1
         ~spec:(Ss_experiments.Scenario.uniform ~count:40 ~radius:0.2 ())
         ~storms:
           [ Ss_experiments.Exp_churn.Crash_recover;
             Ss_experiments.Exp_churn.Combined ]
         ())
  in
  Alcotest.(check int) "2 schedulers x 2 storms" 4 (List.length rows);
  List.iter
    (fun r ->
      let open Ss_experiments.Exp_churn in
      Alcotest.(check bool) "bursts observed" true (r.bursts > 0);
      Alcotest.(check int) "every burst recovered finitely" r.bursts r.recovered;
      Alcotest.(check int) "legitimate" r.runs r.legitimate;
      Alcotest.(check int) "converged" r.runs r.converged)
    rows

let suite =
  [
    Alcotest.test_case "dynamic: crash isolates" `Quick test_dynamic_crash_isolates;
    Alcotest.test_case "dynamic: status transitions" `Quick
      test_dynamic_transitions;
    Alcotest.test_case "dynamic: link toggling" `Quick test_dynamic_link_toggle;
    Alcotest.test_case "dynamic: snapshot caching" `Quick
      test_dynamic_snapshot_cached;
    Alcotest.test_case "dynamic: snapshot carries positions" `Quick
      test_dynamic_snapshot_positions_carried;
    Alcotest.test_case "dynamic: back to pristine restores base" `Quick
      test_dynamic_back_to_pristine_restores_base;
    Alcotest.test_case "churn: schedule emits at rounds" `Quick
      test_schedule_events_at;
    Alcotest.test_case "churn: horizons" `Quick test_horizon;
    Alcotest.test_case "churn: crash_fraction targets alive nodes" `Quick
      test_crash_fraction_targets_alive;
    Alcotest.test_case "churn: join_all / links_up_all" `Quick
      test_join_all_and_links_up_all;
    Alcotest.test_case "churn: windows respected" `Quick
      test_windowed_plans_respect_window;
    Alcotest.test_case "engine: crash silences a node" `Quick
      test_crash_silences_node;
    Alcotest.test_case "engine: join reinitializes" `Quick
      test_join_reinitializes;
    Alcotest.test_case "engine: sleep retains state" `Quick
      test_sleep_retains_state;
    Alcotest.test_case "engine: horizon keeps run alive" `Quick
      test_horizon_keeps_run_alive;
    Alcotest.test_case "engine: no-op events not counted" `Quick
      test_noop_events_not_counted;
    Alcotest.test_case "engine: adjacent event rounds merge" `Quick
      test_adjacent_event_rounds_merge_into_one_burst;
    Alcotest.test_case "engine: Corrupt needs ~corrupt" `Quick
      test_corrupt_without_function_raises;
    Alcotest.test_case "engine: probe sees liveness" `Quick
      test_probe_sees_liveness;
    Alcotest.test_case "fault plans lift into churn" `Quick test_fault_to_churn;
    Alcotest.test_case "distributed: 25% crash recovers legitimately" `Quick
      test_crash_quarter_recovers_legitimate;
    Alcotest.test_case "distributed: crash+join restores the configuration"
      `Quick test_crash_join_cycle_restores_configuration;
    Alcotest.test_case "distributed: link flap storm recovers" `Quick
      test_link_flap_storm_recovers;
    Alcotest.test_case "distributed: ghosts spike then drain" `Quick
      test_ghosts_spike_then_drain;
    Alcotest.test_case "distributed: combined adversity recovers" `Quick
      test_combined_adversity_recovers;
    Alcotest.test_case "exp_churn: finite recovery everywhere" `Slow
      test_exp_churn_small;
    Alcotest.test_case "engine: probed snapshots outlive their round" `Quick
      test_probed_snapshots_outlive_their_round;
  ]
  @ qcheck_cases
