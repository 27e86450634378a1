module Graph = Ss_topology.Graph
module Builders = Ss_topology.Builders
module Traversal = Ss_topology.Traversal
module Cluster = Ss_cluster
module Config = Ss_cluster.Config
module Algorithm = Ss_cluster.Algorithm
module Assignment = Ss_cluster.Assignment
module Order = Ss_cluster.Order
module Density = Ss_cluster.Density
module Metrics = Ss_cluster.Metrics
module Rng = Ss_prng.Rng

let run ?(seed = 60) ?(config = Config.basic) ?scheduler ?init_heads graph ids =
  let rng = Rng.create ~seed in
  Algorithm.run ?scheduler ?init_heads rng config graph ~ids

let random_world rng ~n ~p =
  let graph = Builders.gnp rng ~n ~p in
  let ids = Rng.permutation rng n in
  (graph, ids)

(* ------------------------------------------------------- basic behaviour *)

let test_isolated_nodes_self_head () =
  let graph = Graph.of_edges ~n:3 [] in
  let outcome = run graph [| 2; 0; 1 |] in
  Alcotest.(check bool) "converged" true outcome.Algorithm.converged;
  for p = 0 to 2 do
    Alcotest.(check bool) "own head" true
      (Assignment.is_head outcome.Algorithm.assignment p)
  done

let test_two_neighbors_never_both_heads () =
  (* The paper: "two neighbors can not be both cluster-heads". *)
  let rng = Rng.create ~seed:61 in
  for _ = 1 to 30 do
    let graph, ids = random_world rng ~n:40 ~p:0.1 in
    let outcome = run graph ids in
    let a = outcome.Algorithm.assignment in
    Graph.iter_edges graph (fun p q ->
        Alcotest.(check bool)
          (Printf.sprintf "edge %d-%d" p q)
          false
          (Assignment.is_head a p && Assignment.is_head a q))
  done

let test_head_is_local_max () =
  (* Every head beats all its neighbors in ≺. *)
  let rng = Rng.create ~seed:62 in
  for _ = 1 to 20 do
    let graph, ids = random_world rng ~n:50 ~p:0.08 in
    let outcome = run graph ids in
    let a = outcome.Algorithm.assignment in
    let key p =
      Order.key ~value:outcome.Algorithm.values.(p)
        ~id:outcome.Algorithm.effective_ids.(p)
        ~incumbent:(Assignment.is_head a p)
    in
    Graph.iter_nodes graph (fun p ->
        if Assignment.is_head a p then
          Array.iter
            (fun q ->
              Alcotest.(check bool)
                (Printf.sprintf "neighbor %d of head %d" q p)
                true
                (Order.precedes ~tie:Order.Id_only (key q) (key p)))
            (Graph.neighbors graph p))
  done

let test_parent_is_max_neighbor () =
  (* Non-heads join max≺ of their neighborhood (the paper's F function). *)
  let rng = Rng.create ~seed:63 in
  let graph, ids = random_world rng ~n:60 ~p:0.08 in
  let outcome = run graph ids in
  let a = outcome.Algorithm.assignment in
  let key p =
    Order.key ~value:outcome.Algorithm.values.(p)
      ~id:outcome.Algorithm.effective_ids.(p)
      ~incumbent:false
  in
  Graph.iter_nodes graph (fun p ->
      if not (Assignment.is_head a p) then begin
        let f = Assignment.parent a p in
        Array.iter
          (fun q ->
            Alcotest.(check bool)
              (Printf.sprintf "parent of %d dominates neighbor %d" p q)
              true
              (q = f
              || Order.compare ~tie:Order.Id_only (key q) (key f) < 0))
          (Graph.neighbors graph p)
      end)

let test_validates_on_random_graphs () =
  let rng = Rng.create ~seed:64 in
  List.iter
    (fun config ->
      for _ = 1 to 15 do
        let graph, ids = random_world rng ~n:50 ~p:0.1 in
        let outcome =
          run ~config ~scheduler:Algorithm.Sequential graph ids
        in
        Alcotest.(check bool) "converged" true outcome.Algorithm.converged;
        match Assignment.validate graph outcome.Algorithm.assignment with
        | Ok () -> ()
        | Error ps ->
            Alcotest.failf "invalid (%a): %a" Config.pp config
              Fmt.(list ~sep:comma Assignment.pp_problem)
              ps
      done)
    [ Config.basic; Config.with_dag; Config.improved; Config.improved_with_dag ]

let test_deterministic () =
  let rng = Rng.create ~seed:65 in
  let graph, ids = random_world rng ~n:50 ~p:0.1 in
  let a = run ~seed:9 graph ids and b = run ~seed:9 graph ids in
  Alcotest.(check bool) "same result" true
    (Assignment.equal a.Algorithm.assignment b.Algorithm.assignment)

let test_idempotent_rerun () =
  (* Re-running from the converged heads must change nothing (fixpoint). *)
  let rng = Rng.create ~seed:66 in
  let graph, ids = random_world rng ~n:50 ~p:0.1 in
  List.iter
    (fun config ->
      let first = run ~config ~scheduler:Algorithm.Sequential graph ids in
      let heads =
        Array.init (Graph.node_count graph) (fun p ->
            Assignment.head first.Algorithm.assignment p)
      in
      let second =
        run ~config ~scheduler:Algorithm.Sequential ~init_heads:heads graph ids
      in
      Alcotest.(check bool)
        (Fmt.str "fixpoint (%a)" Config.pp config)
        true
        (Assignment.equal first.Algorithm.assignment
           second.Algorithm.assignment))
    [ Config.basic; Config.improved ]

let test_schedulers_agree_for_basic () =
  (* For the basic configuration, parent choices are static, so both
     schedules end at the same unique fixpoint. *)
  let rng = Rng.create ~seed:67 in
  for _ = 1 to 10 do
    let graph, ids = random_world rng ~n:50 ~p:0.08 in
    let sync = run ~scheduler:Algorithm.Synchronous graph ids in
    let seq = run ~scheduler:Algorithm.Sequential graph ids in
    Alcotest.(check bool) "same fixpoint" true
      (Assignment.equal sync.Algorithm.assignment seq.Algorithm.assignment)
  done

let test_rounds_bounded_by_depth () =
  (* Synchronous stabilization takes tree-depth + O(1) rounds. *)
  let rng = Rng.create ~seed:68 in
  let graph, ids = random_world rng ~n:80 ~p:0.06 in
  let outcome = run graph ids in
  let depth =
    Graph.fold_nodes graph
      (fun acc p ->
        match Assignment.tree_depth outcome.Algorithm.assignment p with
        | Some d -> max acc d
        | None -> acc)
      0
  in
  Alcotest.(check bool)
    (Printf.sprintf "rounds %d vs depth %d" outcome.Algorithm.rounds depth)
    true
    (outcome.Algorithm.rounds <= depth + 3)

(* ----------------------------------------------------------- refinements *)

let test_incumbent_sticky () =
  (* At equal density, a warm-started head survives challengers with
     smaller ids. Take a 4-cycle: all densities equal; ids favor node 0,
     but node 2 is the incumbent. *)
  let graph = Builders.cycle 4 in
  let ids = [| 0; 1; 2; 3 |] in
  let cold = run ~config:Config.improved graph ids in
  Alcotest.(check bool) "cold start elects node 0" true
    (Assignment.is_head cold.Algorithm.assignment 0);
  let warm =
    run ~config:Config.improved ~init_heads:[| 2; 2; 2; 2 |] graph ids
  in
  Alcotest.(check bool) "incumbent 2 survives" true
    (Assignment.is_head warm.Algorithm.assignment 2);
  Alcotest.(check bool) "challenger 0 defers" false
    (Assignment.is_head warm.Algorithm.assignment 0);
  (* Without the incumbent rule the challenger takes over. *)
  let plain = run ~config:Config.basic ~init_heads:[| 2; 2; 2; 2 |] graph ids in
  Alcotest.(check bool) "basic rule lets 0 win" true
    (Assignment.is_head plain.Algorithm.assignment 0)

(* A negative head is the one [init_heads] value on which the kernel's
   "join a head-less target: hold" would show; no caller produces one
   ([Distributed.to_assignment] and [corrupt] give heads >= 0), so the
   run rejects it, naming the node and the value. *)
let test_negative_init_head_rejected () =
  let graph = Builders.cycle 4 in
  match run ~init_heads:[| 0; 0; -7; 0 |] graph [| 0; 1; 2; 3 |] with
  | _ -> Alcotest.fail "init_heads.(2) = -7 accepted"
  | exception Invalid_argument msg ->
      Alcotest.(check string) "message" "Algorithm.run: init_heads.(2) = -7 is negative" msg

(* The election reads names per neighbor without bounds checks, so a
   [dag_names] array of the wrong length is rejected up front. *)
let test_short_dag_names_rejected () =
  let graph = Builders.cycle 4 and ids = [| 0; 1; 2; 3 |] in
  match
    Algorithm.run ~dag_names:[| 0; 1; 2 |] (Rng.create ~seed:1)
      Config.with_dag graph ~ids
  with
  | _ -> Alcotest.fail "3 names for 4 nodes accepted"
  | exception Invalid_argument msg ->
      Alcotest.(check string) "message" "Algorithm.run: dag_names length mismatch" msg

let test_fusion_enforces_separation () =
  (* With the fusion rule, converged heads are at least 3 hops apart. *)
  let rng = Rng.create ~seed:69 in
  for _ = 1 to 10 do
    let graph = Builders.random_geometric rng ~intensity:200.0 ~radius:0.12 in
    let ids = Rng.permutation rng (Graph.node_count graph) in
    let outcome =
      run ~config:Config.improved ~scheduler:Algorithm.Sequential graph ids
    in
    Alcotest.(check bool) "converged" true outcome.Algorithm.converged;
    match Metrics.min_head_separation graph outcome.Algorithm.assignment with
    | Some separation ->
        Alcotest.(check bool)
          (Printf.sprintf "separation %d >= 3" separation)
          true (separation >= 3)
    | None -> ()
  done

let test_fusion_path_two_heads_merge () =
  (* Hand-built fusion case: two stars joined by a bridge node put their
     hubs exactly 2 hops apart; fusion must demote one hub. *)
  let edges =
    [ (0, 2); (0, 3); (0, 4); (1, 5); (1, 6); (1, 7); (0, 8); (1, 8) ]
  in
  let graph = Graph.of_edges ~n:9 edges in
  let ids = Array.init 9 Fun.id in
  let without =
    run ~config:Config.basic ~scheduler:Algorithm.Sequential graph ids
  in
  let hubs_without =
    List.filter
      (fun h -> h = 0 || h = 1)
      (Assignment.heads without.Algorithm.assignment)
  in
  Alcotest.(check int) "both hubs head without fusion" 2
    (List.length hubs_without);
  let with_fusion =
    run ~config:Config.improved ~scheduler:Algorithm.Sequential graph ids
  in
  let hubs_with =
    List.filter
      (fun h -> h = 0 || h = 1)
      (Assignment.heads with_fusion.Algorithm.assignment)
  in
  Alcotest.(check int) "one hub demoted by fusion" 1 (List.length hubs_with);
  match Assignment.validate graph with_fusion.Algorithm.assignment with
  | Ok () -> ()
  | Error ps ->
      Alcotest.failf "invalid after fusion: %a"
        Fmt.(list ~sep:comma Assignment.pp_problem)
        ps

let test_dag_config_uses_names () =
  let rng = Rng.create ~seed:70 in
  let graph, ids = random_world rng ~n:40 ~p:0.15 in
  let outcome = run ~config:Config.with_dag graph ids in
  (match outcome.Algorithm.dag with
  | Some dag ->
      Alcotest.(check bool) "names valid" true
        (Cluster.Dag_id.is_valid graph dag.Cluster.Dag_id.names);
      Alcotest.(check bool) "effective ids are the names" true
        (outcome.Algorithm.effective_ids = dag.Cluster.Dag_id.names)
  | None -> Alcotest.fail "expected a DAG result");
  let plain = run ~config:Config.basic graph ids in
  Alcotest.(check bool) "plain uses global ids" true
    (plain.Algorithm.effective_ids = ids)

let test_supplied_dag_names_used () =
  let graph = Builders.path 4 in
  let ids = [| 0; 1; 2; 3 |] in
  let names = [| 1; 0; 1; 0 |] in
  let rng = Rng.create ~seed:1 in
  let outcome = Algorithm.run ~dag_names:names rng Config.with_dag graph ~ids in
  Alcotest.(check bool) "uses supplied names" true
    (outcome.Algorithm.effective_ids = names)

(* ROADMAP item 1's fusion livelock, reduced to five nodes. Under
   [Config.improved_with_dag] the lockstep rules cycle with period 2:
   heads alternate between 3,3,3,3,0 and 0,3,3,3,3. The central daemon
   converges, and so does lockstep execution once any one of fusion, the
   incumbent tie-break or the DAG names is taken away (with the id
   tie-break in place of the incumbent one). The cycle needs all three.
   This pins today's rules; a fix to them flips the first check to
   expecting convergence. [Suite_distributed] runs the protocol on the
   same witness. *)
let livelock_graph =
  Graph.of_edges ~n:5 [ (0, 1); (0, 4); (1, 2); (1, 3); (1, 4); (2, 3) ]

let livelock_names = [| 2; 1; 2; 0; 0 |]
let livelock_heads = [| 1; 0; 2; 3; 0 |]

let livelock_run ?scheduler ~max_rounds config =
  Algorithm.run ?scheduler ~max_rounds ~dag_names:livelock_names
    ~init_heads:livelock_heads (Rng.create ~seed:1) config livelock_graph
    ~ids:(Array.init 5 Fun.id)

let heads_of outcome =
  Array.init 5 (Assignment.head outcome.Algorithm.assignment)

let test_fusion_livelock_witness () =
  let cfg = Config.improved_with_dag in
  let a = [| 3; 3; 3; 3; 0 |] and b = [| 0; 3; 3; 3; 3 |] in
  List.iter
    (fun rounds ->
      let o = livelock_run ~scheduler:Algorithm.Synchronous ~max_rounds:rounds cfg in
      Alcotest.(check bool)
        (Printf.sprintf "synchronous: not converged in %d rounds" rounds)
        false o.Algorithm.converged;
      let h = heads_of o in
      Alcotest.(check bool)
        (Printf.sprintf "synchronous: heads after %d rounds on the 2-cycle"
           rounds)
        true
        (h = a || h = b);
      let next =
        heads_of
          (livelock_run ~scheduler:Algorithm.Synchronous
             ~max_rounds:(rounds + 1) cfg)
      in
      Alcotest.(check bool)
        (Printf.sprintf "synchronous: round %d flips the heads" (rounds + 1))
        true
        ((h = a && next = b) || (h = b && next = a)))
    [ 300; 301 ];
  let converges ?scheduler tag config bound =
    let o = livelock_run ?scheduler ~max_rounds:50 config in
    Alcotest.(check bool) (tag ^ ": converges") true o.Algorithm.converged;
    Alcotest.(check bool)
      (Printf.sprintf "%s: within %d rounds (took %d)" tag bound
         o.Algorithm.rounds)
      true
      (o.Algorithm.rounds <= bound)
  in
  converges ~scheduler:Algorithm.Sequential "sequential" cfg 4;
  let sync = Algorithm.Synchronous in
  converges ~scheduler:sync "with_dag" Config.with_dag 5;
  converges ~scheduler:sync "improved" Config.improved 5;
  converges ~scheduler:sync "names + fusion, id tie-break"
    { cfg with Config.tie = Order.Id_only }
    5;
  converges ~scheduler:sync "improved_with_dag without fusion"
    { cfg with Config.fusion = false }
    5

let test_adversarial_grid_story () =
  (* The Table 5 behaviour on a small grid: row-major ids without the DAG
     give exactly one cluster; with the DAG, several. *)
  let graph = Builders.geometric_grid ~cols:12 ~rows:12 ~radius:(0.05 *. 32.0 /. 12.0) in
  let ids = Array.init (Graph.node_count graph) Fun.id in
  let no_dag = run ~config:Config.basic graph ids in
  Alcotest.(check int) "one cluster without DAG" 1
    (Assignment.cluster_count no_dag.Algorithm.assignment);
  let with_dag = run ~config:Config.with_dag graph ids in
  Alcotest.(check bool) "several clusters with DAG" true
    (Assignment.cluster_count with_dag.Algorithm.assignment > 3)

let test_metric_baselines_run () =
  let rng = Rng.create ~seed:71 in
  let graph, ids = random_world rng ~n:50 ~p:0.1 in
  List.iter
    (fun metric ->
      let config = Config.make ~metric () in
      let outcome = run ~config graph ids in
      Alcotest.(check bool)
        (Cluster.Metric.to_string metric ^ " converges")
        true outcome.Algorithm.converged;
      match Assignment.validate graph outcome.Algorithm.assignment with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "baseline produced invalid assignment")
    [ Cluster.Metric.Density; Cluster.Metric.Degree; Cluster.Metric.Uniform ]

let test_lowest_id_baseline_semantics () =
  (* Under the Uniform metric every head has the locally smallest id. *)
  let rng = Rng.create ~seed:72 in
  let graph, ids = random_world rng ~n:50 ~p:0.1 in
  let outcome = run ~config:(Config.make ~metric:Cluster.Metric.Uniform ()) graph ids in
  let a = outcome.Algorithm.assignment in
  Graph.iter_nodes graph (fun p ->
      if Assignment.is_head a p then
        Array.iter
          (fun q ->
            Alcotest.(check bool)
              (Printf.sprintf "head %d has smaller id than %d" p q)
              true
              (ids.(p) < ids.(q)))
          (Graph.neighbors graph p))

(* --------------------------------------------------------------- qcheck *)

let qcheck_world =
  QCheck.make
    ~print:(fun (n, p, seed) -> Printf.sprintf "n=%d p=%.2f seed=%d" n p seed)
    QCheck.Gen.(
      triple (int_range 1 60) (float_range 0.0 0.3) (int_range 0 10_000))

let prop_converges_and_validates =
  QCheck.Test.make ~name:"random graphs: converge and validate" ~count:150
    qcheck_world (fun (n, p, seed) ->
      let rng = Rng.create ~seed in
      let graph = Builders.gnp rng ~n ~p in
      let ids = Rng.permutation rng n in
      let outcome =
        Algorithm.run ~scheduler:Algorithm.Sequential rng Config.improved_with_dag
          graph ~ids
      in
      outcome.Algorithm.converged
      && Assignment.validate graph outcome.Algorithm.assignment = Ok ())

let prop_neighbors_not_both_heads =
  QCheck.Test.make ~name:"random graphs: no adjacent heads" ~count:150
    qcheck_world (fun (n, p, seed) ->
      let rng = Rng.create ~seed in
      let graph = Builders.gnp rng ~n ~p in
      let ids = Rng.permutation rng n in
      let a = Algorithm.cluster rng Config.basic graph ~ids in
      let ok = ref true in
      Graph.iter_edges graph (fun u v ->
          if Assignment.is_head a u && Assignment.is_head a v then ok := false);
      !ok)

let prop_every_node_has_reachable_head =
  QCheck.Test.make ~name:"random graphs: head in same component" ~count:100
    qcheck_world (fun (n, p, seed) ->
      let rng = Rng.create ~seed in
      let graph = Builders.gnp rng ~n ~p in
      let ids = Rng.permutation rng n in
      let a = Algorithm.cluster rng Config.basic graph ~ids in
      let comp, _ = Traversal.components graph in
      let ok = ref true in
      Graph.iter_nodes graph (fun u ->
          if comp.(Assignment.head a u) <> comp.(u) then ok := false);
      !ok)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_converges_and_validates;
      prop_neighbors_not_both_heads;
      prop_every_node_has_reachable_head;
    ]

let suite =
  [
    Alcotest.test_case "isolated nodes are their own heads" `Quick
      test_isolated_nodes_self_head;
    Alcotest.test_case "no adjacent heads" `Quick
      test_two_neighbors_never_both_heads;
    Alcotest.test_case "heads are local maxima" `Quick test_head_is_local_max;
    Alcotest.test_case "parents are max neighbors" `Quick
      test_parent_is_max_neighbor;
    Alcotest.test_case "all configurations validate" `Quick
      test_validates_on_random_graphs;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "idempotent re-run" `Quick test_idempotent_rerun;
    Alcotest.test_case "schedulers agree (basic)" `Quick
      test_schedulers_agree_for_basic;
    Alcotest.test_case "rounds bounded by tree depth" `Quick
      test_rounds_bounded_by_depth;
    Alcotest.test_case "incumbent tie-break is sticky" `Quick
      test_incumbent_sticky;
    Alcotest.test_case "a negative initial head is rejected" `Quick
      test_negative_init_head_rejected;
    Alcotest.test_case "DAG names of the wrong length are rejected" `Quick
      test_short_dag_names_rejected;
    Alcotest.test_case "fusion enforces 3-hop separation" `Quick
      test_fusion_enforces_separation;
    Alcotest.test_case "fusion demotes one of two close hubs" `Quick
      test_fusion_path_two_heads_merge;
    Alcotest.test_case "DAG config uses N1 names" `Quick
      test_dag_config_uses_names;
    Alcotest.test_case "supplied DAG names are used" `Quick
      test_supplied_dag_names_used;
    Alcotest.test_case "fusion livelock witness (5 nodes)" `Quick
      test_fusion_livelock_witness;
    Alcotest.test_case "adversarial grid story" `Quick
      test_adversarial_grid_story;
    Alcotest.test_case "metric baselines run" `Quick test_metric_baselines_run;
    Alcotest.test_case "lowest-id baseline semantics" `Quick
      test_lowest_id_baseline_semantics;
  ]
  @ qcheck_cases
