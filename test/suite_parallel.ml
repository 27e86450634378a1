(* The determinism contract of the domain-parallel sweep: every registered
   experiment driver must produce results at ~domains:4 that are
   structurally identical — exact float equality, not tolerance — to the
   sequential ~domains:1 run, and the Pool itself must preserve index
   order, propagate exceptions and survive reuse. Scales are miniature;
   the point is bit-equality, not statistics. *)

module E = Ss_experiments
module Scenario = E.Scenario
module Pool = Ss_stats.Pool
module Counter = Ss_stats.Counter
module Rng = Ss_prng.Rng

(* Polymorphic [compare] rather than [=]: summaries of empty run sets hold
   nan means, and nan = nan must count as equal here. *)
let check_identical name a b =
  Alcotest.(check bool) name true (compare a b = 0)

(* ------------------------------------------------------------------ Pool *)

let test_pool_index_order () =
  let a =
    Pool.with_pool ~domains:4 (fun p -> Pool.map p 100 (fun i -> i * i))
  in
  Alcotest.(check bool) "squares in order" true
    (a = Array.init 100 (fun i -> i * i))

let test_pool_domains_exceed_items () =
  let a =
    Pool.with_pool ~domains:8 (fun p -> Pool.map p 3 (fun i -> i + 1))
  in
  Alcotest.(check bool) "3 items on 8 domains" true (a = [| 1; 2; 3 |])

let test_pool_sequential_matches_parallel () =
  let f i = float_of_int i ** 1.5 in
  let seq = Pool.with_pool ~domains:1 (fun p -> Pool.map p 64 f) in
  let par = Pool.with_pool ~domains:4 (fun p -> Pool.map p 64 f) in
  check_identical "map at 1 domain = map at 4" seq par

let test_pool_reuse () =
  Pool.with_pool ~domains:3 (fun pool ->
      Alcotest.(check int) "three domains" 3 (Pool.domains pool);
      let a = Pool.map pool 10 (fun i -> i) in
      let b = Pool.map pool 7 (fun i -> 10 * i) in
      Alcotest.(check bool) "first map" true (a = Array.init 10 Fun.id);
      Alcotest.(check bool) "second map" true
        (b = Array.init 7 (fun i -> 10 * i)))

let test_pool_exception_lowest_index () =
  let raised =
    try
      ignore
        (Pool.with_pool ~domains:4 (fun p ->
             Pool.map p 32 (fun i ->
                 if i >= 5 then failwith (string_of_int i) else i)));
      None
    with Failure msg -> Some msg
  in
  Alcotest.(check (option string)) "lowest failing index wins" (Some "5") raised

let test_pool_raising_task_contained () =
  (* A raising task must not deadlock the pool, orphan a worker, or
     suppress the other items: everything else still executes, the
     lowest-index exception is re-raised, and the pool remains usable —
     identically on the sequential (1-domain) and parallel (4-domain)
     paths. *)
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          let executed = Array.make 32 false in
          let raised =
            try
              ignore
                (Pool.map pool 32 (fun i ->
                     executed.(i) <- true;
                     if i = 7 || i = 20 then failwith (string_of_int i);
                     i));
              None
            with Failure msg -> Some msg
          in
          Alcotest.(check (option string))
            (Printf.sprintf "domains %d: lowest index re-raised" domains)
            (Some "7") raised;
          Alcotest.(check bool)
            (Printf.sprintf "domains %d: every item still executed" domains)
            true
            (Array.for_all Fun.id executed);
          (* No orphaned worker / wedged state: the same pool still maps. *)
          let again = Pool.map pool 5 (fun i -> i * 3) in
          Alcotest.(check bool)
            (Printf.sprintf "domains %d: pool usable after the failure"
               domains)
            true
            (again = [| 0; 3; 6; 9; 12 |])))
    [ 1; 4 ]

let test_pool_invalid_domains () =
  Alcotest.check_raises "domains 0"
    (Invalid_argument "Pool.create: need at least one domain") (fun () ->
      ignore (Pool.create ~domains:0))

let test_pool_shutdown_idempotent () =
  let pool = Pool.create ~domains:2 in
  ignore (Pool.map pool 4 Fun.id);
  Pool.shutdown pool;
  Pool.shutdown pool;
  Alcotest.check_raises "map after shutdown"
    (Invalid_argument "Pool.map: pool is shut down") (fun () ->
      ignore (Pool.map pool 4 Fun.id))

(* ----------------------------------------------------------------- Sweep *)

(* The row of a one-cell sweep of [runs] runs of [f]. *)
let one_cell ?domains ~seed ~runs fold f =
  List.hd
    (E.Sweep.rows ?domains
       {
         E.Sweep.label = (fun () -> "cell");
         cells = [ () ];
         runs = (fun () -> runs);
         seed = (fun _ -> seed);
         run = (fun () -> f);
         judge = E.Sweep.raised_only;
         fold = (fun () -> fold);
       })

(* The outcomes in run order. *)
let replicate ?domains ~seed ~runs f =
  one_cell ?domains ~seed ~runs E.Sweep.completed f

let test_replicate_preserves_run_order () =
  let runs = 23 in
  let draw rng = Rng.int rng 1_000_000 in
  let order = replicate ~domains:4 ~seed:1 ~runs draw in
  Alcotest.(check (list int)) "run order"
    (Array.to_list (Array.map draw (E.Sweep.streams ~seed:1 ~runs)))
    order

let test_replicate_domain_invariant () =
  let f rng = List.init 8 (fun _ -> Rng.unit rng) in
  let seq = replicate ~domains:1 ~seed:77 ~runs:12 f in
  List.iter
    (fun domains ->
      let par = replicate ~domains ~seed:77 ~runs:12 f in
      check_identical (Printf.sprintf "domains %d" domains) seq par)
    [ 2; 3; 4; 7 ]

let test_run_stream_independent_of_total () =
  (* Run i must see the same sub-stream whether it is one of 4 or of 9. *)
  let f rng = List.init 4 (fun _ -> Rng.unit rng) in
  let small = replicate ~seed:13 ~runs:4 f in
  let large = replicate ~domains:3 ~seed:13 ~runs:9 f in
  check_identical "first four runs agree" small
    (List.filteri (fun i _ -> i < 4) large)

let test_streams_prefix_stability () =
  let draw rngs = Array.map (fun r -> List.init 6 (fun _ -> Rng.unit r)) rngs in
  let small = draw (E.Sweep.streams ~seed:99 ~runs:5) in
  let large = draw (E.Sweep.streams ~seed:99 ~runs:40) in
  check_identical "prefix of streams" small (Array.sub large 0 5)

(* The fold helper's [n] columns; [f] returns (column, value) samples. *)
let summaries ~domains ~seed ~runs n f =
  one_cell ~domains ~seed ~runs
    (E.Sweep.summaries n (fun samples add ->
         List.iter (fun (c, x) -> add c x) samples))
    f

let test_summarize_domain_invariant () =
  let f rng = [ (0, Rng.unit rng +. Rng.unit rng) ] in
  let seq = summaries ~domains:1 ~seed:3 ~runs:17 1 f in
  let par = summaries ~domains:4 ~seed:3 ~runs:17 1 f in
  check_identical "summaries identical" seq par

let test_summarize_fields_domain_invariant () =
  let f rng =
    let x = Rng.unit rng in
    if x < 0.5 then [ (0, x) ] else [ (0, x); (1, x *. x) ]
  in
  let seq = summaries ~domains:1 ~seed:8 ~runs:19 2 f in
  let par = summaries ~domains:4 ~seed:8 ~runs:19 2 f in
  check_identical "field summaries identical" seq par

(* ----------------------------------------------- Experiment drivers, 1 = 4 *)

let small_spec = Scenario.poisson ~intensity:80.0 ~radius:0.15 ()

let both f =
  let seq = f ~domains:1 in
  let par = f ~domains:4 in
  (seq, par)

let test_schedule_identical () =
  let seq, par =
    both (fun ~domains ->
        E.Sweep.rows ~domains
          (E.Exp_schedule.sweep ~seed:3 ~runs:3 ~spec:small_spec ()))
  in
  check_identical "schedule milestones" seq par

let test_dag_steps_identical () =
  let seq, par =
    both (fun ~domains ->
        E.Sweep.rows ~domains
          (E.Exp_dag_steps.sweep ~seed:3 ~runs:3 ~intensity:150.0
             ~radii:[ 0.09; 0.1 ] ()))
  in
  check_identical "dag-steps rows" seq par

let test_features_identical () =
  let seq, par =
    both (fun ~domains ->
        E.Sweep.rows ~domains
          (E.Exp_features.grid_sweep ~seed:3 ~runs:2 ~radii:[ 0.13 ] ()))
  in
  check_identical "grid feature rows" seq par

let test_mobility_identical () =
  let seq, par =
    both (fun ~domains ->
        E.Sweep.rows ~domains
          (E.Exp_mobility.sweep ~seed:42 ~runs:2 ~count:80 ~horizon:20.0 ()))
  in
  check_identical "mobility results" seq par

let test_selfstab_identical () =
  let seq, par =
    both (fun ~domains ->
        E.Sweep.rows ~domains
          (E.Exp_selfstab.sweep ~seed:3 ~runs:3 ~spec:small_spec
             ~fractions:[ 0.3; 1.0 ] ~taus:[] ()))
  in
  check_identical "recovery rows" seq par;
  let seq, par =
    both (fun ~domains ->
        E.Sweep.rows ~domains
          (E.Exp_selfstab.sweep ~seed:3 ~runs:3 ~spec:small_spec ~fractions:[]
             ~taus:[ 0.0; 0.2 ] ()))
  in
  check_identical "loss rows" seq par

let test_compare_identical () =
  let seq, par =
    both (fun ~domains ->
        E.Sweep.rows ~domains
          (E.Exp_compare.sweep ~seed:3 ~runs:2 ~count:80 ~epochs:6
             ~algorithms:
               [
                 E.Exp_compare.Heuristic Ss_cluster.Metric.Density;
                 E.Exp_compare.Maxmin_d 2;
               ]
             ()))
  in
  check_identical "comparison rows" seq par

let test_energy_identical () =
  let seq, par =
    both (fun ~domains ->
        E.Sweep.rows ~domains
          (E.Exp_energy.sweep ~seed:3 ~runs:2
             ~spec:(Scenario.poisson ~intensity:100.0 ~radius:0.14 ())
             ()))
  in
  check_identical "energy rows" seq par

let test_hierarchy_identical () =
  let seq, par =
    both (fun ~domains ->
        E.Sweep.rows ~domains
          (E.Exp_hierarchy.sweep ~seed:3 ~runs:2 ~radius:0.12
             ~intensities:[ 120.0 ] ()))
  in
  check_identical "hierarchy rows" seq par

let test_bounds_identical () =
  let seq, par =
    both (fun ~domains ->
        E.Sweep.rows ~domains
          (E.Exp_epochs.sweep ~seed:3 ~runs:2 ~count:60 ~epochs:4
             [ E.Exp_epochs.Speed 1.0; E.Exp_epochs.Speed 10.0 ]))
  in
  check_identical "mobility-bounds rows" seq par

let test_link_failure_identical () =
  let seq, par =
    both (fun ~domains ->
        E.Sweep.rows ~domains
          (E.Exp_epochs.sweep ~seed:3 ~runs:2
             ~spec:(Scenario.poisson ~intensity:100.0 ~radius:0.13 ())
             ~epochs:4
             [ E.Exp_epochs.Fade 0.0; E.Exp_epochs.Fade 0.2 ]))
  in
  check_identical "link-failure rows" seq par

(* Counter.t is hashtable-backed, so compare rows through their sorted
   event listings rather than the raw representation. *)
let churn_projection rows =
  List.map
    (fun (r : E.Exp_churn.row) ->
      ( r.E.Exp_churn.scheduler,
        E.Exp_churn.storm_label r.E.Exp_churn.storm,
        r.E.Exp_churn.runs,
        r.E.Exp_churn.bursts,
        r.E.Exp_churn.recovered,
        r.E.Exp_churn.recovery,
        r.E.Exp_churn.peak_ghosts,
        Counter.to_list r.E.Exp_churn.events,
        r.E.Exp_churn.legitimate,
        r.E.Exp_churn.converged ))
    rows

let campaign_projection rows =
  List.map
    (fun (r : E.Exp_campaign.row) ->
      ( E.Exp_campaign.cell_label r.E.Exp_campaign.cell,
        r.E.Exp_campaign.runs,
        r.E.Exp_campaign.converged,
        r.E.Exp_campaign.oscillating,
        r.E.Exp_campaign.still_changing,
        r.E.Exp_campaign.failed,
        r.E.Exp_campaign.dwell,
        r.E.Exp_campaign.max_dwell,
        r.E.Exp_campaign.unrecovered,
        r.E.Exp_campaign.post_violations,
        r.E.Exp_campaign.peak_ghosts,
        r.E.Exp_campaign.bad ))
    rows

let test_campaign_identical () =
  let seq, par =
    both (fun ~domains ->
        campaign_projection
          (E.Sweep.rows ~domains
             (E.Exp_campaign.sweep ~seed:3 ~runs:2
                ~spec:(Scenario.uniform ~count:35 ~radius:0.2 ())
                ~grid:E.Exp_campaign.smoke_grid ~max_rounds:900 ())))
  in
  check_identical "campaign rows" seq par

let test_churn_identical () =
  let seq, par =
    both (fun ~domains ->
        churn_projection
          (E.Sweep.rows ~domains
             (E.Exp_churn.sweep ~seed:3 ~runs:2
                ~spec:(Scenario.poisson ~intensity:90.0 ~radius:0.14 ())
                ~schedulers:[ Ss_engine.Scheduler.Synchronous ]
                ~storms:[ E.Exp_churn.Crash_recover; E.Exp_churn.Sleep_wake ]
                ())))
  in
  check_identical "churn rows" seq par

let suite =
  [
    Alcotest.test_case "pool keeps index order" `Quick test_pool_index_order;
    Alcotest.test_case "pool with more domains than items" `Quick
      test_pool_domains_exceed_items;
    Alcotest.test_case "pool sequential = parallel" `Quick
      test_pool_sequential_matches_parallel;
    Alcotest.test_case "pool survives reuse" `Quick test_pool_reuse;
    Alcotest.test_case "pool re-raises lowest failing index" `Quick
      test_pool_exception_lowest_index;
    Alcotest.test_case "pool contains raising tasks (1 and 4 domains)" `Quick
      test_pool_raising_task_contained;
    Alcotest.test_case "pool rejects zero domains" `Quick
      test_pool_invalid_domains;
    Alcotest.test_case "pool shutdown is idempotent" `Quick
      test_pool_shutdown_idempotent;
    Alcotest.test_case "replicate keeps run order" `Quick
      test_replicate_preserves_run_order;
    Alcotest.test_case "replicate invariant in domain count" `Quick
      test_replicate_domain_invariant;
    Alcotest.test_case "run stream independent of runs total" `Quick
      test_run_stream_independent_of_total;
    Alcotest.test_case "streams prefix-stable" `Quick
      test_streams_prefix_stability;
    Alcotest.test_case "summarize invariant in domain count" `Quick
      test_summarize_domain_invariant;
    Alcotest.test_case "summarize_fields invariant in domain count" `Quick
      test_summarize_fields_domain_invariant;
    Alcotest.test_case "T2 schedule 1 = 4 domains" `Slow test_schedule_identical;
    Alcotest.test_case "T3 dag-steps 1 = 4 domains" `Slow
      test_dag_steps_identical;
    Alcotest.test_case "T5 features 1 = 4 domains" `Slow test_features_identical;
    Alcotest.test_case "mobility 1 = 4 domains" `Slow test_mobility_identical;
    Alcotest.test_case "selfstab 1 = 4 domains" `Slow test_selfstab_identical;
    Alcotest.test_case "compare 1 = 4 domains" `Slow test_compare_identical;
    Alcotest.test_case "energy 1 = 4 domains" `Slow test_energy_identical;
    Alcotest.test_case "hierarchy 1 = 4 domains" `Slow test_hierarchy_identical;
    Alcotest.test_case "mobility-bounds 1 = 4 domains" `Slow
      test_bounds_identical;
    Alcotest.test_case "link-failure 1 = 4 domains" `Slow
      test_link_failure_identical;
    Alcotest.test_case "churn 1 = 4 domains" `Slow test_churn_identical;
    Alcotest.test_case "campaign 1 = 4 domains" `Slow test_campaign_identical;
  ]
