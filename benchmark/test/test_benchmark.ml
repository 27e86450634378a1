(* Pins the benchmark's own machinery: the timing wrappers change nothing
   but the clock, allocate nothing, and the results file and the compare
   verdicts behave as documented. *)

open Ssbench
module Rng = Ss_prng.Rng
module Graph = Ss_topology.Graph
module Builders = Ss_topology.Builders
module Churn = Ss_engine.Churn
module Channel = Ss_radio.Channel
module Distributed = Ss_cluster.Distributed

(* A wrapped protocol on a 300-node lossy churn run: the same change
   history, states and digest as the unwrapped one. *)
let wrapped_run_is_identical () =
  let graph =
    Builders.random_geometric_count (Rng.create ~seed:5) ~count:300
      ~radius:(Workloads.radius_for ~degree:9.0 300)
  in
  let churn () =
    Churn.compose
      [
        Churn.crash_fraction ~round:8 ~fraction:0.05;
        Churn.join_all ~round:20;
        Churn.link_flap ~first:10 ~last:30 ~p_down:0.02 ~p_up:0.3 ();
      ]
  in
  let go ~traced =
    Tracer.reset ();
    fst
      (Workloads.flat_run
         (Workloads.protocol ~traced Workloads.improved)
         ~traced ~channel:(Channel.bernoulli 0.85) ~churn:(churn ())
         ~max_rounds:80 ~quiet_rounds:Workloads.quiet_rounds
         (Rng.create ~seed:9) graph)
  in
  let plain = go ~traced:false in
  let traced = go ~traced:true in
  Alcotest.(check (list int))
    "change history" plain.Workloads.change_history
    traced.Workloads.change_history;
  Alcotest.(check string)
    "digest"
    (Int64.to_string (Workloads.digest plain))
    (Int64.to_string (Workloads.digest traced));
  Alcotest.(check bool) "states" true (plain.Workloads.states = traced.Workloads.states);
  Alcotest.(check bool)
    "the tracer saw every step" true
    (Tracer.calls.(Tracer.d_step) > 0
    && Tracer.calls.(Tracer.churn_plan) = traced.Workloads.rounds)

module P = Distributed.Make (struct
  let params = Distributed.default_params
end)

module TP = Timed.Flat (P)

(* Minor words allocated by [f] called [k] times. *)
let words k f =
  let w0 = Gc.minor_words () in
  for i = 1 to k do
    f i
  done;
  Gc.minor_words () -. w0

let timing_wrapper_allocates_nothing () =
  let graph = Builders.grid_lattice ~cols:10 ~rows:10 ~diagonals:false in
  let b = P.Flat.alloc graph and tb = TP.Flat.alloc graph in
  P.Flat.init_all b (Rng.create ~seed:1) graph;
  TP.Flat.init_all tb (Rng.create ~seed:1) graph;
  Tracer.reset ();
  let k = 10_000 in
  let span =
    words k (fun _ ->
        Tracer.enter Tracer.d_warm;
        Tracer.leave Tracer.d_warm)
  in
  Alcotest.(check (float 0.0)) "enter/leave" 0.0 span;
  let plain = words k (fun i -> ignore (P.Flat.warm b (i mod 100))) in
  let wrapped = words k (fun i -> ignore (TP.Flat.warm tb (i mod 100))) in
  Alcotest.(check (float 0.0)) "wrapped warm = plain warm" plain wrapped

let verdict = Alcotest.testable (Fmt.of_to_string Stats.verdict_label) ( = )

let compare_verdicts () =
  let base = [ 1.00; 1.01; 0.99; 1.00; 1.02; 0.98; 1.00; 1.01; 0.99; 1.00 ] in
  let scale f = List.map (fun x -> x *. f) base in
  let judge ?(lower_better = true) ?(bound = 0.1) a b =
    Stats.judge ~lower_better ~bound a b
  in
  Alcotest.check verdict "30 % slower" Stats.Worse (judge base (scale 1.3));
  Alcotest.check verdict "30 % faster" Stats.Better (judge base (scale 0.7));
  Alcotest.check verdict "5 % slower, inside the bound" Stats.Unchanged
    (judge base (scale 1.05));
  Alcotest.check verdict "higher is better" Stats.Worse
    (judge ~lower_better:false base (scale 0.7));
  let noisy = [ 1.0; 1.5; 0.8; 1.3; 0.9; 1.6; 0.7 ] in
  Alcotest.check verdict "spread above the bound" Stats.Unresolved
    (judge noisy (List.rev noisy));
  Alcotest.check verdict "noisy but every run better" Stats.Better
    (judge noisy (List.map (fun x -> x *. 0.3) noisy));
  Alcotest.check verdict "any new failure" Stats.Worse
    (judge ~bound:0.0 [ 0.0; 0.0; 0.0 ] [ 0.0; 0.0; 0.1 ]);
  Alcotest.check verdict "no failures either side" Stats.Unchanged
    (judge ~bound:0.0 [ 0.0; 0.0 ] [ 0.0; 0.0 ]);
  (* statistics.quantiles(range(1, 11), n=4) *)
  let q1, q2, q3 = Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (list (float 1e-12))) "python quartiles" [ 2.75; 5.5; 8.25 ] [ q1; q2; q3 ]

let results_round_trip () =
  let m value samples = { Results.value; unit = "s"; samples } in
  let runs =
    [
      {
        Results.seed = 2026;
        trace = true;
        workloads =
          [
            {
              Results.name = "cold_start";
              attempted = 6;
              failed = 0;
              digest = "31a762a75afe80ff";
              metrics =
                [
                  ("run_s", m 1.8784400000000001 [ 1.8784400000000001; 0.1 +. 0.2 ]);
                  ("setup_s", m 6.4684e-02 [ 6.4684e-02 ]);
                ];
              layers = [ ("executor.round_p99_ms", m 123.456789 [ 1e-7; 3e21 ]) ];
            };
          ];
      };
      { Results.seed = 7; trace = false; workloads = [] };
    ]
  in
  let back = Results.of_json (Json.of_string (Json.to_string (Results.to_json runs))) in
  Alcotest.(check bool) "identical after a round trip" true (back = runs)

let () =
  Alcotest.run "benchmark"
    [
      ( "benchmark",
        [
          Alcotest.test_case "wrapped run = plain run" `Quick wrapped_run_is_identical;
          Alcotest.test_case "timing wrapper allocates nothing" `Quick
            timing_wrapper_allocates_nothing;
          Alcotest.test_case "compare verdicts" `Quick compare_verdicts;
          Alcotest.test_case "results round trip" `Quick results_round_trip;
        ] );
    ]
