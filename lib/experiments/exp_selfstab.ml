(* Experiment S1 (extension of Section 4's claims): measured recovery after
   transient faults, and convergence under frame loss.

   Protocol runs to a fixpoint on a perfect channel; then a fraction of the
   nodes have their entire state scrambled; we count the rounds the stack
   needs to re-reach a fixpoint and check the resulting clustering is
   legitimate again (and, for the basic configuration, identical to the
   pre-fault one). A second sweep measures stabilization time as a function
   of the channel delivery probability tau. *)

module Graph = Ss_topology.Graph
module Rng = Ss_prng.Rng
module Channel = Ss_radio.Channel
module Config = Ss_cluster.Config
module Assignment = Ss_cluster.Assignment
module Distributed = Ss_cluster.Distributed
module Table = Ss_stats.Table
module Summary = Ss_stats.Summary

type cell = Recovery of float | Loss of float

type row = { cell : cell; rounds : Summary.t; ok : int; runs : int }

module P = Distributed.Make (struct
  let params = Distributed.default_params
end)

module E = Ss_engine.Engine.Make (P)

(* Quiet-round target above the cache TTL: pending expiries and in-flight
   relays can leave isolated output-quiet rounds mid-convergence. *)
let quiet_rounds = Distributed.default_params.Distributed.cache_ttl + 2

let converge ?channel ?states rng graph =
  E.run ?channel ?states ~max_rounds:5_000 ~quiet_rounds rng graph

(* Lossy-channel runs need caches that survive bursts of frame loss: with
   delivery probability tau, an entry expires spuriously with probability
   (1-tau)^ttl per neighbor and round; ttl = 20 makes that negligible down
   to tau = 0.5. *)
module P_lossy = Distributed.Make (struct
  let params = { Distributed.default_params with Distributed.cache_ttl = 20 }
end)

module E_lossy = Ss_engine.Engine.Make (P_lossy)

(* Recovery: converge, scramble [fraction] of the nodes, re-converge from
   the corrupted states; the recovery rounds and whether the fixpoint is
   the pre-fault one. *)
let recover ~spec ~fraction rng =
  let world = Scenario.build rng spec in
  let graph = world.Scenario.graph in
  let first = converge rng graph in
  let before = Distributed.to_assignment first.E.states in
  let n = Graph.node_count graph in
  let count = max 1 (int_of_float (fraction *. float_of_int n)) in
  let victims = Rng.permutation rng n in
  for i = 0 to count - 1 do
    let p = victims.(i) in
    first.E.states.(p) <- Distributed.corrupt rng p first.E.states.(p)
  done;
  let second = converge ~states:first.E.states rng graph in
  let after = Distributed.to_assignment second.E.states in
  (Assignment.equal before after, second.E.last_change_round)

(* Loss: stabilize from scratch over a Bernoulli(tau) channel; whether it
   converged and when the output last changed. *)
let stabilize ~spec ~tau rng =
  let world = Scenario.build rng spec in
  let result =
    E_lossy.run ~channel:(Channel.bernoulli tau) ~max_rounds:3_000
      ~quiet_rounds:25 rng world.Scenario.graph
  in
  (result.E_lossy.converged, result.E_lossy.last_change_round)

let sweep ?(seed = 42) ?(runs = 10)
    ?(spec = Scenario.poisson ~intensity:300.0 ~radius:0.1 ())
    ?(fractions = [ 0.01; 0.1; 0.5; 1.0 ]) ?(taus = [ 1.0; 0.9; 0.7; 0.5 ]) ()
    =
  {
    Sweep.label =
      (function
      | Recovery f -> Printf.sprintf "recovery %.0f%%" (100.0 *. f)
      | Loss tau -> Printf.sprintf "loss tau %.2f" tau);
    cells =
      List.map (fun f -> Recovery f) fractions
      @ List.map (fun tau -> Loss tau) taus;
    runs = (fun _ -> runs);
    seed = (fun _ -> seed);
    run =
      (function
      | Recovery fraction -> recover ~spec ~fraction
      | Loss tau -> stabilize ~spec ~tau);
    judge = Sweep.raised_only;
    fold =
      (fun cell runs ->
        (* A recovery counts every run's rounds; a lossy run only once it
           converged. *)
        let counted ok = match cell with Recovery _ -> true | Loss _ -> ok in
        let s =
          Sweep.summaries 1
            (fun (ok, rounds) add ->
              if counted ok then add 0 (float_of_int rounds))
            runs
        in
        {
          cell;
          rounds = s.(0);
          ok = List.length (List.filter fst (Sweep.completed runs));
          runs = List.length runs.Sweep.outcomes;
        });
  }

let recovery_table rows =
  let t =
    Table.create ~title:"Self-stabilization — recovery after corruption"
      ~header:
        [ "corrupted"; "mean recovery rounds"; "max"; "same fixpoint" ]
      ()
  in
  Table.add_rows t
    (List.filter_map
       (fun r ->
         match r.cell with
         | Loss _ -> None
         | Recovery fraction ->
             Some
               [
                 Printf.sprintf "%.0f%%" (100.0 *. fraction);
                 Table.cell_float ~decimals:1 (Summary.mean r.rounds);
                 Table.cell_float ~decimals:0 (Summary.maximum r.rounds);
                 Printf.sprintf "%d/%d" r.ok r.runs;
               ])
       rows)

let loss_table rows =
  let t =
    Table.create ~title:"Self-stabilization — convergence under frame loss"
      ~header:[ "tau"; "mean stabilization rounds"; "max"; "converged" ]
      ()
  in
  Table.add_rows t
    (List.filter_map
       (fun r ->
         match r.cell with
         | Recovery _ -> None
         | Loss tau ->
             Some
               [
                 Table.cell_float ~decimals:2 tau;
                 Table.cell_float ~decimals:1 (Summary.mean r.rounds);
                 Table.cell_float ~decimals:0 (Summary.maximum r.rounds);
                 Printf.sprintf "%d/%d" r.ok r.runs;
               ])
       rows)
