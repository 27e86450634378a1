(* Robustness experiment C2: adversarial fault-campaign sweep.

   Each grid cell corrupts a fraction of the nodes mid-run (optionally
   while a Bernoulli crash window churns the topology) over a lossy or
   contended channel, with the online monitor watching the legitimacy
   predicate, ghost references and head separation every round. A cell is
   judged on the worst it produced: the longest violation dwell, any burst
   still dirty at the end, any violation after recovery, and — when the
   round budget ran out — whether the digest ring shows an oscillation or
   genuine ongoing progress.

   Failure containment comes from {!Sweep}: one pathological run becomes
   a failed entry in its row (with its run index as replay pointer)
   instead of tearing down the campaign. *)

module Graph = Ss_topology.Graph
module Scheduler = Ss_engine.Scheduler
module Churn = Ss_engine.Churn
module Monitor = Ss_engine.Monitor
module Adversary = Ss_engine.Adversary
module Channel = Ss_radio.Channel
module Distributed = Ss_cluster.Distributed
module Invariants = Ss_cluster.Invariants
module Summary = Ss_stats.Summary
module Table = Ss_stats.Table
module Rng = Ss_prng.Rng

module P = Distributed.Make (struct
  let params = Distributed.default_params
end)

module E = Ss_engine.Engine.Make (P)

let config = Distributed.default_params.Distributed.algo

let quiet_rounds = Distributed.default_params.Distributed.cache_ttl + 2

type cell = {
  c_fraction : float;
  c_channel : Channel.t;
  c_crash : float;
  c_scheduler : Scheduler.t;
  c_byz : (int * Adversary.behavior) option;
}

let byz_label = function
  | None -> "-"
  | Some (count, b) ->
      Printf.sprintf "%d %s" count (Adversary.behavior_to_string b)

let cell_label c =
  [
    Printf.sprintf "%.0f%%" (100.0 *. c.c_fraction);
    Fmt.str "%a" Channel.pp c.c_channel;
    (if c.c_crash > 0.0 then Printf.sprintf "%.2f" c.c_crash else "-");
    Fmt.str "%a" Scheduler.pp c.c_scheduler;
    byz_label c.c_byz;
  ]

type grid = {
  g_fractions : float list;
  g_channels : Channel.t list;
  g_crash : float list;
  g_schedulers : Scheduler.t list;
  g_byz : (int * Adversary.behavior) option list;
}

(* The default bursty channel: mostly-clean links falling into ~4-round
   deep fades a few times per hundred rounds. *)
let default_bursty =
  Channel.bursty ~seed:7 ~tau_good:0.95 ~tau_bad:0.2 ~p_fade:0.05
    ~p_recover:0.25

let default_grid =
  {
    g_fractions = [ 0.1; 0.3 ];
    g_channels =
      [
        Channel.perfect;
        Channel.bernoulli 0.8;
        Channel.slotted ~slots:16;
        default_bursty;
      ];
    g_crash = [ 0.0; 0.02 ];
    g_schedulers = [ Scheduler.Synchronous; Scheduler.Random_order ];
    g_byz =
      [ None; Some (2, Adversary.Liar); Some (2, Adversary.Oscillator) ];
  }

(* Eight cells, one run each: every monitor code path (lossy recovery,
   contention, churn, Byzantine containment on a bursty channel)
   exercised in seconds for CI. *)
let smoke_grid =
  {
    g_fractions = [ 0.25 ];
    g_channels = [ Channel.perfect; default_bursty ];
    g_crash = [ 0.0; 0.05 ];
    g_schedulers = [ Scheduler.Synchronous ];
    g_byz = [ None; Some (2, Adversary.Liar) ];
  }

let cells grid =
  List.concat_map
    (fun f ->
      List.concat_map
        (fun ch ->
          List.concat_map
            (fun cr ->
              List.concat_map
                (fun s ->
                  List.map
                    (fun byz ->
                      {
                        c_fraction = f;
                        c_channel = ch;
                        c_crash = cr;
                        c_scheduler = s;
                        c_byz = byz;
                      })
                    grid.g_byz)
                grid.g_schedulers)
            grid.g_crash)
        grid.g_channels)
    grid.g_fractions

type row = {
  cell : cell;
  runs : int;
  converged : int;
  oscillating : int;
  still_changing : int;
  failed : int;
  dwell : Summary.t;
  max_dwell : int;
  unrecovered : int;
  post_violations : int;
  peak_ghosts : int;
  worst_radius : int;
  uncontained : int;
  bad : (int * string) list;
}

let default_spec = Scenario.uniform ~count:60 ~radius:0.15 ()

(* Past cold-start convergence on the default spec (same margin as
   exp_churn's storms). *)
let default_burst_round = 40

let plan ~burst_round cell =
  let corruption =
    if cell.c_fraction > 0.0 then
      [ Churn.corrupt_fraction ~round:burst_round ~fraction:cell.c_fraction ]
    else []
  in
  let churn =
    if cell.c_crash > 0.0 then
      [
        Churn.bernoulli_crash ~first:burst_round ~last:(burst_round + 15)
          ~p_crash:cell.c_crash
          ~p_join:(Float.min 1.0 (4.0 *. cell.c_crash))
          ();
        Churn.join_all ~round:(burst_round + 40);
      ]
    else []
  in
  Churn.compose (corruption @ churn)

(* What one run reports; pure per-run so cells parallelize over domains. *)
type outcome = {
  converged : bool;
  classification : Monitor.classification;
  dwells : int list;
  burst_unrecovered : int;
  post : int;
  ghost_peak : int;
  containment : Monitor.containment option;
}

let outcome_of_report ~converged (rep : Monitor.report) =
  {
    converged;
    classification = rep.Monitor.classification;
    dwells = List.filter_map (fun b -> b.Monitor.dwell) rep.Monitor.bursts;
    burst_unrecovered = rep.Monitor.unrecovered;
    post = rep.Monitor.post_recovery_violations;
    ghost_peak =
      (match List.assoc_opt "ghosts" rep.Monitor.peaks with
      | Some g -> g
      | None -> 0);
    containment = rep.Monitor.containment;
  }

(* Default clean-region horizon: a lying frame poisons its receivers
   directly and, through the relayed 2-hop summaries, their neighbors —
   so damage within 2 hops of the Byzantine set is expected, and strict
   stabilization is asserted beyond it. *)
let default_horizon = 2

let run_one ~spec ~max_rounds ~burst_round ~horizon cell rng =
  let world = Scenario.build rng spec in
  let graph = world.Scenario.graph in
  let ids = Array.init (Graph.node_count graph) Fun.id in
  match cell.c_byz with
  | None ->
      let monitor = Invariants.monitor ~config ~ids () in
      let result =
        E.run
          ~mode:(E.Sparse { warm = Some Distributed.pending_expiry })
          ~scheduler:cell.c_scheduler ~channel:cell.c_channel ~quiet_rounds
          ~max_rounds
          ~churn:(plan ~burst_round cell)
          ~corrupt:Distributed.corrupt
          ~on_round:(Monitor.on_round monitor)
          ~probe:(Monitor.probe monitor) rng graph
      in
      let converged = result.E.converged in
      outcome_of_report ~converged (Monitor.report monitor ~converged)
  | Some (count, behavior) ->
      (* Byzantine roster and adversary key come from the run's sequential
         generator (plan-evaluation family, like churn victims), drawn in
         a fixed order before the engine starts; everything the adversary
         does in-round is keyed off [adv_key]. *)
      let n = Graph.node_count graph in
      let count = min count n in
      let byz = Array.to_list (Array.sub (Rng.permutation rng n) 0 count) in
      let adv_key = Rng.key_of rng in
      let module Q =
        Adversary.Wrap
          (P)
          (struct
            type message = Distributed.message

            let key = adv_key
            let roles = List.map (fun p -> (p, behavior)) byz
            let from_round = burst_round
            let forge = Distributed.forge
          end)
      in
      let module EQ = Ss_engine.Engine.Make (Q) in
      let adversary =
        {
          Monitor.dist = Adversary.distances graph byz;
          horizon;
          active_from = burst_round;
        }
      in
      let monitor =
        Invariants.monitor_via ~adversary ~project:Q.project ~config ~ids ()
      in
      let result =
        EQ.run
          ~mode:(EQ.Sparse { warm = Some (Q.warm Distributed.pending_expiry) })
          ~scheduler:cell.c_scheduler ~channel:cell.c_channel ~quiet_rounds
          ~max_rounds
          ~churn:(plan ~burst_round cell)
          ~corrupt:(Q.lift_corrupt Distributed.corrupt)
          ~on_round:(Monitor.on_round monitor)
          ~probe:(Monitor.probe monitor) rng graph
      in
      let converged = result.EQ.converged in
      outcome_of_report ~converged (Monitor.report monitor ~converged)

let judge cell o =
  if cell.c_byz <> None then
    (* Under a permanent adversary, recovery-flavoured verdicts
       (convergence, burst closure, post-recovery cleanliness) no longer
       apply — Oscillators are *supposed* to keep the run dirty forever.
       The strict-stabilization verdict is containment: the clean region
       must end the run legitimate. *)
    match o.containment with
    | Some c when not c.Monitor.contained ->
        Some
          (Printf.sprintf "escaped (radius=%d, escapes=%d)"
             c.Monitor.worst_radius c.Monitor.escaped_rounds)
    | Some _ | None -> None
  else if not o.converged then
    Some (Monitor.classification_label o.classification)
  else if o.burst_unrecovered > 0 then Some "unrecovered burst"
  else if o.post > 0 then
    Some (Printf.sprintf "post-recovery violations=%d" o.post)
  else None

(* Run-order fold (determinism contract: identical for any domain
   count). *)
let fold cell (runs : outcome Sweep.runs) =
  let converged = ref 0 in
  let oscillating = ref 0 in
  let still_changing = ref 0 in
  let dwell = Summary.create () in
  let max_dwell = ref 0 in
  let unrecovered = ref 0 in
  let post = ref 0 in
  let ghosts = ref 0 in
  let radius = ref 0 in
  let uncontained = ref 0 in
  List.iter
    (fun o ->
      (match o.classification with
      | Monitor.Converged -> incr converged
      | Monitor.Oscillating _ -> incr oscillating
      | Monitor.Still_changing -> incr still_changing);
      List.iter
        (fun d ->
          Summary.add_int dwell d;
          if d > !max_dwell then max_dwell := d)
        o.dwells;
      unrecovered := !unrecovered + o.burst_unrecovered;
      post := !post + o.post;
      if o.ghost_peak > !ghosts then ghosts := o.ghost_peak;
      match o.containment with
      | None -> ()
      | Some c ->
          if c.Monitor.worst_radius > !radius then
            radius := c.Monitor.worst_radius;
          if not c.Monitor.contained then incr uncontained)
    (Sweep.completed runs);
  {
    cell;
    runs = List.length runs.Sweep.outcomes;
    converged = !converged;
    oscillating = !oscillating;
    still_changing = !still_changing;
    failed = runs.Sweep.failed;
    dwell;
    max_dwell = !max_dwell;
    unrecovered = !unrecovered;
    post_violations = !post;
    peak_ghosts = !ghosts;
    worst_radius = !radius;
    uncontained = !uncontained;
    bad = runs.Sweep.bad;
  }

(* Every cell feeds the same positional sub-streams to its replicates, so
   run [i] of any cell is the [i]-th stream of the base seed. *)
let sweep ?(seed = 42) ?(runs = 4) ?(spec = default_spec)
    ?(grid = default_grid) ?(max_rounds = 1_500)
    ?(burst_round = default_burst_round) ?(horizon = default_horizon) () =
  {
    Sweep.label = (fun c -> String.concat "/" (cell_label c));
    cells = cells grid;
    runs = (fun _ -> runs);
    seed = (fun _ -> seed);
    run = run_one ~spec ~max_rounds ~burst_round ~horizon;
    judge;
    fold;
  }

let to_table ?replay_prefix rows =
  let t =
    Table.create ~title:"Campaign — worst case per fault-grid cell"
      ~header:
        [
          "corrupt"; "channel"; "crash/rd"; "scheduler"; "byz"; "conv";
          "osc"; "still"; "failed"; "mean dwell"; "max dwell"; "unrec";
          "post-viol"; "peak ghosts"; "radius";
          "replay (anomalous runs)";
        ]
      ()
  in
  Table.add_rows t
    (List.mapi
       (fun cell_index r ->
         cell_label r.cell
         @ [
             Printf.sprintf "%d/%d" r.converged r.runs;
             Table.cell_int r.oscillating;
             Table.cell_int r.still_changing;
             Table.cell_int r.failed;
             Table.cell_float ~decimals:1 (Summary.mean r.dwell);
             Table.cell_int r.max_dwell;
             Table.cell_int r.unrecovered;
             Table.cell_int r.post_violations;
             Table.cell_int r.peak_ghosts;
             (if r.cell.c_byz = None then "-"
              else Table.cell_int r.worst_radius);
             Sweep.replay_column ~prefix:replay_prefix ~index:cell_index
               r.bad;
           ])
       rows)

let verdict rows =
  let byz_rows = List.filter (fun r -> r.cell.c_byz <> None) rows in
  let max_of f rows = List.fold_left (fun acc r -> max acc (f r)) 0 rows in
  Printf.sprintf "worst violation dwell: %d rounds; cells with anomalies: %d/%d"
    (max_of (fun r -> r.max_dwell) rows)
    (List.length (List.filter (fun r -> r.bad <> []) rows))
    (List.length rows)
  ::
  (if byz_rows = [] then []
   else
     [
       Printf.sprintf
         "worst-case containment radius: %d hops (over %d Byzantine cells; \
          uncontained runs: %d)"
         (max_of (fun r -> r.worst_radius) byz_rows)
         (List.length byz_rows)
         (List.fold_left (fun acc r -> acc + r.uncontained) 0 byz_rows);
     ])
