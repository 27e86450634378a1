(* Robustness experiment C3: Byzantine containment sweep.

   The campaign (C2) answers "does anything break the sweep"; this
   experiment isolates the adversary axis and measures *containment*
   proper, per (behavior × channel × Byzantine count) on a fixed
   deployment class: how far from the Byzantine set do legitimacy
   violations radiate once the adversary is live (violation radius), how
   long until the clean region — every node more than [horizon] hops from
   any Byzantine node — is legitimate for good (time to containment), and
   whether it stays that way (escaped rounds, contained runs).

   The paper's transient-fault theorem says nothing here: the fault never
   stops, so global convergence is not the bar (an Oscillator keeps its
   neighborhood dirty forever, and is supposed to). The strict-
   stabilization bar is that the damage stays within a bounded radius of
   the adversary.

   A cell is a campaign cell without transient faults, so each run is
   {!Exp_campaign.run_one}'s Byzantine-cell run, judged by the
   campaign's containment verdict. *)

module Channel = Ss_radio.Channel
module Scheduler = Ss_engine.Scheduler
module Monitor = Ss_engine.Monitor
module Adversary = Ss_engine.Adversary
module Campaign = Exp_campaign
module Summary = Ss_stats.Summary
module Table = Ss_stats.Table

let default_spec = Scenario.uniform ~count:60 ~radius:0.15 ()
let from_round = 40
let default_counts = [ 1; 3 ]

let default_channels =
  [
    Channel.perfect;
    Channel.bernoulli 0.8;
    Channel.asymmetric ~seed:11 ~tau_lo:0.5 ~tau_hi:1.0;
    Campaign.default_bursty;
  ]

type row = {
  behavior : Adversary.behavior;
  channel : Channel.t;
  count : int;
  runs : int;
  contained : int;  (* runs whose clean region ended legitimate *)
  worst_radius : int;
  radius : Summary.t;  (* per-run worst violation radius *)
  ttc : Summary.t;  (* time to containment, over contained runs *)
  escaped_rounds : int;  (* clean-region-violating rounds, totalled *)
  converged : int;
  oscillating : int;
  failed : int;
  bad : (int * string) list;  (* replay pointers: run index + reason *)
}

(* The sweep's cell order: behavior-major, count-middle, channel-minor.
   No corruption, no churn, the synchronous daemon: only the adversary,
   switching on at the campaign's burst round. *)
let cells ~behaviors ~counts ~channels =
  List.concat_map
    (fun behavior ->
      List.concat_map
        (fun count ->
          List.map
            (fun ch ->
              {
                Campaign.c_fraction = 0.0;
                c_channel = ch;
                c_crash = 0.0;
                c_scheduler = Scheduler.Synchronous;
                c_byz = Some (count, behavior);
              })
            channels)
        counts)
    behaviors

let byz cell = Option.get cell.Campaign.c_byz

let fold cell (runs : Campaign.outcome Sweep.runs) =
  let count, behavior = byz cell in
  let contained = ref 0 in
  let worst = ref 0 in
  let radius = Summary.create () in
  let ttc = Summary.create () in
  let escaped = ref 0 in
  let converged = ref 0 in
  let oscillating = ref 0 in
  List.iter
    (fun (o : Campaign.outcome) ->
      (match o.Campaign.classification with
      | Monitor.Converged -> incr converged
      | Monitor.Oscillating _ -> incr oscillating
      | Monitor.Still_changing -> ());
      match o.Campaign.containment with
      | None -> ()
      | Some c ->
          Summary.add_int radius c.Monitor.worst_radius;
          if c.Monitor.worst_radius > !worst then
            worst := c.Monitor.worst_radius;
          escaped := !escaped + c.Monitor.escaped_rounds;
          if c.Monitor.contained then begin
            incr contained;
            match c.Monitor.time_to_containment with
            | Some t -> Summary.add_int ttc t
            | None -> ()
          end)
    (Sweep.completed runs);
  {
    behavior;
    channel = cell.Campaign.c_channel;
    count;
    runs = List.length runs.Sweep.outcomes;
    contained = !contained;
    worst_radius = !worst;
    radius;
    ttc;
    escaped_rounds = !escaped;
    converged = !converged;
    oscillating = !oscillating;
    failed = runs.Sweep.failed;
    bad = runs.Sweep.bad;
  }

let sweep ?(seed = 42) ?(runs = 5) ?(spec = default_spec)
    ?(behaviors = Adversary.behaviors) ?(counts = default_counts)
    ?(channels = default_channels) ?(max_rounds = 800)
    ?(horizon = Campaign.default_horizon) () =
  {
    Sweep.label =
      (fun cell ->
        let count, behavior = byz cell in
        Fmt.str "%s/%d byz/%a"
          (Adversary.behavior_to_string behavior)
          count Channel.pp cell.Campaign.c_channel);
    cells = cells ~behaviors ~counts ~channels;
    runs = (fun _ -> runs);
    seed = (fun _ -> seed);
    run = Campaign.run_one ~spec ~max_rounds ~burst_round:from_round ~horizon;
    judge = Campaign.judge;
    fold;
  }

let to_table ?replay_prefix rows =
  let t =
    Table.create ~title:"Adversary — containment per behavior/channel"
      ~header:
        [
          "behavior"; "byz"; "channel"; "contained"; "worst radius";
          "mean radius"; "mean ttc"; "escaped rds"; "conv"; "osc"; "failed";
          "replay (anomalous runs)";
        ]
      ()
  in
  Table.add_rows t
    (List.mapi
       (fun cell_index r ->
         [
           Adversary.behavior_to_string r.behavior;
           Table.cell_int r.count;
           Fmt.str "%a" Channel.pp r.channel;
           Printf.sprintf "%d/%d" r.contained r.runs;
           Table.cell_int r.worst_radius;
           Table.cell_float ~decimals:1 (Summary.mean r.radius);
           Table.cell_float ~decimals:1 (Summary.mean r.ttc);
           Table.cell_int r.escaped_rounds;
           Table.cell_int r.converged;
           Table.cell_int r.oscillating;
           Table.cell_int r.failed;
           Sweep.replay_column ~prefix:replay_prefix ~index:cell_index r.bad;
         ])
       rows)

let verdict rows =
  [
    Printf.sprintf
      "worst-case containment radius: %d hops; uncontained runs: %d"
      (List.fold_left (fun acc r -> max acc r.worst_radius) 0 rows)
      (List.fold_left
         (fun acc r -> acc + (r.runs - r.failed - r.contained))
         0 rows);
  ]
