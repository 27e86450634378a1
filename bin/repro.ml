(* Command-line driver: one subcommand per paper table/figure plus the
   extension experiments. `repro all` regenerates everything; every tabular
   subcommand takes `--csv` to emit machine-readable output instead of the
   boxed table. *)

open Cmdliner
module E = Ss_experiments
module Table = Ss_stats.Table

let seed_arg =
  let doc = "Base PRNG seed; every run derives an independent sub-stream." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let runs_arg default =
  let doc = "Number of independent runs to average over." in
  Arg.(value & opt int default & info [ "runs" ] ~docv:"RUNS" ~doc)

(* A bad job count fails loudly instead of quietly running sequential. *)
let jobs_arg =
  let doc =
    "Number of domains executing runs in parallel, a positive integer. \
     Every run draws from its own positional PRNG sub-stream and results \
     are collected in run order, so the output is bit-identical for every \
     value of $(docv)."
  in
  let env = Cmd.Env.info "REPRO_JOBS" ~doc:"Default for $(b,--jobs)." in
  let check s =
    match E.Sweep.jobs_of_string s with
    | n -> n
    | exception Invalid_argument msg ->
        Fmt.epr "repro: --jobs/REPRO_JOBS: %s@." msg;
        exit 2
  in
  Term.(
    const check
    $ Arg.(value & opt string "1" & info [ "jobs"; "j" ] ~env ~docv:"N" ~doc))

let intensity_arg =
  let doc = "Poisson intensity (expected node count in the unit square)." in
  Arg.(value & opt float 1000.0 & info [ "intensity" ] ~docv:"LAMBDA" ~doc)

let csv_arg =
  let doc = "Emit CSV instead of a boxed table." in
  Arg.(value & flag & info [ "csv" ] ~doc)

let cell_arg =
  let doc =
    "Replay mode (with $(b,--run)): re-execute exactly one sweep cell/run \
     pair instead of the sweep — the command printed for an anomalous run \
     — and exit non-zero iff the run is (still) anomalous."
  in
  Arg.(value & opt (some int) None & info [ "cell" ] ~docv:"CELL" ~doc)

let run_index_arg =
  let doc = "Replay mode (with $(b,--cell)): the run index to re-execute." in
  Arg.(value & opt (some int) None & info [ "run" ] ~docv:"RUN" ~doc)

let replay_arg = Term.(const (fun c r -> (c, r)) $ cell_arg $ run_index_arg)

(* A float option value for a replay command: short when that reads back
   exactly, all 17 digits otherwise. *)
let float_flag x =
  let s = Printf.sprintf "%g" x in
  if Float.equal (float_of_string s) x then s else Printf.sprintf "%.17g" x

let output ~csv table =
  if csv then print_string (Table.to_csv table) else Table.print table

(* The one driver of every replicated subcommand. With --cell K --run I
   it replays that pair alone and exits 1 iff it is anomalous. Otherwise
   it runs the sweep, hands the rows to [show] (tables, summary; [false]
   for a failed gate), prints a replay command for every run that
   raised, and exits 1 if one did or [show] failed. A pair or a run
   count outside the sweep exits 2. *)
let sweep_main ~cmd ~prefix ~jobs (cell, run) sweep show =
  match (cell, run) with
  | Some cell, Some run -> (
      match E.Sweep.replay sweep ~cell ~run with
      | exception Invalid_argument msg ->
          Fmt.epr "repro %s: %s@." cmd msg;
          exit 2
      | c, _, verdict -> (
          let label =
            Printf.sprintf "cell %d (%s) run %d" cell (sweep.E.Sweep.label c)
              run
          in
          match verdict with
          | Some reason ->
              Fmt.pr "replay %s: ANOMALOUS — %s@." label reason;
              exit 1
          | None -> Fmt.pr "replay %s: clean@." label))
  | None, None ->
      let entries =
        try E.Sweep.run ~domains:jobs sweep
        with Invalid_argument msg ->
          Fmt.epr "repro %s: %s@." cmd msg;
          exit 2
      in
      let ok = show (List.map (fun e -> e.E.Sweep.row) entries) in
      List.iter
        (fun (cell, run, reason) ->
          Fmt.epr "repro %s: run raised (%s); replay: %s@." cmd reason
            (E.Sweep.pointer ~prefix ~cell ~run))
        (E.Sweep.raised entries);
      if E.Sweep.exit_status entries <> 0 || not ok then exit 1
  | _ ->
      Fmt.epr "repro %s: --cell and --run must be given together@." cmd;
      exit 2

let table1_cmd =
  let doc = "Table 1 / Figure 1: the worked 10-node example." in
  let run csv =
    let result = E.Exp_example.run () in
    output ~csv result.E.Exp_example.table;
    if not csv then
      List.iter
        (fun (head, members) ->
          Fmt.pr "cluster head %s: {%a}@." head
            Fmt.(list ~sep:comma string)
            members)
        result.E.Exp_example.clusters
  in
  Cmd.v (Cmd.info "table1" ~doc) Term.(const run $ csv_arg)

(* A sweep's [show] that only renders tables. *)
let tables ~csv renders rows =
  List.iter (fun render -> output ~csv (render rows)) renders;
  true

(* One valued option of a replay command. A negative value is attached
   with [=], so that it cannot read as an option. *)
let opt name value =
  let sep = if String.starts_with ~prefix:"-" value then "=" else " " in
  "--" ^ name ^ sep ^ value

(* The replay prefix of a replicated command: the seed, the run count and
   the options that choose its cells. *)
let replicated cmd ~seed ?runs flags =
  let runs =
    Option.fold ~none:[] ~some:(fun n -> [ opt "runs" (string_of_int n) ]) runs
  in
  String.concat " "
    (("repro" :: cmd :: opt "seed" (string_of_int seed) :: runs) @ flags)

(* A replicated command that renders tables. [options] is a term giving
   the command's own option values and the flags that repeat them in a
   replay command. *)
let table_cmd name ~doc ~runs options sweep renders =
  let run seed runs jobs (values, flags) replay csv =
    sweep_main ~cmd:name
      ~prefix:(replicated name ~seed ~runs flags)
      ~jobs replay (sweep ~seed ~runs values) (tables ~csv renders)
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const run $ seed_arg $ runs_arg runs $ jobs_arg $ options $ replay_arg
      $ csv_arg)

let no_options = Term.const ((), [])

let intensity_option =
  Term.(
    const (fun i -> (i, [ opt "intensity" (float_flag i) ])) $ intensity_arg)

let table2_cmd =
  table_cmd "table2" ~runs:10
    ~doc:"Table 2: knowledge schedule of the distributed protocol."
    no_options
    (fun ~seed ~runs () -> E.Exp_schedule.sweep ~seed ~runs ())
    [ E.Exp_schedule.to_table ]

let table3_cmd =
  table_cmd "table3" ~runs:30
    ~doc:"Table 3: steps to build the DAG of local names." intensity_option
    (fun ~seed ~runs intensity ->
      E.Exp_dag_steps.sweep ~seed ~runs ~intensity ())
    [ E.Exp_dag_steps.to_table ]

let table4_cmd =
  table_cmd "table4" ~runs:30
    ~doc:"Table 4: cluster features on random geometric graphs."
    intensity_option
    (fun ~seed ~runs intensity ->
      E.Exp_features.random_sweep ~seed ~runs ~intensity ())
    [ E.Exp_features.to_table ~title:E.Exp_features.random_title ]

let table5_cmd =
  table_cmd "table5" ~runs:10
    ~doc:"Table 5: cluster features on the adversarial row-major grid."
    no_options
    (fun ~seed ~runs () -> E.Exp_features.grid_sweep ~seed ~runs ())
    [ E.Exp_features.to_table ~title:E.Exp_features.grid_title ]

let figures_cmd =
  let doc = "Figures 2 and 3: grid clusterings with and without the DAG." in
  let dir_arg =
    Arg.(
      value & opt string "figures"
      & info [ "out" ] ~docv:"DIR" ~doc:"Output directory for SVG files.")
  in
  let run dir = E.Exp_figures.print ~dir () in
  Cmd.v (Cmd.info "figures" ~doc) Term.(const run $ dir_arg)

let mobility_cmd =
  let count_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "count" ] ~docv:"N" ~doc:"Number of nodes (500 when absent).")
  in
  let horizon_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "horizon" ] ~docv:"SECONDS"
          ~doc:
            "Simulated duration per run (180 s when absent; the paper uses \
             900 s).")
  in
  let options count horizon =
    let flag name show = Option.fold ~none:[] ~some:(fun v -> [ opt name (show v) ]) in
    ( (count, horizon),
      flag "count" string_of_int count @ flag "horizon" float_flag horizon )
  in
  table_cmd "mobility" ~runs:5
    ~doc:
      "Section 5 mobility experiment: cluster-head retention, improved vs \
       basic rules."
    Term.(const options $ count_arg $ horizon_arg)
    (fun ~seed ~runs (count, horizon) ->
      E.Exp_mobility.sweep ~seed ~runs ?count ?horizon ())
    [ E.Exp_mobility.to_table ]

let selfstab_cmd =
  table_cmd "selfstab" ~runs:10
    ~doc:
      "Self-stabilization measurements: recovery after corruption, \
       convergence under frame loss."
    no_options
    (fun ~seed ~runs () -> E.Exp_selfstab.sweep ~seed ~runs ())
    [ E.Exp_selfstab.recovery_table; E.Exp_selfstab.loss_table ]

let compare_cmd =
  table_cmd "compare" ~runs:5
    ~doc:
      "Metric comparison: head retention of density vs degree, lowest-id and \
       max-min."
    no_options
    (fun ~seed ~runs () -> E.Exp_compare.sweep ~seed ~runs ())
    [ E.Exp_compare.to_table ]

let energy_cmd =
  table_cmd "energy" ~runs:5
    ~doc:
      "Extension: network lifetime with and without the energy-aware \
       election."
    no_options
    (fun ~seed ~runs () -> E.Exp_energy.sweep ~seed ~runs ())
    [ E.Exp_energy.to_table ]

let hierarchy_cmd =
  table_cmd "hierarchy" ~runs:10
    ~doc:"Extension: cluster-head population per hierarchy level."
    no_options
    (fun ~seed ~runs () -> E.Exp_hierarchy.sweep ~seed ~runs ())
    [ E.Exp_hierarchy.to_table ]

let bounds_cmd =
  table_cmd "bounds" ~runs:3
    ~doc:
      "Extension: stabilization cost and structure churn as a function of \
       node speed."
    no_options
    (fun ~seed ~runs () ->
      E.Exp_epochs.sweep ~seed ~runs ~epochs:40 E.Exp_epochs.speed_cells)
    [ E.Exp_epochs.to_table ]

let links_cmd =
  table_cmd "links" ~runs:3
    ~doc:
      "Extension: stabilization cost and churn as a function of the link \
       failure rate."
    no_options
    (fun ~seed ~runs () ->
      E.Exp_epochs.sweep ~seed ~runs ~epochs:30 E.Exp_epochs.fade_cells)
    [ E.Exp_epochs.to_table ]

let churn_cmd =
  let doc =
    "Extension: in-place recovery from within-run churn — node crashes, \
     rejoins, sleep/wake cycles and link flapping hitting a single engine \
     run."
  in
  let churn_intensity_arg =
    let doc =
      "Poisson intensity of the deployment (expected node count in the unit \
       square)."
    in
    Arg.(value & opt float 300.0 & info [ "intensity" ] ~docv:"LAMBDA" ~doc)
  in
  let run seed runs jobs intensity replay csv =
    let spec = E.Scenario.poisson ~intensity ~radius:0.1 () in
    sweep_main ~cmd:"churn"
      ~prefix:
        (replicated "churn" ~seed ~runs [ opt "intensity" (float_flag intensity) ])
      ~jobs replay
      (E.Exp_churn.sweep ~seed ~runs ~spec ())
      (fun rows ->
        output ~csv (E.Exp_churn.to_table rows);
        output ~csv (E.Exp_churn.events_table rows);
        true)
  in
  Cmd.v (Cmd.info "churn" ~doc)
    Term.(
      const run $ seed_arg $ runs_arg 5 $ jobs_arg $ churn_intensity_arg
      $ replay_arg $ csv_arg)

let motion_cmd =
  let doc =
    "Extension: cluster stability under continuous motion — the engine's \
     per-round mobility hook drives random-walk and random-waypoint fleets \
     at pedestrian (0-1.6 m/s) and vehicular (0-10 m/s) speeds over an \
     incrementally maintained unit-disk topology; reports cluster-head \
     lifetime, re-election rate and time-in-legitimacy vs speed."
  in
  let motion_intensity_arg =
    let doc =
      "Poisson intensity of the deployment (expected node count in the unit \
       square)."
    in
    Arg.(value & opt float 300.0 & info [ "intensity" ] ~docv:"LAMBDA" ~doc)
  in
  let rounds_arg =
    let doc =
      "Round budget; every regime executes exactly this many rounds so the \
       per-round metrics share a denominator."
    in
    Arg.(value & opt int 200 & info [ "rounds" ] ~docv:"ROUNDS" ~doc)
  in
  let dt_arg =
    let doc = "Simulated seconds the fleet advances per engine round." in
    Arg.(value & opt float 1.0 & info [ "dt" ] ~docv:"SECONDS" ~doc)
  in
  let tau_arg =
    let doc =
      "Per-frame delivery probability (Bernoulli channel); 1.0 is the \
       perfect channel."
    in
    Arg.(value & opt float 1.0 & info [ "tau" ] ~docv:"TAU" ~doc)
  in
  let churn_flag_arg =
    let doc =
      "Additionally crash 20% of the nodes a third of the way in and rejoin \
       them two thirds of the way in — discrete churn on top of the \
       continuous rewiring."
    in
    Arg.(value & flag & info [ "churn" ] ~doc)
  in
  let run seed runs jobs intensity rounds dt tau with_churn replay csv =
    let spec = E.Scenario.poisson ~intensity ~radius:0.1 () in
    let channel = Ss_radio.Channel.bernoulli tau in
    let churn =
      if with_churn then
        Some
          (Ss_engine.Churn.compose
             [
               Ss_engine.Churn.crash_fraction ~round:(rounds / 3)
                 ~fraction:0.2;
               Ss_engine.Churn.join_all ~round:(2 * rounds / 3);
             ])
      else None
    in
    sweep_main ~cmd:"motion"
      ~prefix:
        (replicated "motion" ~seed ~runs
           ([
              opt "intensity" (float_flag intensity);
              opt "rounds" (string_of_int rounds);
              opt "dt" (float_flag dt);
              opt "tau" (float_flag tau);
            ]
           @ if with_churn then [ "--churn" ] else []))
      ~jobs replay
      (E.Exp_motion.sweep ~seed ~runs ~spec ~channel ?churn ~dt ~rounds ())
      (fun rows ->
        output ~csv (E.Exp_motion.to_table rows);
        true)
  in
  Cmd.v (Cmd.info "motion" ~doc)
    Term.(
      const run $ seed_arg $ runs_arg 5 $ jobs_arg $ motion_intensity_arg
      $ rounds_arg $ dt_arg $ tau_arg $ churn_flag_arg $ replay_arg $ csv_arg)

let campaign_cmd =
  let doc =
    "Robustness: adversarial fault-campaign sweep over (corruption fraction \
     x channel x crash churn x scheduler x Byzantine adversary), with the \
     online invariant monitor classifying every non-converged run, \
     containment metrics for Byzantine cells and per-run replay pointers \
     for anomalies."
  in
  let smoke_arg =
    let doc =
      "Tiny fixed-seed grid (8 cells, 1 run each, including a Byzantine x \
       bursty cell) exercising the monitor path in seconds; used by CI."
    in
    Arg.(value & flag & info [ "smoke" ] ~doc)
  in
  let run seed runs jobs smoke replay csv =
    let grid, spec, runs, max_rounds =
      if smoke then
        ( E.Exp_campaign.smoke_grid,
          E.Scenario.uniform ~count:30 ~radius:0.2 (),
          1,
          800 )
      else (E.Exp_campaign.default_grid, E.Exp_campaign.default_spec, runs, 1_500)
    in
    let prefix =
      if smoke then replicated "campaign" ~seed [ "--smoke" ]
      else replicated "campaign" ~seed ~runs []
    in
    sweep_main ~cmd:"campaign" ~prefix ~jobs replay
      (E.Exp_campaign.sweep ~seed ~runs ~spec ~grid ~max_rounds ())
      (fun rows ->
        output ~csv (E.Exp_campaign.to_table ~replay_prefix:prefix rows);
        if not csv then List.iter print_endline (E.Exp_campaign.verdict rows);
        true)
  in
  Cmd.v (Cmd.info "campaign" ~doc)
    Term.(
      const run $ seed_arg $ runs_arg 4 $ jobs_arg $ smoke_arg $ replay_arg
      $ csv_arg)

let adversary_cmd =
  let doc =
    "Robustness: Byzantine containment sweep over (behavior x Byzantine \
     count x channel) under a permanent adversary — violation radius, \
     time to containment, clean-region legitimacy. Global convergence is \
     not the bar; bounded blast radius is."
  in
  let smoke_arg =
    let doc =
      "Tiny fixed-seed sweep (stuck/liar x 2 channels, 1 run each) \
       exercising the containment path in seconds."
    in
    Arg.(value & flag & info [ "smoke" ] ~doc)
  in
  let run seed runs jobs smoke replay csv =
    let sweep =
      if smoke then
        E.Exp_adversary.sweep ~seed ~runs:1
          ~spec:(E.Scenario.uniform ~count:30 ~radius:0.2 ())
          ~behaviors:[ Ss_engine.Adversary.Stuck; Ss_engine.Adversary.Liar ]
          ~counts:[ 2 ]
          ~channels:[ Ss_radio.Channel.perfect; E.Exp_campaign.default_bursty ]
          ~max_rounds:400 ()
      else E.Exp_adversary.sweep ~seed ~runs ()
    in
    let prefix =
      if smoke then replicated "adversary" ~seed [ "--smoke" ]
      else replicated "adversary" ~seed ~runs []
    in
    sweep_main ~cmd:"adversary" ~prefix ~jobs replay sweep (fun rows ->
        output ~csv (E.Exp_adversary.to_table ~replay_prefix:prefix rows);
        if not csv then List.iter print_endline (E.Exp_adversary.verdict rows);
        true)
  in
  Cmd.v (Cmd.info "adversary" ~doc)
    Term.(
      const run $ seed_arg $ runs_arg 5 $ jobs_arg $ smoke_arg $ replay_arg
      $ csv_arg)

let traffic_cmd =
  let doc =
    "Robustness: the data-plane workload routed over the believed cluster \
     hierarchy while it stabilizes — delivery ratio, latency and retries \
     across load x channel x crash-burst cells, with energy drain feeding \
     depleted nodes back into churn. Always ends with the sparse-vs-flat \
     replay of the heavy/lossy/burst cell and exits non-zero if the \
     executors disagree on any observable or the delivery ratio never \
     recovers to 95% of its pre-burst level."
  in
  let rounds_arg =
    let doc = "Last round with message arrivals; runs extend by the TTL." in
    Arg.(value & opt int 220 & info [ "rounds" ] ~docv:"ROUNDS" ~doc)
  in
  let window_arg =
    let doc = "Cohort width (rounds) for the dip-and-recovery series." in
    Arg.(value & opt int 20 & info [ "window" ] ~docv:"ROUNDS" ~doc)
  in
  let run seed runs jobs rounds window replay csv =
    sweep_main ~cmd:"traffic"
      ~prefix:
        (replicated "traffic" ~seed ~runs
           [
             opt "rounds" (string_of_int rounds);
             opt "window" (string_of_int window);
           ])
      ~jobs replay
      (E.Exp_traffic.sweep ~seed ~runs ~rounds ~window ())
    @@ fun rows ->
    output ~csv (E.Exp_traffic.to_table rows);
    let v = E.Exp_traffic.verify ~seed ~rounds ~window () in
    if not csv then begin
      Fmt.pr
        "verification (heavy load, lossy channel, crash burst): sparse vs \
         flat %s@."
        (if v.E.Exp_traffic.v_agree then "bit-identical" else "DIVERGED");
      if not v.E.Exp_traffic.v_agree then
        Fmt.pr "  %s@." v.E.Exp_traffic.v_detail;
      Fmt.pr
        "  delivery %.3f  latency mean %.1f  pre-burst %.3f  dip %.3f  \
         recovered %s@."
        v.E.Exp_traffic.v_ratio v.E.Exp_traffic.v_latency_mean
        v.E.Exp_traffic.v_pre v.E.Exp_traffic.v_dip
        (match v.E.Exp_traffic.v_recovered_at with
        | Some r -> Fmt.str "+%d rounds after the burst" r
        | None -> "never")
    end;
    let recovered = Option.is_some v.E.Exp_traffic.v_recovered_at in
    if not v.E.Exp_traffic.v_agree then
      Fmt.epr "ERROR: sparse and flat executors diverged: %s@."
        v.E.Exp_traffic.v_detail;
    if not recovered then
      Fmt.epr
        "ERROR: delivery ratio never recovered to 95%% of its pre-burst \
         level@.";
    v.E.Exp_traffic.v_agree && recovered
  in
  Cmd.v (Cmd.info "traffic" ~doc)
    Term.(
      const run $ seed_arg $ runs_arg 2 $ jobs_arg $ rounds_arg $ window_arg
      $ replay_arg $ csv_arg)

let stabilization_cmd =
  let doc =
    "Extension: stabilization-round distributions with 95% bootstrap CIs \
     across n (grid side 32..1000, i.e. ~1k..1M nodes on the flat \
     executor) x density x {DAG names, adversarial flat ids} x channel \
     loss; runs hitting the round cap are reported as censored. Lossy \
     cells tally post-stabilization violations and time-between-violation \
     distributions over a warm-started fixed horizon. Prints a per-curve \
     flat-vs-growing verdict and exits non-zero unless every with-DAG \
     perfect-channel curve is flat in n within CI overlap."
  in
  let smoke_arg =
    let doc =
      "Tiny sides (12, 24) at both densities and namings plus one lossy \
       cell; seconds of runtime, used by CI to gate the flat-in-n claim."
    in
    Arg.(value & flag & info [ "smoke" ] ~doc)
  in
  let run seed jobs smoke replay csv =
    let module S = E.Exp_stabilization in
    let cells = if smoke then S.smoke_cells else S.default_cells in
    sweep_main ~cmd:"stabilization"
      ~prefix:
        (replicated "stabilization" ~seed (if smoke then [ "--smoke" ] else []))
      ~jobs replay (S.sweep ~seed ~cells ())
    @@ fun rows ->
    let verdicts = S.verdicts rows in
    output ~csv (S.to_table rows);
    output ~csv (S.verdicts_table verdicts);
    if not csv then
      Fmt.pr "total executor time: %.1f s@."
        (List.fold_left (fun acc (r : S.row) -> acc +. r.S.seconds) 0.0 rows);
    let flat = S.dag_flat verdicts in
    if not flat then
      Fmt.epr "ERROR: a with-DAG curve is not flat in n within CI overlap@.";
    flat
  in
  Cmd.v (Cmd.info "stabilization" ~doc)
    Term.(const run $ seed_arg $ jobs_arg $ smoke_arg $ replay_arg $ csv_arg)

let all_cmd =
  let doc = "Run every experiment with fast defaults." in
  let run seed jobs =
    (* The sweeps below print their tables and keep going past a raising
       run; the count decides the exit status at the end. *)
    let raised = ref 0 in
    let show heading sweep renders =
      Fmt.pr "@.== %s ==@." heading;
      let entries = E.Sweep.run ~domains:jobs sweep in
      raised := !raised + List.length (E.Sweep.raised entries);
      let rows = List.map (fun e -> e.E.Sweep.row) entries in
      List.iter (fun render -> Table.print (render rows)) renders
    in
    let small = E.Scenario.poisson ~intensity:150.0 ~radius:0.12 () in
    let tiny = E.Scenario.uniform ~count:30 ~radius:0.2 () in
    Fmt.pr "== Table 1 ==@.";
    E.Exp_example.print ();
    show "Table 2"
      (E.Exp_schedule.sweep ~seed ~runs:5 ())
      [ E.Exp_schedule.to_table ];
    show "Table 3"
      (E.Exp_dag_steps.sweep ~seed ~runs:10 ())
      [ E.Exp_dag_steps.to_table ];
    show "Table 4"
      (E.Exp_features.random_sweep ~seed ~runs:10 ())
      [ E.Exp_features.to_table ~title:E.Exp_features.random_title ];
    show "Table 5"
      (E.Exp_features.grid_sweep ~seed ~runs:5 ())
      [ E.Exp_features.to_table ~title:E.Exp_features.grid_title ];
    Fmt.pr "@.== Figures 2 & 3 ==@.";
    E.Exp_figures.print ();
    show "Mobility"
      (E.Exp_mobility.sweep ~seed ~runs:3 ~horizon:120.0 ())
      [ E.Exp_mobility.to_table ];
    show "Self-stabilization"
      (E.Exp_selfstab.sweep ~seed ~runs:5 ())
      [
        E.Exp_selfstab.recovery_table;
        E.Exp_selfstab.loss_table;
      ];
    show "Metric comparison"
      (E.Exp_compare.sweep ~seed ~runs:3 ~epochs:30 ())
      [ E.Exp_compare.to_table ];
    show "Extension: energy"
      (E.Exp_energy.sweep ~seed ~runs:3 ())
      [ E.Exp_energy.to_table ];
    show "Extension: hierarchy"
      (E.Exp_hierarchy.sweep ~seed ~runs:5 ())
      [ E.Exp_hierarchy.to_table ];
    show "Extension: stabilization vs mobility"
      (E.Exp_epochs.sweep ~seed ~runs:2 ~epochs:20 E.Exp_epochs.speed_cells)
      [ E.Exp_epochs.to_table ];
    show "Extension: stabilization vs link failures"
      (E.Exp_epochs.sweep ~seed ~runs:2 ~epochs:15 E.Exp_epochs.fade_cells)
      [ E.Exp_epochs.to_table ];
    show "Extension: within-run churn"
      (E.Exp_churn.sweep ~seed ~runs:2 ~spec:small ())
      [ E.Exp_churn.to_table; E.Exp_churn.events_table ];
    show "Extension: continuous motion"
      (E.Exp_motion.sweep ~seed ~runs:2 ~rounds:80 ~spec:small ())
      [ E.Exp_motion.to_table ];
    show "Robustness: fault campaign (smoke grid)"
      (E.Exp_campaign.sweep ~seed ~runs:1 ~spec:tiny
         ~grid:E.Exp_campaign.smoke_grid ~max_rounds:800 ())
      [ E.Exp_campaign.to_table ];
    show "Robustness: Byzantine adversary (smoke)"
      (E.Exp_adversary.sweep ~seed ~runs:1 ~spec:tiny
         ~behaviors:[ Ss_engine.Adversary.Stuck ]
         ~counts:[ 2 ]
         ~channels:[ Ss_radio.Channel.perfect ]
         ~max_rounds:400 ())
      [ E.Exp_adversary.to_table ];
    show "Robustness: data-plane traffic"
      (E.Exp_traffic.sweep ~seed ~runs:1
         ~spec:(E.Scenario.poisson ~intensity:300.0 ~radius:0.1 ())
         ~rounds:120 ())
      [ E.Exp_traffic.to_table ];
    if !raised > 0 then begin
      Fmt.epr "repro all: %d sweep run(s) raised@." !raised;
      exit 1
    end
  in
  Cmd.v (Cmd.info "all" ~doc) Term.(const run $ seed_arg $ jobs_arg)

(* The single command registry: the group below, the help listing and the
   unknown-subcommand message all derive from this list, so a sweep added
   here is automatically visible everywhere (adversary, motion and
   traffic had previously drifted out of sync). *)
let commands =
  [
    table1_cmd; table2_cmd; table3_cmd; table4_cmd; table5_cmd;
    figures_cmd; mobility_cmd; selfstab_cmd; compare_cmd; energy_cmd;
    hierarchy_cmd; bounds_cmd; links_cmd; churn_cmd; motion_cmd;
    campaign_cmd; adversary_cmd; traffic_cmd; stabilization_cmd;
    all_cmd;
  ]

let main_cmd =
  let doc =
    "Reproduction of `Self-stabilization in self-organized multihop \
     wireless networks' (Mitton, Fleury, Guerin Lassous, Tixeuil)."
  in
  Cmd.group (Cmd.info "repro" ~version:"1.0.0" ~doc) commands

let () =
  (* Catch unknown subcommands before Cmdliner: fail loudly with the full
     registry instead of a terse parse error, and always exit non-zero. *)
  (match Sys.argv with
  | [||] | [| _ |] -> ()
  | argv ->
      let name = argv.(1) in
      let names = List.map Cmd.name commands in
      if
        String.length name > 0
        && name.[0] <> '-'
        && not (List.mem name names)
      then begin
        Fmt.epr "repro: unknown command '%s'.@.Available commands:@." name;
        List.iter (fun n -> Fmt.epr "  %s@." n) names;
        Fmt.epr "Run 'repro --help' for per-command details.@.";
        exit 2
      end);
  exit (Cmd.eval main_cmd)
