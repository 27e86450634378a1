(* The replay-pointer contract: every anomalous run a sweep reports can
   be re-executed in isolation — same seed, same cell index, same run
   index — and the isolated run reproduces the sweep's outcome and
   verdict exactly (same reason text). The contract rests on {!Sweep}'s
   positional sub-streams: run [i] of cell [k] draws stream [i] of the
   cell's seed, at any domain count, so a single-(cell, run)
   re-execution needs nothing from the rest of the sweep.

   Failures are injected deterministically, not mocked: a corruption
   fraction of 1.5 makes [Churn.fraction_burst] raise at plan time
   inside every campaign or churn run, and a Byzantine count of -1 makes
   the adversary sweep's [Array.sub] raise — all land in the [Raised]
   outcomes the replay pointers point at.

   The last cases drive the [repro] binary: every replicated subcommand
   replays one (cell, run) pair with --cell K --run I, a pair outside the
   sweep exits 2, and so does a bad job count, with a message naming the
   value. *)

module Sweep = Ss_experiments.Sweep
module Campaign = Ss_experiments.Exp_campaign
module Adversary_exp = Ss_experiments.Exp_adversary
module Churn_exp = Ss_experiments.Exp_churn
module Motion_exp = Ss_experiments.Exp_motion
module Traffic_exp = Ss_experiments.Exp_traffic
module Stab_exp = Ss_experiments.Exp_stabilization
module Scenario = Ss_experiments.Scenario
module Channel = Ss_radio.Channel
module Scheduler = Ss_engine.Scheduler
module Adversary = Ss_engine.Adversary

let spec = Scenario.uniform ~count:20 ~radius:0.3 ()

let poison_grid =
  {
    Campaign.g_fractions = [ 1.5 ];
    g_channels = [ Channel.perfect ];
    g_crash = [ 0.0 ];
    g_schedulers = [ Scheduler.Synchronous ];
    g_byz = [ None ];
  }

let clean_grid = { poison_grid with Campaign.g_fractions = [ 0.25 ] }

let campaign grid ~runs ~max_rounds =
  Campaign.sweep ~seed:5 ~runs ~spec ~grid ~max_rounds ()

let test_campaign_failed_replay () =
  let sweep = campaign poison_grid ~runs:2 ~max_rounds:200 in
  let row = List.hd (Sweep.rows sweep) in
  Alcotest.(check int) "both runs failed" 2 row.Campaign.failed;
  Alcotest.(check int) "both runs listed as bad" 2
    (List.length row.Campaign.bad);
  List.iter
    (fun (i, reason) ->
      let _, _, verdict = Sweep.replay sweep ~cell:0 ~run:i in
      Alcotest.(check (option string))
        (Printf.sprintf "replay of run %d reproduces the sweep verdict" i)
        (Some reason) verdict)
    row.Campaign.bad

let test_campaign_clean_replay () =
  let sweep = campaign clean_grid ~runs:1 ~max_rounds:600 in
  let row = List.hd (Sweep.rows sweep) in
  Alcotest.(check (list (pair int string)))
    "sweep reports no anomalies" [] row.Campaign.bad;
  let _, _, verdict = Sweep.replay sweep ~cell:0 ~run:0 in
  Alcotest.(check (option string)) "replay agrees the run is clean" None
    verdict

let test_campaign_replay_domain_independent () =
  (* the bad list itself is positional, so it must not depend on how the
     sweep was scheduled *)
  let bad domains =
    (List.hd
       (Sweep.rows ~domains (campaign poison_grid ~runs:2 ~max_rounds:200)))
      .Campaign.bad
  in
  Alcotest.(check (list (pair int string)))
    "replay pointers identical at 1 vs 3 domains" (bad 1) (bad 3)

let adversary ~counts ~runs ~max_rounds =
  Adversary_exp.sweep ~seed:9 ~runs ~spec ~behaviors:[ Adversary.Stuck ]
    ~counts ~channels:[ Channel.perfect ] ~max_rounds ()

let test_adversary_failed_replay () =
  let sweep = adversary ~counts:[ -1 ] ~runs:2 ~max_rounds:200 in
  let row = List.hd (Sweep.rows sweep) in
  Alcotest.(check int) "both runs failed" 2 row.Adversary_exp.failed;
  List.iter
    (fun (i, reason) ->
      let _, _, verdict = Sweep.replay sweep ~cell:0 ~run:i in
      Alcotest.(check (option string))
        (Printf.sprintf "replay of run %d reproduces the sweep verdict" i)
        (Some reason) verdict)
    row.Adversary_exp.bad

let test_adversary_clean_replay () =
  let sweep = adversary ~counts:[ 1 ] ~runs:1 ~max_rounds:400 in
  Alcotest.(check (list (pair int string)))
    "sweep reports no anomalies" []
    (List.hd (Sweep.rows sweep)).Adversary_exp.bad;
  let cell, _, verdict = Sweep.replay sweep ~cell:0 ~run:0 in
  Alcotest.(check string) "replay resolves the cell" "stuck/1 byz/perfect"
    (sweep.Sweep.label cell);
  Alcotest.(check bool) "channel" true
    (cell.Campaign.c_channel == Channel.perfect);
  Alcotest.(check (option string)) "replay agrees the run is clean" None
    verdict

let test_replay_rejects_out_of_range () =
  Alcotest.check_raises "cell outside the grid"
    (Invalid_argument "Sweep.replay: cell 99 outside the sweep (1 cells)")
    (fun () ->
      ignore
        (Sweep.replay
           (campaign clean_grid ~runs:1 ~max_rounds:600)
           ~cell:99 ~run:0));
  Alcotest.check_raises "negative run index"
    (Invalid_argument "Sweep.replay: negative run index -1") (fun () ->
      ignore
        (Sweep.replay
           (adversary ~counts:[ 1 ] ~runs:1 ~max_rounds:400)
           ~cell:0 ~run:(-1)));
  Alcotest.check_raises "run beyond the cell's run count"
    (Invalid_argument "Sweep.replay: run 7 outside cell 0 (1 runs)")
    (fun () ->
      ignore
        (Sweep.replay
           (adversary ~counts:[ 1 ] ~runs:1 ~max_rounds:400)
           ~cell:0 ~run:7))

(* ---------------------------------------------- all six sweeps replay *)

(* Run the sweep at 1 and 4 domains; the isolated replay of (cell, run)
   must give the outcome and verdict both sweeps recorded for it.
   Polymorphic compare treats nan as equal to itself, which the summary
   statistics inside some outcomes need. *)
let check_replay ?(project = Fun.id) name sweep ~cell ~run =
  let _, outcome, verdict = Sweep.replay sweep ~cell ~run in
  let project = function
    | Sweep.Done o -> Sweep.Done (project o)
    | Sweep.Raised r -> Sweep.Raised r
  in
  List.iter
    (fun domains ->
      let entry = List.nth (Sweep.run ~domains sweep) cell in
      let runs = entry.Sweep.runs in
      Alcotest.(check bool)
        (Printf.sprintf "%s: replayed outcome = sweep's (%d domains)" name
           domains)
        true
        (compare
           (project (List.nth runs.Sweep.outcomes run))
           (project outcome)
        = 0);
      Alcotest.(check (option string))
        (Printf.sprintf "%s: replayed verdict = sweep's (%d domains)" name
           domains)
        (List.assoc_opt run runs.Sweep.bad)
        verdict)
    [ 1; 4 ]

let test_replay_campaign () =
  let sweep =
    Campaign.sweep ~seed:5 ~runs:2 ~spec
      ~grid:
        {
          clean_grid with
          Campaign.g_byz = [ None; Some (2, Adversary.Liar) ];
        }
      ~max_rounds:300 ()
  in
  check_replay "campaign" sweep ~cell:1 ~run:1

let test_replay_adversary () =
  check_replay "adversary"
    (Adversary_exp.sweep ~seed:9 ~runs:2 ~spec
       ~behaviors:[ Adversary.Liar ] ~counts:[ 1 ]
       ~channels:[ Channel.perfect; Channel.bernoulli 0.8 ]
       ~max_rounds:300 ())
    ~cell:1 ~run:1

let churn_sweep =
  Churn_exp.sweep ~seed:3 ~runs:2
    ~spec:(Scenario.uniform ~count:30 ~radius:0.25 ())
    ~schedulers:[ Scheduler.Synchronous ]
    ~storms:[ Churn_exp.Crash_recover; Churn_exp.Corrupt 1.5 ]
    ~max_rounds:400 ()

let test_replay_churn () = check_replay "churn" churn_sweep ~cell:0 ~run:1

let test_churn_poison_cell () =
  (* The out-of-range fraction raises inside every run of the poison
     cell; the healthy cell before it must complete regardless. *)
  let entries = Sweep.run churn_sweep in
  let healthy = (List.nth entries 0).Sweep.runs in
  let poison = (List.nth entries 1).Sweep.runs in
  Alcotest.(check int) "healthy cell: no failed run" 0 healthy.Sweep.failed;
  Alcotest.(check int) "poison cell: every run failed" 2 poison.Sweep.failed;
  Alcotest.(check (list int))
    "poison cell: a replay pointer per run" [ 0; 1 ]
    (List.map fst poison.Sweep.bad);
  Alcotest.(check (list (pair int int)))
    "raised runs named by (cell, run)"
    [ (1, 0); (1, 1) ]
    (List.map (fun (c, r, _) -> (c, r)) (Sweep.raised entries));
  Alcotest.(check int) "non-zero exit status" 1 (Sweep.exit_status entries);
  let row = (List.nth entries 1).Sweep.row in
  Alcotest.(check int) "the row still counts the cell's runs" 2
    row.Churn_exp.runs;
  Alcotest.(check int) "and no burst from them" 0 row.Churn_exp.bursts;
  check_replay "churn poison" churn_sweep ~cell:1 ~run:0;
  Alcotest.(check int) "a clean sweep exits 0" 0
    (Sweep.exit_status
       (Sweep.run
          (Churn_exp.sweep ~seed:3 ~runs:1
             ~spec:(Scenario.uniform ~count:30 ~radius:0.25 ())
             ~schedulers:[ Scheduler.Synchronous ]
             ~storms:[ Churn_exp.Crash_recover ] ~max_rounds:400 ())))

let test_replay_motion () =
  check_replay "motion"
    (Motion_exp.sweep ~seed:7 ~runs:2
       ~spec:(Scenario.poisson ~intensity:60.0 ~radius:0.2 ())
       ~regimes:
         [
           List.hd Motion_exp.default_regimes;
           {
             Motion_exp.label = "walk";
             model = Motion_exp.walk ~speed_max:10.0;
             speed_max = 10.0;
           };
         ]
       ~rounds:20 ())
    ~cell:1 ~run:1

let test_replay_traffic () =
  check_replay "traffic"
    (Traffic_exp.sweep ~seed:4 ~runs:2
       ~spec:(Scenario.poisson ~intensity:80.0 ~radius:0.18 ())
       ~loads:[ List.hd Traffic_exp.default_loads ]
       ~channels:[ List.hd Traffic_exp.default_channels ]
       ~rounds:60 ~ttl:16 ~window:10 ~burst_round:30 ~rejoin_round:45 ())
    ~cell:1 ~run:1

let test_replay_stabilization () =
  let cell naming =
    {
      Stab_exp.c_side = 8;
      c_k = 1.5;
      c_tau = 0.95;
      c_naming = naming;
      c_runs = 2;
      c_cap = 200;
    }
  in
  check_replay "stabilization"
    ~project:(fun o -> { o with Stab_exp.seconds = 0.0 })
    (Stab_exp.sweep ~seed:6 ~cells:[ cell Stab_exp.Dag; cell Adversarial ] ())
    ~cell:1 ~run:1

(* ------------------------------------------------------ the CLI driver *)

let repro =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/repro.exe"

(* Run [repro] with [args] (and an optional environment prefix); the
   exit code and everything it printed. *)
let repro_exec ?(env = "") args =
  let out = Filename.temp_file "repro" ".out" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s %s > %s 2>&1" env (Filename.quote repro) args
         (Filename.quote out))
  in
  let text = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  (code, text)

let contains text fragment =
  let n = String.length fragment in
  let rec go i =
    i + n <= String.length text
    && (String.sub text i n = fragment || go (i + 1))
  in
  go 0

let test_cli_replays_every_sweep () =
  List.iter
    (fun (cmd, args, cell, expected) ->
      let code, text =
        repro_exec (Printf.sprintf "%s %s --cell %d --run 0" cmd args cell)
      in
      Alcotest.(check int) (cmd ^ ": exit code") 0 code;
      Alcotest.(check bool)
        (Printf.sprintf "%s: reports the replayed pair (got %S)" cmd text)
        true
        (contains text
           (Printf.sprintf "replay cell %d (%s) run 0: clean" cell expected)))
    [
      ("campaign", "--smoke", 1, "25%/perfect/-/synchronous/2 liar");
      ( "adversary",
        "--smoke",
        1,
        "stuck/2 byz/bursty(good=0.95, bad=0.20, fade=0.050, rec=0.250)" );
      ("churn", "--intensity 40", 1, "synchronous/crash 25% (permanent)");
      ("motion", "--intensity 40 --rounds 10", 1, "walk pedestrian");
      ("traffic", "--rounds 40 --window 10", 1, "light/perfect/burst");
      ("stabilization", "--smoke", 1, "side 12/k 1.2/adv-ids/tau 1.00");
      ("table2", "", 0, "poisson(300) R=0.100 ids=random");
      ("table3", "--intensity 200", 1, "grid/R=0.06");
      ("table4", "--intensity 200", 1, "R=0.08");
      ("table5", "", 0, "R=0.05");
      ("mobility", "--count 60 --horizon 10", 1, "vehicular (0-10 m/s)");
      ("selfstab", "", 5, "loss tau 0.90");
      ("compare", "", 3, "max-min (d=2)");
      ("energy", "", 0, "energy-aware election");
      ("hierarchy", "", 0, "lambda 250");
      ("bounds", "", 1, "0.5 m/s");
      ("links", "", 1, "1% link failures");
    ]

let test_cli_rejects_bad_jobs () =
  List.iter
    (fun (env, args, value) ->
      let code, text = repro_exec ~env ("churn --runs 1 " ^ args) in
      Alcotest.(check int) (Printf.sprintf "%s %s: exit 2" env args) 2 code;
      Alcotest.(check bool)
        (Printf.sprintf "the message names %s (got %S)" value text)
        true (contains text value))
    [
      ("", "--jobs 0", "\"0\"");
      ("", "--jobs=-3", "\"-3\"");
      ("REPRO_JOBS=abc", "", "\"abc\"");
      ("REPRO_JOBS=0", "", "\"0\"");
    ]

let test_runner_rejects_bad_jobs () =
  let sweep =
    {
      Sweep.label = (fun () -> "cell");
      cells = [ () ];
      runs = (fun () -> 2);
      seed = (fun _ -> 1);
      run = (fun () _ -> ());
      judge = Sweep.raised_only;
      fold = (fun () _ -> ());
    }
  in
  List.iter
    (fun d ->
      Alcotest.check_raises
        (Printf.sprintf "Sweep.run ~domains:%d" d)
        (Invalid_argument
           (Printf.sprintf "Sweep.run: domains must be positive, got %d" d))
        (fun () -> ignore (Sweep.run ~domains:d sweep)))
    [ 0; -3 ];
  List.iter
    (fun s ->
      Alcotest.check_raises
        (Printf.sprintf "jobs_of_string %S" s)
        (Invalid_argument
           (Printf.sprintf "job count must be a positive integer, got %S" s))
        (fun () -> ignore (Sweep.jobs_of_string s)))
    [ "0"; "-3"; "abc"; "" ];
  Alcotest.(check int) "blanks around a count are fine" 4
    (Sweep.jobs_of_string " 4 ")

(* A run index the cell never reaches is not a pair of the sweep: the CLI
   exits 2 naming the run and the cell's run count, instead of replaying
   a run the sweep never made. *)
let test_cli_rejects_unrun_run () =
  let code, text = repro_exec "adversary --smoke --cell 0 --run 7" in
  Alcotest.(check int) "cli exit 2" 2 code;
  Alcotest.(check bool)
    (Printf.sprintf "the message names the run count (got %S)" text)
    true
    (contains text "run 7 outside cell 0 (1 runs)")

let suite =
  [
    Alcotest.test_case "campaign: failed runs replay to the same verdict"
      `Quick test_campaign_failed_replay;
    Alcotest.test_case "campaign: clean run replays clean" `Quick
      test_campaign_clean_replay;
    Alcotest.test_case "campaign: replay pointers domain-independent" `Quick
      test_campaign_replay_domain_independent;
    Alcotest.test_case "adversary: failed runs replay to the same verdict"
      `Quick test_adversary_failed_replay;
    Alcotest.test_case "adversary: clean run replays clean" `Quick
      test_adversary_clean_replay;
    Alcotest.test_case "replay rejects out-of-range indices" `Quick
      test_replay_rejects_out_of_range;
    Alcotest.test_case "campaign: replay = sweep at 1 and 4 domains" `Quick
      test_replay_campaign;
    Alcotest.test_case "adversary: replay = sweep at 1 and 4 domains" `Quick
      test_replay_adversary;
    Alcotest.test_case "churn: replay = sweep at 1 and 4 domains" `Quick
      test_replay_churn;
    Alcotest.test_case "churn: poison cell fails, points, exits 1" `Quick
      test_churn_poison_cell;
    Alcotest.test_case "motion: replay = sweep at 1 and 4 domains" `Quick
      test_replay_motion;
    Alcotest.test_case "traffic: replay = sweep at 1 and 4 domains" `Quick
      test_replay_traffic;
    Alcotest.test_case "stabilization: replay = sweep at 1 and 4 domains"
      `Quick test_replay_stabilization;
    Alcotest.test_case "runner rejects bad job counts" `Quick
      test_runner_rejects_bad_jobs;
    Alcotest.test_case "cli: every sweep replays --cell K --run I" `Quick
      test_cli_replays_every_sweep;
    Alcotest.test_case "cli: bad --jobs / REPRO_JOBS exit 2" `Quick
      test_cli_rejects_bad_jobs;
    Alcotest.test_case "cli: a run the sweep never made exits 2" `Quick
      test_cli_rejects_unrun_run;
  ]
