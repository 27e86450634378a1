(* Data-plane workload benchmark: 10k nodes under sustained load with a
   mid-run crash burst — the delivery-ratio dip and recovery curve, at a
   scale only the flat executor reaches comfortably.

   The full run (no flags) drives the flat executor for 600 rounds at 20
   messages/round over a unit-disk deployment of 10 000 nodes, crashes
   5% of the fleet at round 300 (rejoining at round 420), drains
   batteries throughout (believed-head duty + tx/rx costs, depleted
   nodes crash through the churn feed), and writes the per-cohort
   delivery-ratio curve to BENCH_traffic.json.

   --smoke is the CI gate: a 1.5k-node burst run executed three ways —
   typed sparse, flat x 1 domain, flat x 2 domains — all three required
   bit-identical on every workload observable (Workload.equal) and on
   every field of the run record (states modulo [equal_state] between
   the executors, structurally between the domain counts), and the
   delivery ratio required to recover to >= 0.95 of its pre-burst value
   after the burst. Each smoke run also
   carries two read audits: no duty drain may read more nodes than had
   their outputs change since the previous drain, and routing may read
   no node's state twice under one write stamp. Exits non-zero on
   divergence, failed recovery, an over-reading drain or a repeated
   routing read.

   The wall_seconds of the full run times its one flat run, the first
   thing the process does (harness.ml). The smoke times its flat x1 run
   the same way, builds the document a full run writes and checks it
   against the committed file's key paths instead of writing it.

     dune exec bench/bench.exe -- traffic         # full 10k run, writes JSON
     dune exec bench/bench.exe -- traffic --smoke # identity, recovery, read audits *)

module Churn = Ss_engine.Churn
module W = Ss_traffic.Workload
module Summary = Ss_stats.Summary
module Scenario = Ss_experiments.Scenario
module Json = Ssbench.Json
module E = Harness.E

(* Average unit-disk degree ~12 at any scale: enough connectivity that
   greedy + backbone routing rarely hits a void. *)
let radius_for = Harness.radius_for ~degree:12.0

type cfg = {
  count : int;
  rate : float;
  last_offer : int; (* arrivals stop here; the run drains afterwards *)
  ttl : int;
  burst_round : int;
  rejoin_round : int;
  fraction : float;
  window : int;
  capacity : float;
}

let full =
  { count = 10_000; rate = 20.0; last_offer = 440; ttl = 160; burst_round = 300;
    rejoin_round = 420; fraction = 0.05; window = 20; capacity = 600.0 }

let smoke_cfg =
  { count = 1_500; rate = 6.0; last_offer = 160; ttl = 64; burst_round = 100;
    rejoin_round = 150; fraction = 0.10; window = 20; capacity = 600.0 }

type executor = Sparse | Flat of int

(* [read] with [seen p] called before every state read of node [p]. *)
let counting (read : _ Ss_engine.Engine.reader) seen =
  let state p = seen p; read.Ss_engine.Engine.state p in
  { read with Ss_engine.Engine.state }

(* The duty-drain read audit. A traffic-free rider workload with the same
   energy model shares the run, so every state it reads is a drain read.
   A drain may read a node only when the node's outputs changed since the
   previous drain (its stamp passed that round) or it was not alive then;
   a full sweep creeping back in reads every alive node at every drain.
   Returns the rider's hook and the audit's report. *)
let audited_hook cfg ~n ~duty_every =
  let rider = W.create { cfg with W.rate = 0.0 } ~n in
  let drains = ref 0 and reads = ref 0 in
  let over = ref [] (* (round, reads, allowed) *) in
  let prev = ref 0 and was_alive = Array.make n false in
  let hook ~round ~graph ~alive ~(read : _ Ss_engine.Engine.reader) =
    let before = !reads in
    let read' = counting read (fun _ -> incr reads) in
    ignore (W.hook rider ~round ~graph ~alive ~read:read');
    if round mod duty_every = 0 then begin
      let allowed = ref 0 in
      for p = 0 to n - 1 do
        if
          alive.(p)
          && ((not was_alive.(p)) || read.Ss_engine.Engine.changed_at p > !prev)
        then incr allowed;
        was_alive.(p) <- alive.(p)
      done;
      incr drains;
      if !reads - before > !allowed then
        over := (round, !reads - before, !allowed) :: !over;
      prev := round
    end
  in
  let check label =
    Printf.printf "  drain reads (%s): %d over %d drains\n%!" label !reads
      !drains;
    List.iter
      (fun (round, reads, allowed) ->
        Printf.printf
          "  DRAIN OVER-READ (%s): round %d read %d nodes, %d moved\n%!" label
          round reads allowed)
      (List.rev !over);
    !drains > 0 && !over = []
  in
  (hook, check)

(* The routing-read audit, same idiom. A rider routing the same traffic
   with no energy model (so no duty drain) shares the run, so every
   state it reads is a routing read. Route views are cached until their
   node's state is written, so no (node, written_at) pair may be read
   twice. *)
let routed_hook cfg ~n =
  let rider = W.create { cfg with W.energy = None } ~n in
  let routed = ref 0 and repeats = ref [] (* (round, node, stamp) *) in
  let seen = Hashtbl.create 4096 in
  let hook ~round ~graph ~alive ~(read : _ Ss_engine.Engine.reader) =
    let read' =
      counting read (fun p ->
          let w = read.Ss_engine.Engine.written_at p in
          incr routed;
          if Hashtbl.mem seen (p, w) then repeats := (round, p, w) :: !repeats
          else Hashtbl.add seen (p, w) ())
    in
    ignore (W.hook rider ~round ~graph ~alive ~read:read')
  in
  let check label =
    Printf.printf "  routing reads (%s): %d\n%!" label !routed;
    List.iter
      (fun (round, p, w) ->
        Printf.printf
          "  ROUTING RE-READ (%s): round %d read node %d again at stamp %d\n%!"
          label round p w)
      (List.rev !repeats);
    !routed > 0 && !repeats = []
  in
  (hook, check)

let executor_label = function
  | Sparse -> "sparse"
  | Flat d -> Printf.sprintf "flat x%d domains" d

(* One run's workload, its audits' report, and the run itself on any
   executor:
   same stream, same workload key derivation. Control plane on a perfect
   channel (the deterministic fast path at 10k); the data plane pays
   Bernoulli 0.95 frame loss — retries are the point of the exercise. *)
let setup ?(audit = false) c =
  let rng = (Ss_experiments.Sweep.streams ~seed:Harness.seed ~runs:1).(0) in
  let spec =
    Scenario.uniform ~count:c.count ~radius:(radius_for c.count) ()
  in
  let graph = (Scenario.build rng spec).Scenario.graph in
  let n = Ss_topology.Graph.node_count graph in
  let wseed = Ss_prng.Rng.int rng 0x3FFFFFFF in
  let wcfg =
    {
      W.default_config with
      W.seed = wseed;
      channel = Ss_radio.Channel.bernoulli 0.95;
      rate = c.rate;
      last_round = Some c.last_offer;
      ttl = c.ttl;
      energy = Some { W.default_energy with W.capacity = c.capacity };
    }
  in
  let w = W.create wcfg ~n in
  let workload, audits =
    if not audit then (W.hook w, fun _ -> true)
    else
      let duty_every = W.default_energy.W.duty_every in
      let drainer, drained = audited_hook wcfg ~n ~duty_every in
      let router, routed = routed_hook wcfg ~n in
      ( (fun ~round ~graph ~alive ~read ->
          drainer ~round ~graph ~alive ~read;
          router ~round ~graph ~alive ~read;
          W.hook w ~round ~graph ~alive ~read),
        fun label ->
          let drains_ok = drained label in
          routed label && drains_ok )
  in
  let churn =
    Churn.compose
      [
        Churn.crash_fraction ~round:c.burst_round ~fraction:c.fraction;
        Churn.join_all ~round:c.rejoin_round;
        W.churn_feed w;
      ]
  in
  let quiet_rounds = Harness.quiet_rounds in
  let max_rounds = c.last_offer + c.ttl + 8 in
  let run = function
    | Sparse ->
        E.run
          ~mode:Harness.sparse
          ~quiet_rounds ~max_rounds ~churn ~workload rng graph
    | Flat domains ->
        Harness.F.run ~quiet_rounds ~max_rounds ~churn ~domains ~workload rng
          graph
  in
  (w, audits, run)

(* [executor]'s run [r] on a setup, and whether its read audits pass. *)
let audited executor (w, audits, r) =
  Printf.printf "%s: %d rounds\n%!" (executor_label executor) r.E.rounds;
  ((w, r), audits (executor_label executor))

let run_audited executor c =
  let w, audits, run = setup ~audit:true c in
  audited executor (w, audits, run executor)

(* The run record first, so a divergence there names its fields. *)
let check_identical ?exact label (wa, ra) (wb, rb) =
  let ok = Harness.same_run ?exact label ra rb && W.equal wa wb in
  Printf.printf "  %s: %s\n%!" (if ok then "identical" else "DIVERGENCE") label;
  ok

let report c w =
  let t = W.totals w in
  let ratio =
    if t.W.offered = 0 then Float.nan
    else float_of_int t.W.delivered /. float_of_int t.W.offered
  in
  Printf.printf
    "  offered %d  delivered %d (ratio %.3f)  expired %d  died %d\n\
    \  latency mean %.1f max %.0f  failures %d  reroutes %d  ghost-inv %d  \
     stalls %d\n"
    t.W.offered t.W.delivered ratio t.W.expired t.W.died
    (Summary.mean t.W.latency) (Summary.maximum t.W.latency)
    t.W.failures t.W.reroutes t.W.invalidations t.W.stalls;
  (match W.energy_report w with
  | Some e ->
      Printf.printf
        "  energy: depleted %d  spent mean %.1f max %.1f  jain %.3f  \
         head-rounds max %d\n"
        e.W.depleted e.W.spent_mean e.W.spent_max e.W.jain e.W.head_rounds_max
  | None -> ());
  let pre, dip, rec_at =
    Ss_experiments.Exp_traffic.dip_recovery ~burst_round:c.burst_round
      ~window:c.window (W.cohorts ~window:c.window w)
  in
  Printf.printf "  pre-burst ratio %.3f  dip %.3f  recovered %s\n%!" pre dip
    (match rec_at with
    | Some r -> Printf.sprintf "at +%d rounds" r
    | None -> "never");
  (ratio, pre, dip, rec_at)

let document c w dt (ratio, pre, dip, rec_at) =
  let t = W.totals w in
  let zero_nan x = if Float.is_nan x then 0.0 else x in
  let int = Json.int and fixed = Harness.fixed in
  Json.Obj
    [
      ("bench", Json.Str "traffic");
      ("executor", Json.Str "flat");
      ("nodes", int c.count);
      ("rate", Json.Num c.rate);
      ("ttl", int c.ttl);
      ("burst_round", int c.burst_round);
      ("rejoin_round", int c.rejoin_round);
      ("crash_fraction", Json.Num c.fraction);
      ("wall_seconds", fixed 2 dt);
      ("offered", int t.W.offered);
      ("delivered", int t.W.delivered);
      ("delivery_ratio", fixed 4 ratio);
      ("latency_mean", fixed 2 (Summary.mean t.W.latency));
      ("latency_max", fixed 0 (Summary.maximum t.W.latency));
      ("failures", int t.W.failures);
      ("reroutes", int t.W.reroutes);
      ("ghost_invalidations", int t.W.invalidations);
      ("pre_burst_ratio", fixed 4 pre);
      ("dip_ratio", fixed 4 dip);
      ( "recovered_after_rounds",
        match rec_at with Some r -> int r | None -> Json.Null );
      ( "energy",
        match W.energy_report w with
        | Some e ->
            Json.Obj
              [
                ("depleted", int e.W.depleted);
                ("spent_mean", fixed 2 e.W.spent_mean);
                ("spent_max", fixed 2 e.W.spent_max);
                ("jain", fixed 4 e.W.jain);
                ("head_rounds_max", int e.W.head_rounds_max);
              ]
        | None -> Json.Null );
      ( "cohorts",
        Json.Arr
          (List.map
             (fun (co : W.cohort) ->
               Json.Obj
                 [
                   ("start", int co.W.c_start);
                   ("offered", int co.W.c_offered);
                   ("delivered", int co.W.c_delivered);
                   ("ratio", fixed 4 (zero_nan co.W.c_ratio));
                   ("latency_mean", fixed 2 (zero_nan co.W.c_latency_mean));
                 ])
             (W.cohorts ~window:c.window w)) );
    ]

let recovery_ok (_, pre, _, rec_at) =
  let ok = (not (Float.is_nan pre)) && Option.is_some rec_at in
  if not ok then
    Printf.printf "  RECOVERY FAILED: ratio never regained 95%% of %.3f\n%!" pre;
  ok

(* The flat x1 run goes first and is the one timed, in smoke and full
   runs alike, so the smoke builds the document a full run writes. *)
let main smoke =
  let c = if smoke then smoke_cfg else full in
  Printf.printf
    "traffic%s: %d nodes, sustained %.0f msg/round to round %d, burst %.0f%% \
     @%d, rejoin @%d\n%!"
    (if smoke then " --smoke" else "")
    c.count c.rate c.last_offer (100.0 *. c.fraction) c.burst_round
    c.rejoin_round;
  let t, run =
    Harness.measure
      (fun () -> setup ~audit:smoke c)
      (fun (w, audits, run) -> (w, audits, run (Flat 1)))
  in
  Printf.printf "flat x1 wall: %.2fs\n%!" t.Harness.wall;
  let (w, r), audit_ok = audited (Flat 1) run in
  if smoke then begin
    let rs = run_audited Sparse c in
    let rf2 = run_audited (Flat 2) c in
    let ok_sf = check_identical "sparse == flat x1" (fst rs) (w, r) in
    let ok_dd = check_identical ~exact:true "flat x1 == flat x2" (w, r) (fst rf2) in
    Harness.require
      (ok_sf && ok_dd && audit_ok && snd rs && snd rf2)
      "traffic smoke: executors diverged or a read audit failed"
  end;
  let outcome = report c w in
  Harness.output ~smoke "BENCH_traffic.json" (document c w t.Harness.wall outcome);
  Harness.require (recovery_ok outcome) "delivery ratio never recovered"

let cmd =
  let doc = "Data-plane traffic over the clustering through a crash burst." in
  Cmdliner.(
    Cmd.v (Cmd.info "traffic" ~doc)
      Term.(
        const main
        $ Harness.smoke_arg
            "1.5k nodes on three executors with read audits; check the \
             document's shape instead of writing it."))
