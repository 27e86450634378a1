(* Incremental-vs-full unit-disk maintenance under continuous motion: a
   pedestrian fleet drifts through a field of parked nodes (10% mobile —
   the moving-fringe regime the incremental maintainer is built for:
   think vehicles or people crossing a deployed sensor field) for a fixed
   number of rounds; per round the incremental path re-buckets and
   re-queries only the moved nodes while the reference path rebuilds the
   whole unit-disk graph from scratch.

   Before any timing is reported, a third untimed pass cross-checks the
   two graph sequences round by round for structural equality
   (Graph.equal: identical sorted adjacency rows). A divergence exits
   non-zero — a wrong fast maintainer is worthless. Each path is then
   timed in its own fresh process (see harness.ml); building and warming
   up the world is not timed.

     dune exec bench/bench.exe -- motion         # 10k nodes, writes BENCH_motion.json
     dune exec bench/bench.exe -- motion --smoke # miniature identity check for CI *)

module Graph = Ss_topology.Graph
module Motion = Ss_topology.Motion
module Rng = Ss_prng.Rng
module Bbox = Ss_geom.Bbox
module Model = Ss_mobility.Model
module Fleet = Ss_mobility.Fleet
module Json = Ssbench.Json

let seed = 2026

type config = {
  label : string;
  count : int; (* nodes in the unit square *)
  mobile : int; (* the first [mobile] nodes walk; the rest are parked *)
  radius : float; (* unit-disk transmission range *)
  rounds : int; (* benched rounds after warmup *)
  dt : float; (* simulated seconds per round *)
  warmup : float; (* seconds stepped before the bench so walk legs mix *)
}

let config ~smoke =
  if smoke then
    { label = "smoke"; count = 500; mobile = 50; radius = 0.08; rounds = 60;
      dt = 1.0; warmup = 60.0 }
  else
    { label = "full"; count = 10_000; mobile = 1_000; radius = 0.02;
      rounds = 400; dt = 1.0; warmup = 120.0 }

(* The paper's pedestrian regime: random walk at 0-1.6 m/s. *)
let model = Model.pedestrian

(* Identical worlds for every pass: same seed -> same deployment, same
   per-node trajectory streams. The fleet covers the first [mobile]
   nodes only (fleet index = node index); the parked majority never
   moves, so the maintainer's per-round work is the fringe. *)
let make_world cfg =
  let rng = Rng.create ~seed in
  let positions =
    Array.init cfg.count (fun _ -> Bbox.sample rng Bbox.unit_square)
  in
  let fleet =
    Fleet.create rng ~model ~box:Bbox.unit_square
      (Array.sub positions 0 cfg.mobile)
  in
  Fleet.step fleet cfg.warmup;
  Fleet.iter_positions fleet (fun i p -> positions.(i) <- p);
  (fleet, positions)

(* Pass A: incremental maintenance — step the fleet, feed exactly the
   moved nodes to the maintainer, flush. Returns total moved-node count
   so the report can state how large the fringe actually was. *)
let run_incremental cfg (fleet, positions) =
  let motion = Motion.create ~radius:cfg.radius positions in
  let moved_total = ref 0 in
  let flips_total = ref 0 in
  for _ = 1 to cfg.rounds do
    let moved =
      Fleet.step_moved fleet cfg.dt (fun i p -> Motion.move motion i p)
    in
    moved_total := !moved_total + moved;
    let diff = Motion.flush motion in
    flips_total :=
      !flips_total
      + List.length diff.Motion.added
      + List.length diff.Motion.removed
  done;
  (!moved_total, !flips_total)

(* Pass B: the reference — rebuild the whole unit-disk graph from the
   fleet's current positions every round. One reused position buffer so
   the comparison is maintenance cost, not allocation noise. *)
let run_full cfg (fleet, buf) =
  let last = ref (Graph.unit_disk ~radius:cfg.radius buf) in
  for _ = 1 to cfg.rounds do
    Fleet.step fleet cfg.dt;
    Fleet.iter_positions fleet (fun i p -> buf.(i) <- p);
    last := Graph.unit_disk ~radius:cfg.radius buf
  done;
  Graph.edge_count !last

(* Pass C (untimed): both maintainers in lockstep, structural equality
   every round. *)
let cross_check cfg =
  let fleet, buf = make_world cfg in
  let motion = Motion.create ~radius:cfg.radius buf in
  let ok = ref (Graph.equal (Motion.graph motion)
                  (Graph.unit_disk ~radius:cfg.radius buf)) in
  let r = ref 0 in
  while !ok && !r < cfg.rounds do
    incr r;
    ignore (Fleet.step_moved fleet cfg.dt (fun i p -> Motion.move motion i p));
    ignore (Motion.flush motion);
    Fleet.iter_positions fleet (fun i p -> buf.(i) <- p);
    let reference = Graph.unit_disk ~radius:cfg.radius buf in
    if not (Graph.equal (Motion.graph motion) reference) then begin
      Fmt.epr "IDENTITY MISMATCH: round %d incremental != full rebuild@." !r;
      ok := false
    end
  done;
  !ok

let calls ~smoke =
  let cfg = config ~smoke in
  let world () = make_world cfg in
  [
    ( "incremental",
      Harness.call world (run_incremental cfg) (fun (moved, flips) ->
          [ ("moved", Json.int moved); ("flips", Json.int flips) ]) );
    ("full", Harness.call world (run_full cfg) (fun _ -> []));
  ]

let main ~smoke =
  let cfg = config ~smoke in
  let _, positions = make_world cfg in
  let g0 = Graph.unit_disk ~radius:cfg.radius positions in
  Fmt.pr "%s: %d nodes (%d mobile), %d edges, %d rounds of pedestrian walk@."
    cfg.label (Graph.node_count g0) cfg.mobile (Graph.edge_count g0)
    cfg.rounds;
  Harness.require (cross_check cfg)
    "incremental maintenance diverged from full rebuild";
  let inc = Harness.best ~reps:1 ~smoke "motion" "incremental" in
  let full_t = (Harness.best ~reps:1 ~smoke "motion" "full").Harness.cpu in
  let inc_t = inc.Harness.cpu and obs k = Json.to_int (Harness.observed k inc) in
  let speedup = full_t /. inc_t in
  let fringe =
    float_of_int (obs "moved") /. float_of_int (cfg.rounds * cfg.count)
  in
  Fmt.pr
    "  incremental: %.3fs  full: %.3fs  speedup: %.1fx  moving fringe: \
     %.1f%%  edge flips: %d  identical: true@."
    inc_t full_t speedup (100.0 *. fringe) (obs "flips");
  Harness.output ~smoke "BENCH_motion.json"
    (Json.Obj
       [
         ("seed", Json.int seed);
         ("nodes", Json.int cfg.count);
         ("mobile", Json.int cfg.mobile);
         ("radius", Json.Num cfg.radius);
         ("rounds", Json.int cfg.rounds);
         ("moving_fringe", Harness.fixed 4 fringe);
         ("edge_flips", Json.int (obs "flips"));
         ("incremental_seconds", Harness.fixed 4 inc_t);
         ("full_seconds", Harness.fixed 4 full_t);
         ("speedup", Harness.fixed 2 speedup);
         ("identical", Json.Bool true);
       ])

let cmd =
  Harness.bench "motion" calls main
    ~doc:"Incremental unit-disk maintenance vs. full rebuild under motion."
    ~smoke_doc:"500 nodes; check the document's shape instead of writing it."
