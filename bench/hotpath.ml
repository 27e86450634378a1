(* Hot-path benchmark for the churn pipeline: incremental snapshot
   patching vs. the reference full rebuild, plus the other substrate costs
   a dynamic-topology experiment pays per round (unit-disk construction,
   one distributed protocol round, result-table construction). Emits
   BENCH_hotpath.json in the working directory (full scale only) and a
   summary on stdout.

     dune exec bench/bench.exe -- hotpath         # full scale (1000 nodes)
     dune exec bench/bench.exe -- hotpath --smoke # CI smoke (tiny n, one rep)

   Every timed pair is cross-checked for result identity first (patched
   snapshots must be structurally equal to full rebuilds on every round);
   the bench exits non-zero on any mismatch. Each time is the least CPU
   time over [reps] fresh processes (see harness.ml). *)

module Rng = Ss_prng.Rng
module Graph = Ss_topology.Graph
module Dynamic = Ss_topology.Dynamic
module Table = Ss_stats.Table
module Json = Ssbench.Json

let seed = 2027
let radius = 0.1

type cfg = { n : int; churn_rounds : int; table_rows : int; reps : int }

let cfg ~smoke =
  if smoke then { n = 150; churn_rounds = 50; table_rows = 200; reps = 1 }
  else { n = 1000; churn_rounds = 300; table_rows = 2000; reps = 3 }

(* Per-round single-node churn: odd rounds crash a uniformly drawn alive
   node, even rounds rejoin the longest-crashed one. The plan is
   precomputed against a scratch overlay so every pass replays the exact
   same event sequence. *)
type op = Crash of int | Join of int

let apply dyn = function
  | Crash p -> ignore (Dynamic.crash dyn p)
  | Join p -> ignore (Dynamic.join dyn p)

(* The deployment and its churn plan, a function of [c] alone so a child
   rebuilds exactly the parent's. *)
let world c =
  let positions =
    Ss_geom.Point_process.uniform (Rng.create ~seed) ~count:c.n
      ~box:Ss_geom.Bbox.unit_square
  in
  let base = Graph.unit_disk ~radius positions in
  let rng = Rng.create ~seed:(seed + 1) in
  let dyn = Dynamic.create base in
  let crashed = Queue.create () in
  let plan =
    Array.init c.churn_rounds (fun r ->
        if r mod 2 = 0 || Queue.is_empty crashed then begin
          let alive = Dynamic.nodes_with dyn Dynamic.Alive in
          let victim = List.nth alive (Rng.int rng (List.length alive)) in
          apply dyn (Crash victim);
          Queue.push victim crashed;
          Crash victim
        end
        else begin
          let back = Queue.pop crashed in
          apply dyn (Join back);
          Join back
        end)
  in
  (positions, base, plan)

(* Replays the plan, taking one snapshot per round. *)
let replay snapshot (_, base, plan) =
  let dyn = Dynamic.create base in
  let acc = ref 0 in
  Array.iter
    (fun op ->
      apply dyn op;
      acc := !acc + Graph.edge_count (snapshot dyn))
    plan;
  !acc

(* Round-by-round structural identity of patch vs. rebuild, untimed. *)
let check_identity (_, base, plan) =
  let dyn = Dynamic.create base in
  Array.for_all
    (fun op ->
      apply dyn op;
      Graph.equal (Dynamic.snapshot dyn) (Dynamic.materialize dyn))
    plan

let run_distributed_round (_, base, _) =
  let rng = Rng.create ~seed:(seed + 2) in
  (Harness.E.run ~max_rounds:1 ~quiet_rounds:1 rng base).Harness.E.rounds

let run_table_build c =
  let t = Table.create ~title:"bench" ~header:[ "id"; "value"; "note" ] () in
  let t =
    List.fold_left
      (fun t i ->
        Table.add_row t
          [ Table.cell_int i; Table.cell_float (float_of_int i *. 0.5); "row" ])
      t
      (List.init c.table_rows Fun.id)
  in
  String.length (Table.render t) + String.length (Table.to_csv t)

(* The timed calls; each child builds the world untimed. *)
let calls ~smoke =
  let c = cfg ~smoke in
  let timed name run = (name, Harness.call (fun () -> world c) run (fun _ -> [])) in
  [
    timed "patch" (replay Dynamic.snapshot);
    timed "rebuild" (replay Dynamic.materialize);
    timed "unit_disk" (fun (positions, _, _) -> Graph.unit_disk ~radius positions);
    timed "round" run_distributed_round;
    timed "table" (fun _ -> run_table_build c);
  ]

let main ~smoke =
  let c = cfg ~smoke in
  let ((_, base, _) as w) = world c in
  Harness.require (check_identity w) "patched snapshot diverged from full rebuild";
  Fmt.pr "hotpath bench (n=%d, m=%d, %d churn rounds, best of %d rep%s%s)@."
    c.n (Graph.edge_count base) c.churn_rounds c.reps
    (if c.reps = 1 then "" else "s")
    (if smoke then ", smoke" else "");
  let time call = (Harness.best ~reps:c.reps ~smoke "hotpath" call).Harness.cpu in
  let patch_t = time "patch" in
  let rebuild_t = time "rebuild" in
  let disk_t = time "unit_disk" in
  let round_t = time "round" in
  let table_t = time "table" in
  let speedup = rebuild_t /. patch_t in
  let ms t = t *. 1e3 in
  Fmt.pr "  snapshot: patch %.2f ms  rebuild %.2f ms  speedup %.1fx  \
          identical: true@.  unit_disk build: %.2f ms@.  one distributed \
          round: %.2f ms@.  table build (%d rows): %.2f ms@."
    (ms patch_t) (ms rebuild_t) speedup (ms disk_t) (ms round_t) c.table_rows
    (ms table_t);
  let int = Json.int and seconds = Harness.fixed 6 in
  Harness.output ~smoke "BENCH_hotpath.json"
    (Json.Obj
       [
         ("smoke", Json.Bool smoke);
         ("seed", int seed);
         ("nodes", int c.n);
         ("radius", Json.Num radius);
         ("edges", int (Graph.edge_count base));
         ("churn_rounds", int c.churn_rounds);
         ("reps", int c.reps);
         ("snapshot_patch_seconds", seconds patch_t);
         ("snapshot_rebuild_seconds", seconds rebuild_t);
         ("snapshot_speedup", Harness.fixed 2 speedup);
         ("snapshots_identical", Json.Bool true);
         ("unit_disk_seconds", seconds disk_t);
         ("distributed_round_seconds", seconds round_t);
         ("table_rows", int c.table_rows);
         ("table_build_seconds", seconds table_t);
       ])

let cmd =
  Harness.bench "hotpath" calls main
    ~doc:"Churn snapshot patching vs. full rebuild, and other per-round costs."
    ~smoke_doc:"150 nodes, one rep; check the document's shape instead of \
                writing it."
