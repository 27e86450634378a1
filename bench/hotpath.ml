(* Hot-path benchmark for the churn pipeline: incremental snapshot
   patching vs. the reference full rebuild, plus the other substrate costs
   a dynamic-topology experiment pays per round (unit-disk construction,
   one distributed protocol round, result-table construction). Emits
   BENCH_hotpath.json in the working directory (full scale only) and a
   summary on stdout.

     dune exec bench/hotpath.exe            # full scale (1000 nodes)
     dune exec bench/hotpath.exe -- --smoke # CI smoke (tiny n, one rep)

   Every timed pair is cross-checked for result identity first (patched
   snapshots must be structurally equal to full rebuilds on every round);
   the bench exits non-zero on any mismatch. *)

module Rng = Ss_prng.Rng
module Graph = Ss_topology.Graph
module Dynamic = Ss_topology.Dynamic
module Table = Ss_stats.Table

let smoke = Array.exists (String.equal "--smoke") Sys.argv
let seed = 2027
let n = if smoke then 150 else 1000
let radius = 0.1
let churn_rounds = if smoke then 50 else 300
let table_rows = if smoke then 200 else 2000
let reps = if smoke then 1 else 3

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (Unix.gettimeofday () -. t0, v)

let best f =
  let rec go best_t last_v k =
    if k = 0 then (best_t, Option.get last_v)
    else
      let t, v = time f in
      go (Float.min best_t t) (Some v) (k - 1)
  in
  go infinity None reps

let positions =
  let rng = Rng.create ~seed in
  Ss_geom.Point_process.uniform rng ~count:n ~box:Ss_geom.Bbox.unit_square

let base = Graph.unit_disk ~radius positions

(* Per-round single-node churn: odd rounds crash a uniformly drawn alive
   node, even rounds rejoin the longest-crashed one. The plan is
   precomputed against a scratch overlay so the timed passes replay the
   exact same event sequence. *)
type op = Crash of int | Join of int

let plan =
  let rng = Rng.create ~seed:(seed + 1) in
  let dyn = Dynamic.create base in
  let crashed = Queue.create () in
  Array.init churn_rounds (fun r ->
      if r mod 2 = 0 || Queue.is_empty crashed then begin
        let alive = Dynamic.nodes_with dyn Dynamic.Alive in
        let victim = List.nth alive (Rng.int rng (List.length alive)) in
        ignore (Dynamic.crash dyn victim);
        Queue.push victim crashed;
        Crash victim
      end
      else begin
        let back = Queue.pop crashed in
        ignore (Dynamic.join dyn back);
        Join back
      end)

let apply dyn = function
  | Crash p -> ignore (Dynamic.crash dyn p)
  | Join p -> ignore (Dynamic.join dyn p)

let run_patched () =
  let dyn = Dynamic.create base in
  let acc = ref 0 in
  Array.iter
    (fun op ->
      apply dyn op;
      acc := !acc + Graph.edge_count (Dynamic.snapshot dyn))
    plan;
  !acc

let run_rebuilt () =
  let dyn = Dynamic.create base in
  let acc = ref 0 in
  Array.iter
    (fun op ->
      apply dyn op;
      acc := !acc + Graph.edge_count (Dynamic.materialize dyn))
    plan;
  !acc

(* Round-by-round structural identity of patch vs. rebuild, untimed. *)
let check_identity () =
  let dyn = Dynamic.create base in
  Array.for_all
    (fun op ->
      apply dyn op;
      Graph.equal (Dynamic.snapshot dyn) (Dynamic.materialize dyn))
    plan

module Protocol = Ss_cluster.Distributed.Make (struct
  let params = Ss_cluster.Distributed.default_params
end)

module Engine = Ss_engine.Engine.Make (Protocol)

let run_distributed_round () =
  let rng = Rng.create ~seed:(seed + 2) in
  let result = Engine.run ~max_rounds:1 ~quiet_rounds:1 rng base in
  result.Engine.rounds

let run_table_build () =
  let t =
    Table.create ~title:"bench" ~header:[ "id"; "value"; "note" ] ()
  in
  let t =
    List.fold_left
      (fun t i ->
        Table.add_row t
          [ Table.cell_int i; Table.cell_float (float_of_int i *. 0.5); "row" ])
      t
      (List.init table_rows Fun.id)
  in
  String.length (Table.render t) + String.length (Table.to_csv t)

let () =
  let identical = check_identity () in
  if not identical then
    Fmt.epr "ERROR: patched snapshot diverged from full rebuild@.";
  let patch_t, patch_v = best run_patched in
  let rebuild_t, rebuild_v = best run_rebuilt in
  if patch_v <> rebuild_v then
    Fmt.epr "ERROR: patched and rebuilt edge totals differ@.";
  let speedup = rebuild_t /. patch_t in
  let disk_t, _ = best (fun () -> Graph.unit_disk ~radius positions) in
  let round_t, _ = best run_distributed_round in
  let table_t, _ = best run_table_build in
  let json =
    Printf.sprintf
      "{\n\
      \  \"smoke\": %b,\n\
      \  \"seed\": %d,\n\
      \  \"nodes\": %d,\n\
      \  \"radius\": %.3f,\n\
      \  \"edges\": %d,\n\
      \  \"churn_rounds\": %d,\n\
      \  \"reps\": %d,\n\
      \  \"snapshot_patch_seconds\": %.6f,\n\
      \  \"snapshot_rebuild_seconds\": %.6f,\n\
      \  \"snapshot_speedup\": %.2f,\n\
      \  \"snapshots_identical\": %b,\n\
      \  \"unit_disk_seconds\": %.6f,\n\
      \  \"distributed_round_seconds\": %.6f,\n\
      \  \"table_rows\": %d,\n\
      \  \"table_build_seconds\": %.6f\n\
       }\n"
      smoke seed n radius (Graph.edge_count base) churn_rounds reps patch_t
      rebuild_t speedup identical disk_t round_t table_rows table_t
  in
  (* Like the other benches, the smoke run leaves the committed numbers
     alone. *)
  if not smoke then begin
    let oc = open_out "BENCH_hotpath.json" in
    output_string oc json;
    close_out oc
  end;
  Fmt.pr "hotpath bench (n=%d, m=%d, %d churn rounds, best of %d rep%s%s)@."
    n (Graph.edge_count base) churn_rounds reps
    (if reps = 1 then "" else "s")
    (if smoke then ", smoke" else "");
  Fmt.pr "  snapshot: patch %.2f ms  rebuild %.2f ms  speedup %.1fx  \
          identical: %b@."
    (patch_t *. 1e3) (rebuild_t *. 1e3) speedup identical;
  Fmt.pr "  unit_disk build: %.2f ms@." (disk_t *. 1e3);
  Fmt.pr "  one distributed round: %.2f ms@." (round_t *. 1e3);
  Fmt.pr "  table build (%d rows): %.2f ms@." table_rows (table_t *. 1e3);
  if not smoke then Fmt.pr "wrote BENCH_hotpath.json@.";
  if not identical then exit 1
