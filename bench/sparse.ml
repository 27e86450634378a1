(* Dense-vs-sparse executor benchmark: the full distributed stack converges
   on a geometric deployment, then a sequence of single-node churn bursts
   (crash, later rejoin) hits it — the paper's locality claim in its purest
   form, where only a small region around each victim must re-converge.
   The dense executor still pays O(n * deg) per round for the whole tail;
   the sparse executor's per-round cost tracks the perturbed region.

   Before any timing is reported, the two modes are cross-checked for
   round-by-round identity: same round count, same per-round changed-node
   history, same burst / recovery / fault attribution, same final graph,
   same final states modulo [equal_state]. A divergence exits non-zero — a
   wrong fast executor is worthless. Each mode is then timed in its own
   fresh process (see harness.ml).

     dune exec bench/bench.exe -- sparse         # 10k nodes, writes BENCH_sparse.json
     dune exec bench/bench.exe -- sparse --smoke # miniature identity check for CI *)

module Graph = Ss_topology.Graph
module Json = Ssbench.Json
module E = Harness.E

type config = {
  label : string;
  count : int;  (** nodes in the unit square *)
  radius : float;  (** unit-disk transmission range *)
  bursts : int;  (** single-node crash+rejoin bursts after convergence *)
  spacing : int;  (** rounds between burst starts (rejoin at half) *)
  first : int;  (** first burst round, past cold-start convergence *)
}

let config ~smoke =
  if smoke then
    { label = "smoke"; count = 500; radius = 0.08; bursts = 4; spacing = 24;
      first = 40 }
  else
    { label = "full"; count = 10_000; radius = 0.02; bursts = 12; spacing = 30;
      first = 60 }

let deploy cfg =
  Harness.workload ~count:cfg.count ~radius:cfg.radius ~bursts:cfg.bursts
    ~spacing:cfg.spacing ~first:cfg.first

let modes = [ ("dense", E.Dense); ("sparse", Harness.sparse) ]

let calls ~smoke =
  let cfg = config ~smoke in
  List.map
    (fun (name, mode) ->
      ( name,
        Harness.call (fun () -> deploy cfg)
          (fun (graph, churn) -> Harness.run_typed ~mode ~churn graph)
          (fun _ -> []) ))
    modes

let main ~smoke =
  let cfg = config ~smoke in
  let graph, churn = deploy cfg in
  Fmt.pr "%s: %d nodes, %d edges, %d single-node bursts@." cfg.label
    (Graph.node_count graph) (Graph.edge_count graph) cfg.bursts;
  let dense = Harness.run_typed ~mode:E.Dense ~churn graph in
  let sparse = Harness.run_typed ~churn graph in
  Harness.require (Harness.same_run "dense/sparse" dense sparse)
    "sparse run diverged from the dense reference";
  let time name = (Harness.best ~reps:1 ~smoke "sparse" name).Harness.cpu in
  let dense_t = time "dense" in
  let sparse_t = time "sparse" in
  let speedup = dense_t /. sparse_t in
  Fmt.pr "  dense: %.3fs  sparse: %.3fs  speedup: %.1fx  rounds: %d  \
          identical: true@."
    dense_t sparse_t speedup dense.E.rounds;
  Harness.output ~smoke "BENCH_sparse.json"
    (Json.Obj
       [
         ("seed", Json.int Harness.seed);
         ("nodes", Json.int cfg.count);
         ("radius", Json.Num cfg.radius);
         ("bursts", Json.int cfg.bursts);
         ("rounds", Json.int dense.E.rounds);
         ("dense_seconds", Harness.fixed 4 dense_t);
         ("sparse_seconds", Harness.fixed 4 sparse_t);
         ("speedup", Harness.fixed 2 speedup);
         ("identical", Json.Bool true);
       ])

let cmd =
  Harness.bench "sparse" calls main
    ~doc:"Sparse executor vs. the dense walk under single-node churn."
    ~smoke_doc:"500 nodes; check the document's shape instead of writing it."
