(* Flat-executor benchmark: the struct-of-arrays round loop against the
   typed sparse executor on geometric deployments under churn, plus a
   million-node flat-only run — the scale the typed representation cannot
   reach comfortably (per-round list/record traffic) and the flat planes
   hold without a single per-round allocation.

   Timing methodology (harness.ml): every timed run happens in its own
   fresh process and reports CPU seconds, together with the seconds of
   the benchmark's machine-speed probe ([Ssbench.Probe]), timed in the
   same process before it builds anything, and the CPU time scaled to the
   probe's reference speed. One rep is one process; a point takes the rep
   with the least raw CPU time, and its speedup is the ratio of that
   rep's scaled times.

   Before any timing is reported the executors are cross-checked: same
   round count, same per-round changed-node history, same burst/recovery
   attribution, same final states modulo [equal_state], and the flat run
   must be bit-identical at 1 and 2 domains. A divergence exits non-zero.

   A point (or the million run) whose estimated memory need exceeds the
   host's MemAvailable is not started: the sweep keeps that point's row
   from the BENCH_flat.json it finds and says so in the file's note.

     dune exec bench/bench.exe -- flat         # scaling sweep + 1M flat,
                                               # writes BENCH_flat.json
     dune exec bench/bench.exe -- flat --smoke # small 3-way identity for CI
     dune exec bench/bench.exe -- flat --one EXEC [--count N] [--bursts N]
                                               # one timed run in a
                                               # pristine process *)

module Graph = Ss_topology.Graph
module Rng = Ss_prng.Rng
module Json = Ssbench.Json
module P = Harness.P
module E = Harness.E

let seed = Harness.seed
let run_typed = Harness.run_typed
let run_flat = Harness.run_flat

(* Warm-start states minted through the flat planes: [init_all] computes
   the namespace size once, where n typed [init] calls would recompute it
   per node — the difference between seconds and hours at 100k+. Both
   executors get the same array (and fresh same-seeded generators), so
   the comparison stays draw-for-draw. *)
let warm_states graph =
  let rng = Rng.create ~seed:(seed + 2) in
  let b = P.Flat.alloc graph in
  P.Flat.init_all b rng graph;
  Array.init (Graph.node_count graph) (P.Flat.unpack b)

(* One deployment + churn plan, derived from the node count alone so a
   [--one] child process reconstructs exactly the parent's workload. *)
let workload ~count ~bursts =
  Harness.workload ~count ~radius:(Harness.radius_for count) ~bursts
    ~spacing:30 ~first:60

(* ------------------------------------------------------------- smoke *)

(* The executors on one small deployment: dense = flat (and, with
   [~sparse], sparse = flat), and flat bit-identical at 1 and 2 domains. *)
let pass label ?channel ?churn ?(sparse = false) ~max_rounds graph =
  let f1 = run_flat ?channel ?churn ~max_rounds graph in
  let typed mode = run_typed ~mode ?channel ?churn ~max_rounds graph in
  let same ?exact what = Harness.same_run ?exact (label ^ " " ^ what) in
  same "dense/flat" (typed E.Dense) f1
  && ((not sparse) || same "sparse/flat" (typed Harness.sparse) f1)
  && same ~exact:true "1-vs-2-domain" f1
       (run_flat ~domains:2 ?channel ?churn ~max_rounds graph)

let smoke_identity () =
  let graph, churn =
    Harness.workload ~count:600 ~radius:0.08 ~bursts:3 ~spacing:20 ~first:30
  in
  Fmt.pr "smoke: %d nodes, %d edges@." (Graph.node_count graph)
    (Graph.edge_count graph);
  pass "smoke" ~churn ~sparse:true ~max_rounds:20_000 graph
  (* A lossy pass: the deliver-diff replay path, bounded rounds (a lossy
     cache-expiry stack need not quiesce). *)
  && pass "smoke lossy" ~channel:(Ss_radio.Channel.bernoulli 0.7) ~max_rounds:60
       (Ss_topology.Builders.random_geometric_count
          (Rng.create ~seed:(seed + 3))
          ~count:300 ~radius:0.1)

(* --------------------------------------------------- timed runs *)

(* The timed runs over [count] nodes; each reports its deployment's
   size, so the parent builds none it does not cross-check. [flat-1m]
   runs cold (no warm array): holding n typed records live through a
   flat run just to warm-start it charges the flat executor for the
   typed representation's heap. *)
let calls ~count ~bursts =
  let report (graph, (r : E.run)) =
    [
      ("nodes", Json.int (Graph.node_count graph));
      ("edges", Json.int (Graph.edge_count graph));
      ("rounds", Json.int r.E.rounds);
      ("converged", Json.Bool r.E.converged);
    ]
  in
  let timed setup run =
    Harness.call setup (fun ((graph, _, _) as w) -> (graph, run w)) report
  in
  let setup ~warm () =
    let graph, churn = workload ~count ~bursts in
    (graph, churn, if warm then Some (warm_states graph) else None)
  in
  let warm = setup ~warm:true in
  [
    ("sparse", timed warm (fun (g, churn, states) -> run_typed ?states ~churn g));
    ("flat", timed warm (fun (g, churn, states) -> run_flat ?states ~churn g));
    ("flat-1m", timed (setup ~warm:false) (fun (g, churn, _) -> run_flat ~churn g));
  ]

(* The rep with the least raw CPU time over [reps] fresh children. *)
let timed exec ~count ~bursts ~reps =
  Harness.best ~reps ~smoke:false "flat" exec
    ~args:[ "--count"; string_of_int count; "--bursts"; string_of_int bursts ]

(* A child's CPU, probe and scaled seconds as [exec]'s row fields. *)
let seconds exec (t : Harness.result) =
  [
    (exec ^ "_seconds", Harness.fixed 4 t.Harness.cpu);
    (exec ^ "_probe_seconds", Harness.fixed 4 t.Harness.probe);
    (exec ^ "_scaled_seconds", Harness.fixed 4 (Harness.scaled t));
  ]

(* One row of the sweep. With [~identity], an untimed cross-check after
   the children, where both results must coexist; a divergence ends the
   bench before anything is written. *)
let scale_point ~count ~bursts ~reps ~identity =
  let flat = timed "flat" ~count ~bursts ~reps in
  let sparse = timed "sparse" ~count ~bursts ~reps in
  let obs k = Harness.observed k flat in
  Fmt.pr "%dk: %d nodes, %d edges, %d single-node bursts@." (count / 1000)
    (Json.to_int (obs "nodes")) (Json.to_int (obs "edges")) bursts;
  if identity then begin
    let graph, churn = workload ~count ~bursts in
    let states = warm_states graph in
    Harness.require
      (Harness.same_run (Printf.sprintf "%d sparse/flat" count)
         (run_typed ~states ~churn graph)
         (run_flat ~states ~churn graph))
      "flat run diverged from the sparse reference"
  end;
  let speedup = Harness.scaled sparse /. Harness.scaled flat in
  Fmt.pr
    "  sparse: %.3fs (scaled %.3fs)  flat: %.3fs (scaled %.3fs)  speedup: \
     %.2fx  rounds: %d%s@."
    sparse.Harness.cpu (Harness.scaled sparse) flat.Harness.cpu
    (Harness.scaled flat) speedup (Json.to_int (obs "rounds"))
    (if identity then "  identical: true" else "");
  Json.Obj
    ([
       ("nodes", obs "nodes");
       ("radius", Harness.fixed 5 (Harness.radius_for count));
       ("bursts", Json.int bursts);
       ("rounds", obs "rounds");
     ]
    @ seconds "sparse" sparse @ seconds "flat" flat
    @ [ ("speedup", Harness.fixed 2 speedup) ]
    @ if identity then [ ("identical", Json.Bool true) ] else [])

let million () =
  let count = 1_000_000 in
  let t = timed "flat-1m" ~count ~bursts:4 ~reps:1 in
  let obs k = Harness.observed k t in
  let n = Json.to_int (obs "nodes") and rounds = Json.to_int (obs "rounds") in
  Fmt.pr "1M: %d nodes, %d edges@.  flat: %.3fs (scaled %.3fs)  rounds: %d  \
          (%.0f node-rounds/s)@."
    n (Json.to_int (obs "edges")) t.Harness.cpu (Harness.scaled t) rounds
    (float_of_int n *. float_of_int rounds /. t.Harness.cpu);
  Json.Obj
    ([
       ("nodes", obs "nodes");
       ("edges", obs "edges");
       ("radius", Harness.fixed 5 (Harness.radius_for count));
       ("rounds", obs "rounds");
     ]
    @ seconds "flat" t
    @ [ ("converged", obs "converged") ])

(* --------------------------------------------------- memory gate *)

(* Peak resident bytes per node of the heaviest process a point runs,
   rounded up. Measured peaks (VmHWM): the sparse child 975 MB at 100k
   nodes and 3.0 GB at 300k, the flat child 445 MB and 1.2 GB, the sweep
   process itself, which holds both executors' results in the 100k
   identity pass, 1.1 GB. *)
let bytes_per_node = 14_000

(* The committed BENCH_flat.json, whose rows a sweep keeps where it
   cannot run them; Null where there is none. *)
let committed () =
  try Json.read_file "BENCH_flat.json" with Sys_error _ -> Json.Null

let document ~note rows million =
  Json.Obj
    [
      ("seed", Json.int seed);
      ("note", Json.Str note);
      ("scaling", Json.Arr rows);
      ("million", million);
    ]

(* The sweep: identity is verified in-process at 100k (where both
   results fit comfortably); the larger points are timing-only — the
   executors' agreement is scale-independent (no size thresholds
   anywhere in either path) and separately enforced by the QCheck
   battery. A point (or the million run) whose estimated memory need
   exceeds MemAvailable, read right before it would start, keeps the
   committed row, if there is one. *)
let sweep () =
  let old = committed () in
  let old_rows =
    Option.fold ~none:[] ~some:Json.to_list (Json.field_opt "scaling" old)
  in
  let skipped = ref [] in
  let gated label count run kept =
    let need = count * bytes_per_node in
    match Harness.proc_kb "/proc/meminfo" "MemAvailable" with
    | Some kb when need > kb * 1024 ->
        let gb bytes = float_of_int bytes /. 1e9 in
        let why =
          Printf.sprintf "about %.1f GB needed, %.1f GB available" (gb need)
            (gb (kb * 1024))
        in
        Fmt.pr "%s: not started, %s@." label why;
        skipped := Printf.sprintf "%s (%s)" label why :: !skipped;
        kept
    | Some _ | None -> Some (run ())
  in
  let point ~count ~bursts ~reps ~identity label =
    gated label count
      (fun () -> scale_point ~count ~bursts ~reps ~identity)
      (List.find_opt
         (fun row -> Json.to_int (Json.field "nodes" row) = count)
         old_rows)
  in
  (* Sequential lets: list elements would evaluate right to left. *)
  let p100 = point ~count:100_000 ~bursts:8 ~reps:2 ~identity:true "100k" in
  let p300 = point ~count:300_000 ~bursts:4 ~reps:2 ~identity:false "300k" in
  let p1m = point ~count:1_000_000 ~bursts:4 ~reps:1 ~identity:false "1M" in
  let m = gated "million run" 1_000_000 million (Json.field_opt "million" old) in
  let note =
    match List.rev !skipped with
    | [] -> "Every row is measured by one run of the sweep."
    | l ->
        "Rows not re-measured by the last run of the sweep, kept from the \
         file it found (their estimated memory need exceeded MemAvailable): "
        ^ String.concat "; " l ^ "."
  in
  match m with
  | Some m ->
      let rows = List.filter_map Fun.id [ p100; p300; p1m ] in
      Harness.write "BENCH_flat.json" (document ~note rows m)
  | None -> Fmt.pr "no million row to write; BENCH_flat.json left as it is@."

(* The smoke: the identity passes, then one small point through the
   children, checked against the committed file's shape. Its million row
   is the committed one, as in a sweep on a host where the million run
   does not fit. *)
let smoke () =
  Harness.require (smoke_identity ()) "flat run diverged";
  let row = scale_point ~count:2_000 ~bursts:2 ~reps:1 ~identity:true in
  let million = Json.field_opt "million" (committed ()) in
  Harness.output ~smoke:true "BENCH_flat.json"
    (document ~note:"smoke" [ row ] (Option.value million ~default:Json.Null))

let main smoke_mode one count bursts =
  match one with
  | Some exec -> Harness.child (calls ~count ~bursts) exec
  | None -> if smoke_mode then smoke () else sweep ()

let cmd =
  let open Cmdliner in
  let int_opt name default doc =
    Arg.(value & opt int default & info [ name ] ~docv:"N" ~doc)
  in
  let doc = "Flat executor vs. the typed sparse executor, up to 1M nodes." in
  Cmd.v (Cmd.info "flat" ~doc)
    Term.(
      const main
      $ Harness.smoke_arg
          "Identity checks at 600 and 300 nodes and one 2k-node point; \
           check the document's shape instead of writing it."
      $ Harness.one_arg
      $ int_opt "count" 100_000 "With $(b,--one): nodes of the timed deployment."
      $ int_opt "bursts" 8 "With $(b,--one): single-node churn bursts.")
