(* Flat-executor benchmark: the struct-of-arrays round loop against the
   typed sparse executor on geometric deployments under churn, plus a
   million-node flat-only run — the scale the typed representation cannot
   reach comfortably (per-round list/record traffic) and the flat planes
   hold without a single per-round allocation.

   Timing methodology: every timed run happens in its own fresh process
   (the bench re-execs itself with [--one]) and reports CPU seconds
   (Sys.time), together with the seconds of the benchmark's
   machine-speed probe ([Ssbench.Probe]), timed in the same process
   before it builds anything, and the CPU time scaled to the probe's
   reference speed.  In-process back-to-back timing is unusable at this
   scale: whichever executor runs second pays major-GC costs
   proportional to the first's live result, and OCaml 5.1's
   Gc.compact does not return freed pages, so the pollution is
   one-way and unbounded.  A fresh process per measurement is the only
   arrangement where the number measures the executor.

   Before any timing is reported the executors are cross-checked: same
   round count, same per-round changed-node history, same burst/recovery
   attribution, same final states modulo [equal_state], and the flat run
   must be bit-identical at 1 and 2 domains. A divergence exits non-zero.

   One rep is one process; a point takes the rep with the least scaled
   time — on a busy shared box CPU-time noise is strictly additive (cache
   and bandwidth interference only ever slow a run down), so the minimum
   is the estimator of the uncontended cost, and scaling by the probe
   removes the part of a host slowdown that lasts through the child.

   A point (or the million run) whose estimated memory need exceeds the
   host's MemAvailable is not started: the sweep keeps that point's row
   from the BENCH_flat.json it finds and says so in the file's note.

     dune exec bench/flat.exe            # scaling sweep + 1M flat,
                                         # writes BENCH_flat.json
     dune exec bench/flat.exe -- --smoke # small 3-way identity for CI
     dune exec bench/flat.exe -- --one EXEC [--count N] [--bursts N]
                                         # internal: one timed run in a
                                         # pristine process *)

module Graph = Ss_topology.Graph
module Builders = Ss_topology.Builders
module Channel = Ss_radio.Channel
module Rng = Ss_prng.Rng
module Churn = Ss_engine.Churn
module Distributed = Ss_cluster.Distributed

module P = Distributed.Make (struct
  let params = Distributed.default_params
end)

module E = Ss_engine.Engine.Make (P)
module F = Ss_engine.Flat.Make (P)

let seed = 2026
let quiet_rounds = Distributed.default_params.Distributed.cache_ttl + 2

(* Average unit-disk degree ~7 at any scale. *)
let radius_for n = sqrt (7.0 /. (Float.pi *. float_of_int n))

(* Victims stride across the id space so bursts land in different
   regions; each burst is one crash with the rejoin half a spacing
   later. *)
let plan ~bursts ~spacing ~first n =
  Churn.schedule
    (List.concat
       (List.init bursts (fun i ->
            let v = 997 * (i + 1) mod n in
            let r = first + (i * spacing) in
            [
              (r, [ Churn.Crash v ]);
              (r + (spacing / 2), [ Churn.Join v ]);
            ])))

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
  let radius = radius_for count in
  let rng = Rng.create ~seed:(seed + 1) in
  let graph = Builders.random_geometric_count rng ~count ~radius in
  let churn = plan ~bursts ~spacing:30 ~first:60 (Graph.node_count graph) in
  (graph, radius, churn)

let run_sparse ?states ~churn graph =
  E.run
    ~mode:(E.Sparse { warm = Some Distributed.pending_expiry })
    ~quiet_rounds ~max_rounds:20_000 ~churn ?states (Rng.create ~seed) graph

let run_flat ?states ?(domains = 1) ~churn graph =
  F.run ~quiet_rounds ~max_rounds:20_000 ~churn ~domains ?states
    (Rng.create ~seed) graph

let check label ok = if not ok then Fmt.epr "IDENTITY MISMATCH: %s@." label

(* Typed run vs flat run: every observable both executors report. *)
let typed_vs_flat what (t : E.run) (f : F.run) =
  let checks =
    [
      ( "final states",
        Array.for_all2 (fun a b -> P.equal_state a b) t.E.states f.F.states );
      ("rounds", t.E.rounds = f.F.rounds);
      ("converged", t.E.converged = f.F.converged);
      ("last_change_round", t.E.last_change_round = f.F.last_change_round);
      ("change_history", t.E.change_history = f.F.change_history);
      ("alive", t.E.alive = f.F.alive);
      ("bursts", t.E.bursts = f.F.bursts);
      ("faults", t.E.faults = f.F.faults);
      ("graph", Graph.equal t.E.graph f.F.graph);
    ]
  in
  List.iter (fun (l, ok) -> check (what ^ ": " ^ l) ok) checks;
  List.for_all snd checks

(* Two flat runs must agree bit-for-bit — structural equality, caches
   included, not just [equal_state]. *)
let flat_vs_flat what (a : F.run) (b : F.run) =
  let checks =
    [
      ("states", a.F.states = b.F.states);
      ("rounds", a.F.rounds = b.F.rounds);
      ("converged", a.F.converged = b.F.converged);
      ("change_history", a.F.change_history = b.F.change_history);
      ("alive", a.F.alive = b.F.alive);
      ("bursts", a.F.bursts = b.F.bursts);
      ("faults", a.F.faults = b.F.faults);
      ("graph", Graph.equal a.F.graph b.F.graph);
    ]
  in
  List.iter (fun (l, ok) -> check (what ^ ": " ^ l) ok) checks;
  List.for_all snd checks

(* ------------------------------------------------------------- smoke *)

let smoke () =
  let rng = Rng.create ~seed:(seed + 1) in
  let graph = Builders.random_geometric_count rng ~count:600 ~radius:0.08 in
  let n = Graph.node_count graph in
  let churn = plan ~bursts:3 ~spacing:20 ~first:30 n in
  Fmt.pr "smoke: %d nodes, %d edges@." n (Graph.edge_count graph);
  let dense =
    E.run ~mode:E.Dense ~quiet_rounds ~max_rounds:20_000 ~churn
      (Rng.create ~seed) graph
  in
  let sparse = run_sparse ~churn graph in
  let f1 = run_flat ~churn graph and f2 = run_flat ~domains:2 ~churn graph in
  let ok =
    typed_vs_flat "smoke dense/flat" dense f1
    && typed_vs_flat "smoke sparse/flat" sparse f1
    && flat_vs_flat "smoke 1-vs-2-domain" f1 f2
  in
  (* A lossy pass: the deliver-diff replay path, bounded rounds (a lossy
     cache-expiry stack need not quiesce). *)
  let rng = Rng.create ~seed:(seed + 3) in
  let graph = Builders.random_geometric_count rng ~count:300 ~radius:0.1 in
  let channel = Channel.bernoulli 0.7 in
  let dense =
    E.run ~mode:E.Dense ~channel ~quiet_rounds ~max_rounds:60
      (Rng.create ~seed) graph
  in
  let flat domains =
    F.run ~channel ~quiet_rounds ~max_rounds:60 ~domains (Rng.create ~seed)
      graph
  in
  let f1 = flat 1 and f2 = flat 2 in
  let ok =
    ok
    && typed_vs_flat "smoke lossy dense/flat" dense f1
    && flat_vs_flat "smoke lossy 1-vs-2-domain" f1 f2
  in
  Fmt.pr "  identity: %b  rounds: %d@." ok dense.E.rounds;
  ok

(* --------------------------------------------- one timed child run *)

(* The kB value of [field] in a /proc file of "Field: N kB" lines;
   None where unreadable. *)
let proc_kb file field =
  match open_in file with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line -> (
            match Scanf.sscanf line "%s@: %d kB" (fun k v -> (k, v)) with
            | k, kb when k = field -> Some kb
            | _ -> scan ()
            | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) ->
                scan ())
      in
      scan ()

(* The process's peak resident set (VmHWM), in MB; 0 where unreadable. *)
let peak_mb () =
  match proc_kb "/proc/self/status" "VmHWM" with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> 0.0

(* The probe's CPU seconds on the reference machine, as in
   benchmark/run.ml: a child's scaled time is its CPU time x this / its
   own probe time. *)
let probe_reference_s = 0.4

(* Runs a single executor once and prints one machine-readable line;
   the parent spawns one child per measurement so every number comes
   from a pristine heap. [flat-1m] runs cold (no warm array): holding
   n typed records live through a flat run just to warm-start it
   charges the flat executor for the typed representation's heap. *)
let one exec ~count ~bursts =
  let probe = Ssbench.Probe.seconds () in
  let graph, _, churn = workload ~count ~bursts in
  let states =
    match exec with
    | "sparse" | "flat" -> Some (warm_states graph)
    | _ -> None
  in
  let t0 = Sys.time () in
  let rounds, converged =
    match exec with
    | "sparse" ->
        let r = run_sparse ?states ~churn graph in
        (r.E.rounds, r.E.converged)
    | "flat" ->
        let r = run_flat ?states ~churn graph in
        (r.F.rounds, r.F.converged)
    | "flat-cold" | "flat-1m" ->
        let r = run_flat ~churn graph in
        (r.F.rounds, r.F.converged)
    | _ -> invalid_arg ("flat bench: unknown executor " ^ exec)
  in
  let cpu = Sys.time () -. t0 in
  Printf.printf
    "RESULT %s cpu=%.4f probe=%.4f scaled=%.4f rounds=%d converged=%b \
     peak_mb=%.0f\n%!"
    exec cpu probe
    (cpu *. probe_reference_s /. probe)
    rounds converged (peak_mb ())

(* One child's times: raw CPU seconds, the probe's seconds, and the CPU
   time at the probe's reference speed. *)
type times = { cpu : float; probe : float; scaled : float }

(* Spawn [--one] in a fresh process, parse its RESULT line. *)
let child exec ~count ~bursts =
  let cmd =
    Printf.sprintf "%s --one %s --count %d --bursts %d"
      (Filename.quote Sys.executable_name)
      exec count bursts
  in
  let ic = Unix.open_process_in cmd in
  let result = ref None in
  (try
     while true do
       let line = input_line ic in
       print_endline line;
       try
         Scanf.sscanf line
           "RESULT %s cpu=%f probe=%f scaled=%f rounds=%d converged=%B"
           (fun _ cpu probe scaled rounds converged ->
             result := Some ({ cpu; probe; scaled }, rounds, converged))
       with Scanf.Scan_failure _ | Failure _ | End_of_file -> ()
     done
   with End_of_file -> ());
  match (Unix.close_process_in ic, !result) with
  | Unix.WEXITED 0, Some r -> r
  | status, _ ->
      let code =
        match status with
        | Unix.WEXITED c -> c
        | Unix.WSIGNALED s | Unix.WSTOPPED s -> -s
      in
      Fmt.epr "ERROR: child '%s' failed (status %d)@." cmd code;
      exit 1

(* -------------------------------------------------------------- full *)

(* The times of the rep with the least scaled time over [reps]
   fresh-process runs (see the header). *)
let child_min exec ~count ~bursts ~reps =
  let best = ref None and rounds = ref 0 in
  for _ = 1 to reps do
    let t, r, _ = child exec ~count ~bursts in
    (match !best with
    | Some b when b.scaled <= t.scaled -> ()
    | Some _ | None -> best := Some t);
    rounds := r
  done;
  (Option.get !best, !rounds)

(* --------------------------------------------------- memory gate *)

(* Peak resident bytes per node of the heaviest process a point runs,
   rounded up. Measured peaks (VmHWM): the sparse child 975 MB at 100k
   nodes and 3.0 GB at 300k, the flat child 445 MB and 1.2 GB, the sweep
   process itself, which holds both executors' results in the 100k
   identity pass, 1.1 GB. *)
let bytes_per_node = 14_000

(* [Some (need, available)] in bytes when a run over [count] nodes is
   estimated not to fit MemAvailable, read right before it would start. *)
let too_big count =
  match proc_kb "/proc/meminfo" "MemAvailable" with
  | Some kb when count * bytes_per_node > kb * 1024 ->
      Some (count * bytes_per_node, kb * 1024)
  | Some _ | None -> None

let gb bytes = float_of_int bytes /. 1e9

(* The rows of the BENCH_flat.json in the working directory, as text:
   each "scaling" object with its node count, and the "million" object.
   The file is this program's own output, whose rows hold no nested
   braces. *)
let committed () =
  match In_channel.with_open_bin "BENCH_flat.json" In_channel.input_all with
  | exception Sys_error _ -> ([], None)
  | text ->
      let find sub from =
        let ls = String.length sub and lt = String.length text in
        let rec go i =
          if i + ls > lt then None
          else if String.sub text i ls = sub then Some i
          else go (i + 1)
        in
        go from
      in
      let object_at i =
        match (String.index_from_opt text i '{', String.index_from_opt text i '}') with
        | Some a, Some b when a < b -> Some (a, String.sub text a (b - a + 1))
        | _ -> None
      in
      let rows =
        match (find "\"scaling\"" 0, find "\"million\"" 0) with
        | Some lo, Some hi ->
            let rec collect i acc =
              match object_at i with
              | Some (a, row) when a < hi -> (
                  match find "\"nodes\":" a with
                  | Some k ->
                      let nodes =
                        Scanf.sscanf
                          (String.sub text k (String.length text - k))
                          "\"nodes\": %d" Fun.id
                      in
                      collect (a + String.length row) ((nodes, row) :: acc)
                  | None -> List.rev acc)
              | Some _ | None -> List.rev acc
            in
            collect lo []
        | _ -> []
      in
      let million =
        Option.bind (find "\"million\"" 0) (fun i -> Option.map snd (object_at i))
      in
      (rows, million)

(* A row of the sweep: measured now, or kept from the committed file. *)
type 'a row = Measured of 'a | Kept of string

type point = {
  nodes : int;
  radius : float;
  bursts : int;
  rounds : int;
  sparse : times;
  flat : times;
  speedup : float; (* of the scaled times *)
  identical : bool option; (* None = identity checked at another scale *)
}

let scale_point ~count ~bursts ~reps ~identity =
  let graph, radius, churn = workload ~count ~bursts in
  let n = Graph.node_count graph in
  Fmt.pr "%dk: %d nodes, %d edges, %d single-node bursts@." (count / 1000) n
    (Graph.edge_count graph) bursts;
  let flat_t, rounds = child_min "flat" ~count ~bursts ~reps in
  let sparse_t, _ = child_min "sparse" ~count ~bursts ~reps in
  (* The identity pass is untimed — here both results must coexist. *)
  let identical =
    if not identity then None
    else begin
      let states = warm_states graph in
      let sparse = run_sparse ~states ~churn graph in
      let flat = run_flat ~states ~churn graph in
      Some
        (typed_vs_flat (Printf.sprintf "%d sparse/flat" count) sparse flat)
    end
  in
  let speedup = sparse_t.scaled /. flat_t.scaled in
  Fmt.pr
    "  sparse: %.3fs (scaled %.3fs)  flat: %.3fs (scaled %.3fs)  speedup: \
     %.2fx  rounds: %d%s@."
    sparse_t.cpu sparse_t.scaled flat_t.cpu flat_t.scaled speedup rounds
    (match identical with
    | None -> ""
    | Some ok -> Printf.sprintf "  identical: %b" ok);
  {
    nodes = n;
    radius;
    bursts;
    rounds;
    sparse = sparse_t;
    flat = flat_t;
    speedup;
    identical;
  }

let million () =
  let count = 1_000_000 in
  let bursts = 4 in
  let radius = radius_for count in
  let t, rounds, converged = child "flat-1m" ~count ~bursts in
  let n, edges =
    let graph, _, _ = workload ~count ~bursts in
    (Graph.node_count graph, Graph.edge_count graph)
  in
  Fmt.pr "1M: %d nodes, %d edges@." n edges;
  Fmt.pr
    "  flat: %.3fs (scaled %.3fs)  rounds: %d  converged: %b  (%.0f \
     node-rounds/s)@."
    t.cpu t.scaled rounds converged
    (float_of_int n *. float_of_int rounds /. t.cpu);
  (n, edges, radius, t, rounds, converged)

let json ~note points million =
  let point p =
    Printf.sprintf
      "    {\n\
      \      \"nodes\": %d,\n\
      \      \"radius\": %.5f,\n\
      \      \"bursts\": %d,\n\
      \      \"rounds\": %d,\n\
      \      \"sparse_seconds\": %.4f,\n\
      \      \"sparse_probe_seconds\": %.4f,\n\
      \      \"sparse_scaled_seconds\": %.4f,\n\
      \      \"flat_seconds\": %.4f,\n\
      \      \"flat_probe_seconds\": %.4f,\n\
      \      \"flat_scaled_seconds\": %.4f,\n\
      \      \"speedup\": %.2f%s\n\
      \    }"
      p.nodes p.radius p.bursts p.rounds p.sparse.cpu p.sparse.probe
      p.sparse.scaled p.flat.cpu p.flat.probe p.flat.scaled p.speedup
      (match p.identical with
      | None -> ""
      | Some ok -> Printf.sprintf ",\n      \"identical\": %b" ok)
  in
  let row = function Measured p -> point p | Kept text -> "    " ^ text in
  let million =
    match million with
    | Measured (mn, medges, mradius, mt, mrounds, mconverged) ->
        Printf.sprintf
          "{\n\
          \    \"nodes\": %d,\n\
          \    \"edges\": %d,\n\
          \    \"radius\": %.5f,\n\
          \    \"rounds\": %d,\n\
          \    \"flat_seconds\": %.4f,\n\
          \    \"flat_probe_seconds\": %.4f,\n\
          \    \"flat_scaled_seconds\": %.4f,\n\
          \    \"converged\": %b\n\
          \  }"
          mn medges mradius mrounds mt.cpu mt.probe mt.scaled mconverged
    | Kept text -> text
  in
  Printf.sprintf
    "{\n\
    \  \"seed\": %d,\n\
    \  \"note\": %S,\n\
    \  \"scaling\": [\n\
     %s\n\
    \  ],\n\
    \  \"million\": %s\n\
     }\n"
    seed note
    (String.concat ",\n" (List.map row points))
    million

let () =
  let argv = Sys.argv in
  let flag_value name default =
    let v = ref default in
    Array.iteri
      (fun i a -> if a = name && i + 1 < Array.length argv then
          v := int_of_string argv.(i + 1))
      argv;
    !v
  in
  let one_exec =
    let v = ref None in
    Array.iteri
      (fun i a -> if a = "--one" && i + 1 < Array.length argv then
          v := Some argv.(i + 1))
      argv;
    !v
  in
  match one_exec with
  | Some exec ->
      let default_count = if exec = "flat-1m" then 1_000_000 else 100_000 in
      let default_bursts = if exec = "flat-1m" then 4 else 8 in
      one exec
        ~count:(flag_value "--count" default_count)
        ~bursts:(flag_value "--bursts" default_bursts)
  | None ->
      if Array.exists (( = ) "--smoke") argv then begin
        if not (smoke ()) then begin
          Fmt.epr "ERROR: flat run diverged@.";
          exit 1
        end
      end
      else begin
        (* The sweep: identity is verified in-process at 100k (where both
           results fit comfortably); the larger points are timing-only —
           the executors' agreement is scale-independent (no size
           thresholds anywhere in either path) and separately enforced by
           the QCheck battery. *)
        let old_rows, old_million = committed () in
        let skipped = ref [] in
        (* [run] unless [count] nodes would not fit; then the committed
           row, if there is one. *)
        let gated label count run kept =
          match too_big count with
          | None -> Some (Measured (run ()))
          | Some (need, avail) ->
              Fmt.pr
                "%s: not started, needs about %.1f GB with %.1f GB available@."
                label (gb need) (gb avail);
              skipped :=
                Printf.sprintf "%s (about %.1f GB needed, %.1f GB available)"
                  label (gb need) (gb avail)
                :: !skipped;
              Option.map (fun text -> Kept text) kept
        in
        let point ~count ~bursts ~reps ~identity label =
          gated label count
            (fun () -> scale_point ~count ~bursts ~reps ~identity)
            (List.assoc_opt count old_rows)
        in
        (* Sequential lets: list elements would evaluate right to left. *)
        let p100 = point ~count:100_000 ~bursts:8 ~reps:2 ~identity:true "100k" in
        let p300 = point ~count:300_000 ~bursts:4 ~reps:2 ~identity:false "300k" in
        let p1m = point ~count:1_000_000 ~bursts:4 ~reps:1 ~identity:false "1M" in
        let points = List.filter_map Fun.id [ p100; p300; p1m ] in
        let m = gated "million run" 1_000_000 million old_million in
        let note =
          match List.rev !skipped with
          | [] -> "Every row is measured by one run of the sweep."
          | l ->
              "Rows not re-measured by the last run of the sweep, kept from \
               the file it found (their estimated memory need exceeded \
               MemAvailable): "
              ^ String.concat "; " l ^ "."
        in
        (match m with
        | Some m ->
            let oc = open_out "BENCH_flat.json" in
            output_string oc (json ~note points m);
            close_out oc;
            Fmt.pr "wrote BENCH_flat.json@."
        | None -> Fmt.pr "no million row to write; BENCH_flat.json left as it is@.");
        let identical =
          List.for_all
            (function
              | Measured { identical = Some ok; _ } -> ok
              | Measured { identical = None; _ } | Kept _ -> true)
            points
        in
        if not identical then begin
          Fmt.epr "ERROR: flat run diverged from the sparse reference@.";
          exit 1
        end
      end
