(* Stabilization-time distributions across scale, density, identifier
   adversary and loss. See the interface for the experimental design; the
   mechanics worth knowing here:

   - Each replicate applies the protocol functor with its own params
     (election config + optional adversarial id permutation) and runs the
     flat executor, so 1M-node cells stay in the struct-of-arrays loop.
   - Adversarial cells draw a fresh BFS root and layer shuffle from the
     replicate's pool sub-stream: the root's eccentricity — which the
     stabilization time tracks — then varies across replicates, giving the
     distribution honest spread even though the no-DAG perfect-channel run
     itself is drawless.
   - Lossy cells that stabilize re-enter the executor warm
     ([?states]) with a quiescence threshold above the horizon, so the
     violation phase runs an exact fixed number of rounds; violations are
     the rounds whose change count is positive.
   - Bootstrap keys derive from (seed, cell index, statistic id), never
     from the per-run generators, so CIs are identical at any domain
     count. *)

module Graph = Ss_topology.Graph
module Builders = Ss_topology.Builders
module Flat = Ss_engine.Flat
module Distributed = Ss_cluster.Distributed
module Config = Ss_cluster.Config
module Adversarial = Ss_cluster.Adversarial
module Channel = Ss_radio.Channel
module Estimate = Ss_stats.Estimate
module Table = Ss_stats.Table
module Rng = Ss_prng.Rng

type naming = Dag | Adversarial

type cell = {
  c_side : int;
  c_k : float;
  c_tau : float;
  c_naming : naming;
  c_runs : int;
  c_cap : int;
}

type row = {
  cell : cell;
  nodes : int;
  degree : float;
  stab : Estimate.t;
  mean_ci : Estimate.ci;
  median_ci : Estimate.ci;
  p95_lb : float;
  viol_per_100 : float;
  gaps : Estimate.t;
  seconds : float;
}

type trend = Flat | Growing | Mixed

type verdict = {
  v_k : float;
  v_naming : naming;
  v_tau : float;
  v_sides : int list;
  v_trend : trend;
  v_sup : float;
  v_ks_p : float;
}

let naming_label = function Dag -> "dag" | Adversarial -> "adv-ids"
let violation_horizon = 400
let quiet_rounds = Distributed.default_params.Distributed.cache_ttl + 2

let cell ?(tau = 1.0) ?(runs = 10) ?(cap = 3_000) side k naming =
  { c_side = side; c_k = k; c_tau = tau; c_naming = naming; c_runs = runs;
    c_cap = cap }

let smoke_cells =
  List.concat_map
    (fun side ->
      List.concat_map
        (fun k -> [ cell ~runs:5 ~cap:400 side k Dag;
                    cell ~runs:5 ~cap:400 side k Adversarial ])
        [ 1.2; 1.5 ])
    [ 12; 24 ]
  @ [ cell ~tau:0.95 ~runs:5 ~cap:400 12 1.5 Dag ]

(* Full sweep. Replicates shrink with size (the big cells are there for
   the scaling shape, not fine quantiles); the 1M-node cap of 700 rounds
   sits above the 100k-node adversarial worst case (~630) and below the
   1M-node best case (~1000), so the adversarial 1M cells censor at a
   bound that still exceeds every smaller size's measurement — the lower
   bounds alone order the curve. *)
let default_cells =
  let scaling =
    List.concat_map
      (fun (side, runs, cap) ->
        List.concat_map
          (fun k -> [ cell ~runs ~cap side k Dag;
                      cell ~runs ~cap side k Adversarial ])
          [ 1.2; 1.5 ])
      [ (32, 10, 3_000); (100, 10, 3_000); (316, 5, 3_000); (1_000, 3, 700) ]
  in
  let lossy =
    [
      cell ~tau:0.95 32 1.5 Dag;
      cell ~tau:0.95 32 1.5 Adversarial;
      cell ~tau:0.85 32 1.5 Dag;
      cell ~tau:0.85 32 1.5 Adversarial;
      cell ~tau:0.95 100 1.5 Dag;
    ]
  in
  scaling @ lossy

(* One replicate: cold-start stabilization, then (lossy, stabilized) the
   fixed-horizon violation phase. Returns plain data so nothing from the
   per-run functor escapes. *)
type outcome = {
  obs : Estimate.obs;
  degree : float;
  horizon : int;
  viols : int;
  gap_obs : Estimate.obs list;
  seconds : float;
}

let measure c graph ~degree rng =
  let algo =
    match c.c_naming with Dag -> Config.with_dag | Adversarial -> Config.basic
  in
  let ids =
    match c.c_naming with
    | Dag -> None
    | Adversarial -> Some (Adversarial.bfs_ids ~rng graph)
  in
  let module P = Distributed.Make (struct
    let params = { Distributed.default_params with Distributed.algo; ids }
  end) in
  let module F = Flat.Make (P) in
  let channel =
    if c.c_tau >= 1.0 then Channel.perfect else Channel.bernoulli c.c_tau
  in
  let t0 = Sys.time () in
  let r = F.run ~channel ~quiet_rounds ~max_rounds:c.c_cap rng graph in
  let obs =
    if r.F.converged then Estimate.exact (float_of_int r.F.last_change_round)
    else Estimate.censored (float_of_int r.F.rounds)
  in
  let horizon, viols, gap_obs =
    if c.c_tau >= 1.0 || not r.F.converged then (0, 0, [])
    else begin
      let r2 =
        F.run ~channel
          ~quiet_rounds:(violation_horizon + 1)
          ~max_rounds:violation_horizon ~states:r.F.states rng graph
      in
      let viol_rounds =
        List.filter_map
          (fun (t, changed) -> if changed > 0 then Some t else None)
          (List.mapi (fun i changed -> (i + 1, changed)) r2.F.change_history)
      in
      let rec gaps prev = function
        | [] ->
            [ Estimate.censored (float_of_int (violation_horizon - prev)) ]
        | t :: tl -> Estimate.exact (float_of_int (t - prev)) :: gaps t tl
      in
      (violation_horizon, List.length viol_rounds, gaps 0 viol_rounds)
    end
  in
  { obs; degree; horizon; viols; gap_obs; seconds = Sys.time () -. t0 }

(* The cell's graph is built once, before the runs take their streams,
   and shared by them. *)
let run_one c =
  let spacing = 1.0 /. float_of_int (c.c_side - 1) in
  let radius = c.c_k *. spacing in
  let graph = Builders.geometric_grid ~cols:c.c_side ~rows:c.c_side ~radius in
  let degree = Graph.mean_degree graph in
  fun rng -> measure c graph ~degree rng

let fold ~seed c (runs : outcome Sweep.runs) =
  let results = Sweep.completed runs in
  let stab = Estimate.of_obs (List.map (fun o -> o.obs) results) in
  let gaps = Estimate.of_obs (List.concat_map (fun o -> o.gap_obs) results) in
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 results in
  let horizon = sum (fun o -> o.horizon) in
  let viols = sum (fun o -> o.viols) in
  (* statistic keys: (seed, cell, statistic) — independent of run order,
     run results and domain count *)
  let ck = Rng.subkey (Rng.key ~seed) runs.Sweep.index in
  {
    cell = c;
    nodes = c.c_side * c.c_side;
    degree =
      (match results with o :: _ -> o.degree | [] -> Float.nan);
    stab;
    mean_ci = Estimate.bootstrap_mean ~key:(Rng.subkey ck 1) stab;
    median_ci = Estimate.bootstrap_quantile ~key:(Rng.subkey ck 2) ~q:0.5 stab;
    p95_lb = Estimate.quantile_lb stab 0.95;
    viol_per_100 =
      (if horizon = 0 then Float.nan
       else 100.0 *. float_of_int viols /. float_of_int horizon);
    gaps;
    seconds = List.fold_left (fun acc o -> acc +. o.seconds) 0.0 results;
  }

(* Each cell has its own base seed, so its replicates never share streams
   with another cell's. *)
let sweep ?(seed = 42) ?(cells = default_cells) () =
  {
    Sweep.label =
      (fun c ->
        Printf.sprintf "side %d/k %.1f/%s/tau %.2f" c.c_side c.c_k
          (naming_label c.c_naming) c.c_tau);
    cells;
    runs = (fun c -> c.c_runs);
    seed = (fun index -> seed + (7919 * (index + 1)));
    run = run_one;
    judge = Sweep.raised_only;
    fold = fold ~seed;
  }

(* A series is one (density, naming, loss) combination across sizes. *)
let compare_series (k1, n1, t1) (k2, n2, t2) =
  let c = Float.compare k1 k2 in
  if c <> 0 then c
  else
    let naming_rank = function Dag -> 0 | Adversarial -> 1 in
    let c = Int.compare (naming_rank n1) (naming_rank n2) in
    if c <> 0 then c else Float.compare t1 t2

let verdicts rows =
  let series =
    List.sort_uniq compare_series
      (List.map (fun r -> (r.cell.c_k, r.cell.c_naming, r.cell.c_tau)) rows)
  in
  List.filter_map
    (fun (k, naming, tau) ->
      let curve =
        List.sort
          (fun a b -> Int.compare a.cell.c_side b.cell.c_side)
          (List.filter
             (fun r ->
               r.cell.c_k = k && r.cell.c_naming = naming
               && r.cell.c_tau = tau)
             rows)
      in
      match curve with
      | [] | [ _ ] -> None
      | first :: _ ->
          let last = List.nth curve (List.length curve - 1) in
          (* A mean within one quiet window of the smallest size's is not
             scale growth even when the (often razor-thin) CIs miss: the
             replicates are near-deterministic, so a sub-constant offset
             would otherwise read as a trend. The slack is the protocol's
             own time constant, far below any diameter-driven growth. *)
          let slack = float_of_int quiet_rounds in
          let flat =
            List.for_all
              (fun r ->
                Estimate.overlap r.mean_ci first.mean_ci
                || Float.abs
                     (r.mean_ci.Estimate.point -. first.mean_ci.Estimate.point)
                   <= slack)
              curve
          in
          let increasing =
            let rec go = function
              | a :: (b :: _ as tl) ->
                  a.mean_ci.Estimate.point < b.mean_ci.Estimate.point
                  && go tl
              | _ -> true
            in
            go curve
          in
          let growing =
            increasing && last.mean_ci.Estimate.lo > first.mean_ci.Estimate.hi
          in
          Some
            {
              v_k = k;
              v_naming = naming;
              v_tau = tau;
              v_sides = List.map (fun r -> r.cell.c_side) curve;
              v_trend =
                (if flat then Flat else if growing then Growing else Mixed);
              v_sup = Estimate.superiority last.stab first.stab;
              v_ks_p = Estimate.ks_pvalue last.stab first.stab;
            })
    series

let dag_flat verdicts =
  List.for_all
    (fun v -> v.v_naming <> Dag || v.v_tau < 1.0 || v.v_trend = Flat)
    verdicts

let trend_label = function
  | Flat -> "flat"
  | Growing -> "GROWING"
  | Mixed -> "mixed"

let to_table rows =
  let t =
    Table.create
      ~title:"Stabilization rounds: distributions with 95% bootstrap CIs"
      ~header:
        [
          "side"; "nodes"; "deg"; "naming"; "tau"; "runs"; "cens";
          "mean"; "mean_lo"; "mean_hi"; "median"; "med_lo"; "med_hi";
          "p95"; "viol/100r"; "gap_mean"; "gap_cens";
        ]
      ()
  in
  Table.add_rows t
    (List.map
       (fun r ->
         let f = Table.cell_float ~decimals:1 in
         [
           Table.cell_int r.cell.c_side;
           Table.cell_int r.nodes;
           Table.cell_float ~decimals:1 r.degree;
           naming_label r.cell.c_naming;
           Table.cell_float ~decimals:2 r.cell.c_tau;
           Table.cell_int (Estimate.count r.stab);
           Table.cell_int (Estimate.censored_count r.stab);
           f r.mean_ci.Estimate.point;
           f r.mean_ci.Estimate.lo;
           f r.mean_ci.Estimate.hi;
           f r.median_ci.Estimate.point;
           f r.median_ci.Estimate.lo;
           f r.median_ci.Estimate.hi;
           f r.p95_lb;
           Table.cell_float ~decimals:2 r.viol_per_100;
           f (Estimate.mean_lb r.gaps);
           (if Estimate.count r.gaps = 0 then "-"
            else Table.cell_int (Estimate.censored_count r.gaps));
         ])
       rows)

let verdicts_table vs =
  let t =
    Table.create ~title:"Per-curve verdicts (largest vs smallest size)"
      ~header:[ "k"; "naming"; "tau"; "sides"; "trend"; "P(big>small)"; "ks_p" ]
      ()
  in
  Table.add_rows t
    (List.map
       (fun v ->
         [
           Table.cell_float ~decimals:1 v.v_k;
           naming_label v.v_naming;
           Table.cell_float ~decimals:2 v.v_tau;
           String.concat "/" (List.map string_of_int v.v_sides);
           trend_label v.v_trend;
           Table.cell_float ~decimals:3 v.v_sup;
           Table.cell_float ~decimals:4 v.v_ks_p;
         ])
       vs)
