(* The motion maintainer's proof obligations, as a differential battery.

   (a) Incremental maintenance ≡ full rebuild: over random
       (fleet x mobility model x dt x radius) cases, the graph held by
       [Ss_topology.Motion] after every step must equal a from-scratch
       [Graph.unit_disk] over positions tracked independently through the
       fleet's move callbacks — sorted adjacency rows and all.
   (b) Sparse ≡ dense under motion: when per-round edge diffs feed the
       engine's dirty frontier through the motion hook, the sparse
       executor must agree with the dense reference on the whole run
       record ([Differential]'s motion cases and comparator), including
       on a position-dependent (jammed) channel where pure movement — no
       edge flip — can change deliveries.
   (c) Edge-diff soundness: each flush's diff applied to round r's edge
       set yields round r+1's edge set, the added/removed lists are
       disjoint canonical [p < q] edges with at least one moved endpoint,
       and [moved] matches exactly the nodes the fleet reported.

   QCheck shrinks a failing case to a minimal fleet and step count.
   Directed pins cover the pieces the properties route through:
   [Grid_index.move], [Dynamic.rebase], no-op flushes, out-of-box
   teleports, and the domain-count independence of the motion sweep. *)

module Graph = Ss_topology.Graph
module Motion = Ss_topology.Motion
module Dynamic = Ss_topology.Dynamic
module Grid_index = Ss_geom.Grid_index
module Vec2 = Ss_geom.Vec2
module Bbox = Ss_geom.Bbox
module Model = Ss_mobility.Model
module Fleet = Ss_mobility.Fleet
module Rng = Ss_prng.Rng
module D = Differential

(* ------------------------------------------------- (a) + (c): maintainer *)

type walk_case = {
  w_seed : int;
  w_n : int;
  w_model : int; (* 0 static / 1 slow walk / 2 vehicular / 3 wp pause / 4 wp *)
  w_radius : int; (* index into [radii] *)
  w_dt : int; (* index into [dts] *)
  w_steps : int;
}

let radii = [| 0.05; 0.1; 0.25; 0.5 |]
let dts = D.dts

(* [D.build_model]'s speeds span sub-cell drifts to whole-box jumps: both
   the patch path and the mass-rebucket path of the maintainer get
   exercised. *)
let build_model = D.build_model

(* Step a fleet and the maintainer in lockstep; [shadow] tracks positions
   through the move callbacks only, so the reference rebuild never reads
   the maintainer's own buffer. [check] judges each step. *)
let drive c check =
  let model = build_model (c.w_model mod 5) in
  let radius = radii.(c.w_radius mod Array.length radii) in
  let dt = dts.(c.w_dt mod Array.length dts) in
  let n = max 1 c.w_n in
  let rng = Rng.create ~seed:c.w_seed in
  let start = Array.init n (fun _ -> Bbox.sample rng Bbox.unit_square) in
  let fleet = Fleet.create rng ~model ~box:Bbox.unit_square start in
  let motion = Motion.create ~radius start in
  let shadow = Array.copy start in
  let ok =
    ref (Graph.equal (Motion.graph motion) (Graph.unit_disk ~radius shadow))
  in
  let step = ref 0 in
  while !ok && !step < c.w_steps do
    incr step;
    let prev = Motion.graph motion in
    let moved =
      Fleet.step_moved fleet dt (fun i p ->
          Motion.move motion i p;
          shadow.(i) <- p)
    in
    let diff = Motion.flush motion in
    ok :=
      check ~prev ~moved ~diff ~now:(Motion.graph motion)
        ~reference:(Graph.unit_disk ~radius shadow)
  done;
  !ok

let check_rebuild ~prev:_ ~moved:_ ~diff:_ ~now ~reference =
  Graph.equal now reference

(* Round r's edges, plus added, minus removed, is round r+1's edges; the
   lists are disjoint, canonically oriented, and every flip names a node
   that actually moved. *)
let check_diff ~prev ~moved ~diff ~now ~reference:_ =
  let moved_set = Hashtbl.create 16 in
  List.iter (fun i -> Hashtbl.replace moved_set i ()) diff.Motion.moved;
  let touches_mover (p, q) =
    Hashtbl.mem moved_set p || Hashtbl.mem moved_set q
  in
  let canonical (p, q) = p < q in
  let edges = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace edges e ()) (Graph.edges prev) ;
  try
    if List.length diff.Motion.moved <> moved then raise Exit;
    List.iter
      (fun e ->
        if not (canonical e && touches_mover e && Hashtbl.mem edges e) then
          raise Exit;
        Hashtbl.remove edges e)
      diff.Motion.removed;
    List.iter
      (fun e ->
        if not (canonical e && touches_mover e) then raise Exit;
        if Hashtbl.mem edges e then raise Exit;
        Hashtbl.replace edges e ())
      diff.Motion.added;
    let now_edges = Graph.edges now in
    if List.length now_edges <> Hashtbl.length edges then raise Exit;
    List.iter (fun e -> if not (Hashtbl.mem edges e) then raise Exit) now_edges;
    true
  with Exit -> false

let print_walk c =
  Printf.sprintf "seed=%d n=%d model=%d radius=%.2f dt=%.2f steps=%d" c.w_seed
    c.w_n (c.w_model mod 5)
    radii.(c.w_radius mod Array.length radii)
    dts.(c.w_dt mod Array.length dts)
    c.w_steps

let gen_walk =
  QCheck.Gen.(
    map
      (fun ((w_seed, w_n, w_model), (w_radius, w_dt, w_steps)) ->
        { w_seed; w_n; w_model; w_radius; w_dt; w_steps })
      (pair
         (triple (int_range 0 999_999) (int_range 1 60) (int_range 0 4))
         (triple (int_range 0 3) (int_range 0 3) (int_range 1 25))))

(* Fewer steps first, then a smaller fleet; the model/radius/dt selectors
   stay fixed so the shrunk case still exercises the failing regime. *)
let shrink_walk c yield =
  if c.w_steps > 1 then
    QCheck.Shrink.int c.w_steps (fun w_steps ->
        if w_steps >= 1 then yield { c with w_steps });
  if c.w_n > 1 then
    QCheck.Shrink.int c.w_n (fun w_n -> if w_n >= 1 then yield { c with w_n })

let arb_walk = QCheck.make ~print:print_walk ~shrink:shrink_walk gen_walk

let prop_incremental_equals_rebuild =
  QCheck.Test.make ~name:"incremental maintenance = full rebuild (every step)"
    ~count:500 arb_walk (fun c -> drive c check_rebuild)

let prop_diff_soundness =
  QCheck.Test.make ~name:"edge diff applied to round r = round r+1"
    ~count:500 arb_walk (fun c -> drive c check_diff)

(* ------------------------------------------- (b): sparse = dense + motion *)

let run_sim_case c =
  let module P = (val D.protocol ~algo:c.D.s_algo c.D.s_ttl) in
  let module R = D.Run (P) (D.Distributed_hooks) in
  let w = D.motion_world c in
  R.diff ~left:"dense" ~right:"sparse" (R.dense w) (R.sparse w)

let prop_sparse_equals_dense_motion =
  QCheck.Test.make
    ~name:"sparse run = dense run under motion (all observables)" ~count:300
    D.arb_sim
    (fun c -> D.holds (run_sim_case c))

(* A directed pin on the position-dependent path: a jammed channel, a
   mobile fleet and zero churn — deliveries flip only because nodes drift
   across the jam boundary, so an executor that marked flipped edges but
   not moved nodes would diverge here. *)
let test_jammed_motion_equivalence () =
  List.iter
    (fun s_seed ->
      let c =
        {
          D.s_seed;
          s_n = 24;
          s_model = 4;
          s_channel = 2;
          s_sched = 0;
          s_ttl = 1;
          s_algo = 0;
          s_dt = 3;
          s_plan = [];
        }
      in
      Alcotest.(check (option string))
        (Printf.sprintf "seed %d jammed equivalence" s_seed)
        None (run_sim_case c))
    [ 7; 8; 9; 10 ]

(* A directed pin on N1 with every name taken: six nodes under fast
   waypoint motion and a corruption at round 6 leave nodes whose caches
   hold every name in [0, gamma). The re-pick must keep the current name
   and draw nothing: a re-draw over all of gamma can return the node's own
   name, so the frontier froze the node while the dense walk kept stepping
   and drawing (the runs parted at round 18). *)
let test_saturated_names_equivalence () =
  let c =
    {
      D.s_seed = 818699;
      s_n = 6;
      s_model = 4;
      s_channel = 0;
      s_sched = 1;
      s_ttl = 2;
      s_algo = 3;
      s_dt = 0;
      s_plan = [ (5, 4, 127) ];
    }
  in
  Alcotest.(check (option string))
    (D.print_sim c) None (run_sim_case c)

(* ------------------------------------------------------------- directed *)

let test_idle_flush_is_noop () =
  let rng = Rng.create ~seed:11 in
  let pos = Array.init 30 (fun _ -> Bbox.sample rng Bbox.unit_square) in
  let motion = Motion.create ~radius:0.2 pos in
  let g0 = Motion.graph motion in
  let diff = Motion.flush motion in
  Alcotest.(check bool) "empty diff" true (diff = Motion.empty_diff);
  Alcotest.(check bool) "same graph object" true (Motion.graph motion == g0);
  (* A move to the identical position must not count as motion. *)
  Motion.move motion 3 (Motion.position motion 3);
  let diff = Motion.flush motion in
  Alcotest.(check bool) "identity move: empty diff" true
    (diff = Motion.empty_diff);
  Alcotest.(check bool) "identity move: same graph" true
    (Motion.graph motion == g0)

let test_teleport_outside_box () =
  (* Moves far outside the index's box land in clamped border cells; the
     graph must still match a full rebuild. *)
  let rng = Rng.create ~seed:12 in
  let pos = Array.init 20 (fun _ -> Bbox.sample rng Bbox.unit_square) in
  let motion = Motion.create ~radius:0.3 pos in
  let shadow = Array.copy pos in
  let targets =
    [ (0, Vec2.v 1.9 (-0.4)); (1, Vec2.v (-2.0) 3.0); (2, Vec2.v 0.5 9.9) ]
  in
  List.iter
    (fun (i, p) ->
      Motion.move motion i p;
      shadow.(i) <- p)
    targets;
  ignore (Motion.flush motion);
  Alcotest.(check bool) "teleport matches rebuild" true
    (Graph.equal (Motion.graph motion) (Graph.unit_disk ~radius:0.3 shadow));
  (* And coming back into the box keeps matching. *)
  Motion.move motion 0 (Vec2.v 0.5 0.5);
  shadow.(0) <- Vec2.v 0.5 0.5;
  ignore (Motion.flush motion);
  Alcotest.(check bool) "return matches rebuild" true
    (Graph.equal (Motion.graph motion) (Graph.unit_disk ~radius:0.3 shadow))

let test_grid_index_move () =
  let rng = Rng.create ~seed:13 in
  let points = Array.init 50 (fun _ -> Bbox.sample rng Bbox.unit_square) in
  let index = Grid_index.build ~box:Bbox.unit_square ~cell:0.1 points in
  (* [build] adopts the array: mutate a point, notify the index, and the
     range queries must see the new position. *)
  points.(7) <- Vec2.v 0.05 0.95;
  Grid_index.move index 7;
  let brute center radius =
    let acc = ref [] in
    Array.iteri
      (fun i p -> if Vec2.dist center p <= radius then acc := i :: !acc)
      points;
    List.sort Int.compare !acc
  in
  List.iter
    (fun (cx, cy, r) ->
      let center = Vec2.v cx cy in
      Alcotest.(check (list int))
        (Printf.sprintf "within (%.2f,%.2f) r=%.2f" cx cy r)
        (brute center r)
        (List.sort Int.compare (Grid_index.within index center r)))
    [ (0.05, 0.95, 0.15); (0.5, 0.5, 0.3); (0.0, 1.0, 0.12) ]

let test_dynamic_rebase () =
  let g_full = Graph.of_edges ~n:3 [ (0, 1); (1, 2) ] in
  let g_cut = Graph.of_edges ~n:3 [ (1, 2) ] in
  let dyn = Dynamic.create g_full in
  ignore (Dynamic.link_down dyn 0 1);
  Alcotest.(check bool) "downed link absent" false
    (Graph.mem_edge (Dynamic.snapshot dyn) 0 1);
  (* The link leaves radio range: its down-mark must be dropped... *)
  Dynamic.rebase dyn ~base:g_cut ~added:[] ~removed:[ (0, 1) ];
  Alcotest.(check (list (pair int int))) "no downed links" []
    (Dynamic.down_list dyn);
  Alcotest.(check bool) "snapshot = materialize after removal" true
    (Graph.equal (Dynamic.snapshot dyn) (Dynamic.materialize dyn));
  (* ...so when the pair drifts back into range the link starts up. *)
  Dynamic.rebase dyn ~base:g_full ~added:[ (0, 1) ] ~removed:[];
  Alcotest.(check bool) "returned link is up" true
    (Graph.mem_edge (Dynamic.snapshot dyn) 0 1);
  Alcotest.(check bool) "snapshot = materialize after return" true
    (Graph.equal (Dynamic.snapshot dyn) (Dynamic.materialize dyn));
  (* Statuses survive a rebase; node-count changes are rejected. *)
  ignore (Dynamic.sleep dyn 2);
  Dynamic.rebase dyn ~base:g_cut ~added:[] ~removed:[ (0, 1) ];
  Alcotest.(check bool) "sleeper still asleep" false (Dynamic.is_alive dyn 2);
  Alcotest.check_raises "node count mismatch"
    (Invalid_argument "Dynamic.rebase: node count mismatch") (fun () ->
      Dynamic.rebase dyn
        ~base:(Graph.of_edges ~n:4 [ (0, 1) ])
        ~added:[ (0, 1) ] ~removed:[])

(* The motion sweep must be bit-identical for any domain count: same
   seeds, same rows, same rendering. *)
let test_exp_motion_domain_independence () =
  let module X = Ss_experiments.Exp_motion in
  let module Scenario = Ss_experiments.Scenario in
  let sweep domains =
    let rows =
      Ss_experiments.Sweep.rows ~domains
      @@ X.sweep ~seed:7 ~runs:2
        ~spec:(Scenario.poisson ~intensity:60.0 ~radius:0.2 ())
        ~regimes:
          [
            { X.label = "static"; model = Model.static; speed_max = 0.0 };
            {
              X.label = "walk";
              model = X.walk ~speed_max:10.0;
              speed_max = 10.0;
            };
          ]
        ~rounds:25 ()
    in
    Ss_stats.Table.to_csv (X.to_table rows)
  in
  Alcotest.(check string) "1 domain = 4 domains" (sweep 1) (sweep 4)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_incremental_equals_rebuild;
      prop_diff_soundness;
      prop_sparse_equals_dense_motion;
    ]

let suite =
  [
    Alcotest.test_case "idle and identity flushes are no-ops" `Quick
      test_idle_flush_is_noop;
    Alcotest.test_case "teleports outside the box" `Quick
      test_teleport_outside_box;
    Alcotest.test_case "grid index tracks moved points" `Quick
      test_grid_index_move;
    Alcotest.test_case "dynamic rebase drops stale down-marks" `Quick
      test_dynamic_rebase;
    Alcotest.test_case "jammed channel: movement-only equivalence" `Quick
      test_jammed_motion_equivalence;
    Alcotest.test_case "every name taken: sparse = dense under motion" `Quick
      test_saturated_names_equivalence;
    Alcotest.test_case "motion sweep is domain-count independent" `Slow
      test_exp_motion_domain_independence;
  ]
  @ qcheck_cases
