module Graph = Ss_topology.Graph
module Builders = Ss_topology.Builders
module Traversal = Ss_topology.Traversal
module Neighborhood = Ss_topology.Neighborhood
module Dag = Ss_topology.Dag
module Dynamic = Ss_topology.Dynamic
module Bbox = Ss_geom.Bbox
module Grid_index = Ss_geom.Grid_index
module Vec2 = Ss_geom.Vec2
module Rng = Ss_prng.Rng

(* ---------------------------------------------------------------- Graph *)

let test_of_edges_basic () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3); (0, 1) ] in
  Alcotest.(check int) "nodes" 4 (Graph.node_count g);
  Alcotest.(check int) "edges deduplicated" 3 (Graph.edge_count g);
  Alcotest.(check (array int)) "neighbors sorted" [| 0; 2 |] (Graph.neighbors g 1);
  Alcotest.(check bool) "mem_edge" true (Graph.mem_edge g 2 1);
  Alcotest.(check bool) "mem_edge symmetric" true (Graph.mem_edge g 1 2);
  Alcotest.(check bool) "non-edge" false (Graph.mem_edge g 0 3)

let test_of_edges_rejects_bad_input () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.of_edges: self loop")
    (fun () -> ignore (Graph.of_edges ~n:2 [ (1, 1) ]));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Graph.of_edges: endpoint out of range") (fun () ->
      ignore (Graph.of_edges ~n:2 [ (0, 5) ]))

let test_of_adjacency_symmetry_check () =
  Alcotest.check_raises "asymmetric rejected"
    (Invalid_argument "Graph.of_adjacency: asymmetric adjacency") (fun () ->
      ignore (Graph.of_adjacency [| [ 1 ]; [] |]))

let test_degrees () =
  let g = Builders.star 5 in
  Alcotest.(check int) "hub degree" 4 (Graph.degree g 0);
  Alcotest.(check int) "leaf degree" 1 (Graph.degree g 3);
  Alcotest.(check int) "max degree" 4 (Graph.max_degree g);
  Alcotest.(check (float 1e-9)) "mean degree" 1.6 (Graph.mean_degree g)

let test_iter_edges_once_each () =
  let g = Builders.cycle 6 in
  let count = ref 0 in
  Graph.iter_edges g (fun p q ->
      Alcotest.(check bool) "p < q" true (p < q);
      incr count);
  Alcotest.(check int) "each edge once" 6 !count;
  Alcotest.(check int) "edges list" 6 (List.length (Graph.edges g))

let test_unit_disk_matches_brute_force () =
  let rng = Rng.create ~seed:8 in
  let positions =
    Array.init 200 (fun _ ->
        Vec2.v (Rng.unit rng) (Rng.unit rng))
  in
  let radius = 0.13 in
  let g = Graph.unit_disk ~radius positions in
  let expected = ref 0 in
  for p = 0 to 199 do
    for q = p + 1 to 199 do
      if Vec2.dist positions.(p) positions.(q) <= radius then begin
        incr expected;
        Alcotest.(check bool)
          (Printf.sprintf "edge %d-%d present" p q)
          true (Graph.mem_edge g p q)
      end
    done
  done;
  Alcotest.(check int) "edge count matches" !expected (Graph.edge_count g);
  Alcotest.(check bool) "symmetric" true (Graph.is_symmetric g)

let test_unit_disk_zero_radius () =
  let positions = [| Vec2.v 0.1 0.1; Vec2.v 0.2 0.2 |] in
  let g = Graph.unit_disk ~radius:0.0 positions in
  Alcotest.(check int) "no edges" 0 (Graph.edge_count g);
  (* A tiny positive radius must not size the grid by it: (extent /
     radius)^2 buckets would not fit in memory. Only the coincident pair
     is in range. *)
  let positions = [| Vec2.v (-0.5) 0.1; Vec2.v 1.5 1.5; Vec2.v 1.5 1.5 |] in
  let g = Graph.unit_disk ~radius:1e-9 positions in
  Alcotest.(check (list (pair int int))) "coincident pair only" [ (1, 2) ]
    (Graph.edges g)

let test_positions_carried () =
  let positions = [| Vec2.v 0.1 0.2; Vec2.v 0.3 0.4 |] in
  let g = Graph.unit_disk ~radius:1.0 positions in
  match Graph.position g 1 with
  | Some p -> Alcotest.(check (float 0.0)) "y" 0.4 p.Vec2.y
  | None -> Alcotest.fail "expected positions"

(* ------------------------------------------------------------- Builders *)

let test_path_cycle_star_complete () =
  let path = Builders.path 5 in
  Alcotest.(check int) "path edges" 4 (Graph.edge_count path);
  let cycle = Builders.cycle 5 in
  Alcotest.(check int) "cycle edges" 5 (Graph.edge_count cycle);
  Graph.iter_nodes cycle (fun p ->
      Alcotest.(check int) "cycle degree" 2 (Graph.degree cycle p));
  let complete = Builders.complete 6 in
  Alcotest.(check int) "complete edges" 15 (Graph.edge_count complete);
  Alcotest.check_raises "tiny cycle rejected"
    (Invalid_argument "Builders.cycle: need at least 3 nodes") (fun () ->
      ignore (Builders.cycle 2))

let test_grid_lattice () =
  let g4 = Builders.grid_lattice ~cols:4 ~rows:3 ~diagonals:false in
  Alcotest.(check int) "nodes" 12 (Graph.node_count g4);
  (* 4-connectivity: (cols-1)*rows + cols*(rows-1). *)
  Alcotest.(check int) "edges" ((3 * 3) + (4 * 2)) (Graph.edge_count g4);
  let g8 = Builders.grid_lattice ~cols:4 ~rows:3 ~diagonals:true in
  Alcotest.(check int) "edges with diagonals"
    ((3 * 3) + (4 * 2) + (2 * 3 * 2))
    (Graph.edge_count g8)

let test_geometric_grid_moore_at_005 () =
  (* On the paper's 32x32 grid with R=0.05, interior nodes see the Moore
     8-neighborhood. *)
  let g = Builders.geometric_grid ~cols:32 ~rows:32 ~radius:0.05 in
  let interior = (5 * 32) + 5 in
  Alcotest.(check int) "interior degree 8" 8 (Graph.degree g interior);
  let corner = 0 in
  Alcotest.(check int) "corner degree 3" 3 (Graph.degree g corner)

let test_gnp_bounds () =
  let rng = Rng.create ~seed:9 in
  let g0 = Builders.gnp rng ~n:30 ~p:0.0 in
  Alcotest.(check int) "p=0 no edges" 0 (Graph.edge_count g0);
  let g1 = Builders.gnp rng ~n:30 ~p:1.0 in
  Alcotest.(check int) "p=1 complete" (30 * 29 / 2) (Graph.edge_count g1)

(* ------------------------------------------------------------ Traversal *)

let test_bfs_distances_on_path () =
  let g = Builders.path 6 in
  let dist = Traversal.bfs_from g 0 in
  Alcotest.(check (array int)) "distances" [| 0; 1; 2; 3; 4; 5 |] dist

let test_bfs_disconnected () =
  let g = Graph.of_edges ~n:4 [ (0, 1) ] in
  let dist = Traversal.bfs_from g 0 in
  Alcotest.(check int) "reachable" 1 dist.(1);
  Alcotest.(check int) "unreachable" Traversal.unreachable dist.(3);
  Alcotest.(check (option int)) "distance none" None (Traversal.distance g 0 3)

let test_bfs_filter () =
  (* Block the middle of a path: the far side becomes unreachable. *)
  let g = Builders.path 5 in
  let dist = Traversal.bfs_from ~filter:(fun p -> p <> 2) g 0 in
  Alcotest.(check int) "before the block" 1 dist.(1);
  Alcotest.(check int) "behind the block" Traversal.unreachable dist.(3)

let test_eccentricity_and_diameter () =
  let g = Builders.path 7 in
  Alcotest.(check int) "end eccentricity" 6 (Traversal.eccentricity g 0);
  Alcotest.(check int) "center eccentricity" 3 (Traversal.eccentricity g 3);
  Alcotest.(check int) "diameter" 6 (Traversal.diameter g);
  let c = Builders.cycle 8 in
  Alcotest.(check int) "cycle diameter" 4 (Traversal.diameter c)

let test_components () =
  let g = Graph.of_edges ~n:6 [ (0, 1); (1, 2); (4, 5) ] in
  let comp, count = Traversal.components g in
  Alcotest.(check int) "three components" 3 count;
  Alcotest.(check bool) "0 and 2 together" true (comp.(0) = comp.(2));
  Alcotest.(check bool) "0 and 4 apart" true (comp.(0) <> comp.(4));
  Alcotest.(check bool) "not connected" false (Traversal.is_connected g);
  Alcotest.(check (list int)) "largest component" [ 0; 1; 2 ]
    (Traversal.largest_component g);
  Alcotest.(check bool) "path connected" true
    (Traversal.is_connected (Builders.path 4))

let test_bfs_order_fixed () =
  Alcotest.(check (array int)) "empty graph" [||]
    (Traversal.bfs_order (Graph.of_edges ~n:0 []));
  (* Components {0, 6} and {1, 3, 5, 7}, isolated 2 and 4: each walk
     starts at the lowest unvisited node and takes neighbors ascending. *)
  let g = Graph.of_edges ~n:8 [ (1, 5); (3, 5); (3, 7); (5, 7); (0, 6) ] in
  Alcotest.(check (array int)) "walks in index order" [| 0; 6; 1; 5; 3; 7; 2; 4 |]
    (Traversal.bfs_order g);
  Alcotest.(check (array int)) "isolated nodes keep index order" [| 0; 1; 2 |]
    (Traversal.bfs_order (Graph.of_edges ~n:3 []))

(* On random geometric deployments (several components each): the order
   is a permutation of [0, n), every component is one contiguous run
   opening at its lowest node, and hop distances from that node never
   decrease along the run. *)
let test_bfs_order_layers () =
  List.iter
    (fun seed ->
      let rng = Rng.create ~seed in
      let g = Builders.random_geometric_count rng ~count:300 ~radius:0.06 in
      let n = Graph.node_count g in
      let order = Traversal.bfs_order g in
      Alcotest.(check int) "length" n (Array.length order);
      let hit = Array.make n 0 in
      Array.iter (fun p -> hit.(p) <- hit.(p) + 1) order;
      Alcotest.(check bool) "permutation" true (Array.for_all (( = ) 1) hit);
      let comp, count = Traversal.components g in
      Alcotest.(check bool) "several components" true (count > 1);
      let closed = Array.make count false in
      let r = ref 0 in
      while !r < n do
        let root = order.(!r) in
        let c = comp.(root) in
        Alcotest.(check bool) "component seen once" false closed.(c);
        closed.(c) <- true;
        let dist = Traversal.bfs_from g root in
        let last = ref 0 in
        while !r < n && comp.(order.(!r)) = c do
          let p = order.(!r) in
          Alcotest.(check bool) "root is the lowest member" true (root <= p);
          Alcotest.(check bool) "layer order" true (dist.(p) >= !last);
          last := dist.(p);
          incr r
        done
      done)
    [ 1; 2; 3 ]

let test_shortest_path () =
  let g = Builders.cycle 6 in
  (match Traversal.shortest_path g ~src:0 ~dst:2 with
  | Some path ->
      Alcotest.(check int) "length" 3 (List.length path);
      Alcotest.(check (list int)) "path" [ 0; 1; 2 ] path
  | None -> Alcotest.fail "expected a path");
  (match Traversal.shortest_path g ~src:3 ~dst:3 with
  | Some path -> Alcotest.(check (list int)) "trivial path" [ 3 ] path
  | None -> Alcotest.fail "expected trivial path");
  let disconnected = Graph.of_edges ~n:3 [ (0, 1) ] in
  Alcotest.(check bool) "no path" true
    (Traversal.shortest_path disconnected ~src:0 ~dst:2 = None)

(* --------------------------------------------------------- Neighborhood *)

let test_k_hop () =
  let g = Builders.path 7 in
  let n1 = Neighborhood.one_hop g 3 in
  Alcotest.(check (list int)) "1-hop" [ 2; 4 ] (Neighborhood.Iset.elements n1);
  let n2 = Neighborhood.two_hop g 3 in
  Alcotest.(check (list int)) "2-hop" [ 1; 2; 4; 5 ]
    (Neighborhood.Iset.elements n2);
  let n3 = Neighborhood.k_hop g 3 3 in
  Alcotest.(check (list int)) "3-hop" [ 0; 1; 2; 4; 5; 6 ]
    (Neighborhood.Iset.elements n3);
  Alcotest.(check bool) "self excluded" false (Neighborhood.Iset.mem 3 n3)

let test_closed_neighborhood () =
  let g = Builders.path 3 in
  Alcotest.(check (list int)) "closed" [ 0; 1; 2 ]
    (Neighborhood.Iset.elements (Neighborhood.closed g 1))

let test_links_within () =
  let g = Builders.complete 4 in
  let set = Neighborhood.Iset.of_list [ 0; 1; 2 ] in
  Alcotest.(check int) "triangle has 3 internal edges" 3
    (Neighborhood.links_within g set)

let test_k_hop_matches_bfs () =
  let rng = Rng.create ~seed:10 in
  let g = Builders.gnp rng ~n:60 ~p:0.06 in
  for p = 0 to 9 do
    let dist = Traversal.bfs_from g p in
    for k = 1 to 3 do
      let expected =
        List.sort Int.compare
          (Graph.fold_nodes g
             (fun acc q ->
               if q <> p && dist.(q) <> Traversal.unreachable && dist.(q) <= k
               then q :: acc
               else acc)
             [])
      in
      Alcotest.(check (list int))
        (Printf.sprintf "N^%d of %d" k p)
        expected
        (Neighborhood.Iset.elements (Neighborhood.k_hop g p k))
    done
  done

(* ------------------------------------------------------------------ DAG *)

let test_dag_of_labels () =
  let g = Builders.path 4 in
  (* Labels 3,1,2,0 on the path orient 0->1, 2->1, 2->3: longest chain 1. *)
  let o = Dag.of_labels g [| 3; 1; 2; 0 |] in
  Alcotest.(check bool) "well formed" true (Dag.is_well_formed o);
  Alcotest.(check (option int)) "height" (Some 1) (Dag.height o);
  (* Monotone labels make the whole path one directed chain. *)
  let chain = Dag.of_labels g [| 0; 1; 2; 3 |] in
  Alcotest.(check (option int)) "chain height" (Some 3) (Dag.height chain)

let test_dag_ties_ill_formed () =
  let g = Builders.path 2 in
  let o = Dag.of_labels g [| 5; 5 |] in
  Alcotest.(check bool) "tie not well formed" false (Dag.is_well_formed o);
  Alcotest.(check (option int)) "height none" None (Dag.height o)

let test_dag_roots () =
  let g = Builders.path 4 in
  let o = Dag.of_labels g [| 3; 1; 2; 0 |] in
  (* Locally maximal labels: node 0 (3 > 1) and node 2 (2 > 1 and 2 > 0). *)
  Alcotest.(check (list int)) "roots" [ 0; 2 ] (Dag.roots o)

let test_dag_height_bound () =
  (* Height can never exceed the number of distinct labels minus one. *)
  let rng = Rng.create ~seed:11 in
  for _ = 1 to 20 do
    let g = Builders.gnp rng ~n:40 ~p:0.1 in
    let gamma = 16 in
    (* Build labels that are locally unique by construction: resolve until
       clean via the cluster's N1 (tested separately); here use a simple
       proper coloring fallback: label = a greedy choice. *)
    let labels = Array.make 40 (-1) in
    for p = 0 to 39 do
      let used =
        Array.fold_left
          (fun acc q -> if labels.(q) >= 0 then labels.(q) :: acc else acc)
          [] (Graph.neighbors g p)
      in
      let rec first_free c = if List.mem c used then first_free (c + 1) else c in
      labels.(p) <- first_free 0
    done;
    let max_label = Array.fold_left max 0 labels in
    Alcotest.(check bool) "labels fit" true (max_label < gamma);
    match Dag.height (Dag.of_labels g labels) with
    | Some h -> Alcotest.(check bool) "height < distinct labels" true (h <= max_label)
    | None -> Alcotest.fail "expected well-formed DAG"
  done

let test_locally_unique () =
  let g = Builders.path 3 in
  Alcotest.(check bool) "unique" true (Dag.locally_unique g [| 1; 2; 1 |]);
  Alcotest.(check bool) "collision" false (Dag.locally_unique g [| 1; 1; 2 |])

(* The stamp-array two-hop rows against the set-based definition, on
   random graphs (sparse ones leave isolated nodes) and on churned
   snapshots of them: crashed nodes appear isolated, downed links vanish
   from both rows. *)
let prop_two_hop_rows_match_sets =
  QCheck.Test.make ~name:"two_hop_rows = sorted two_hop sets" ~count:300
    (QCheck.make
       ~print:(fun (n, p, seed) -> Printf.sprintf "n=%d p=%.2f seed=%d" n p seed)
       QCheck.Gen.(
         triple (int_range 1 50) (float_range 0.0 0.3) (int_range 0 99_999)))
    (fun (n, p, seed) ->
      let rng = Rng.create ~seed in
      let graph = Builders.gnp rng ~n ~p in
      let matches g =
        let rows = Neighborhood.two_hop_rows g in
        Array.length rows = n
        && Array.for_all Fun.id
             (Array.mapi
                (fun v row ->
                  row = Neighborhood.to_sorted_array (Neighborhood.two_hop g v))
                rows)
      in
      let dyn = Dynamic.create graph in
      let edges = Array.of_list (Graph.edges graph) in
      for _ = 1 to 1 + Rng.int rng 5 do
        ignore (Dynamic.crash dyn (Rng.int rng n));
        if Array.length edges > 0 then begin
          let a, b = edges.(Rng.int rng (Array.length edges)) in
          ignore (Dynamic.link_down dyn a b)
        end
      done;
      matches graph && matches (Dynamic.snapshot dyn))

(* Reference unit-disk construction: a bounding-box fold and one sorted
   list query per node, through the validating [Graph.of_adjacency]. *)
let reference_unit_disk ~radius positions =
  let box =
    Array.fold_left
      (fun (b : Bbox.t) (p : Vec2.t) ->
        {
          Bbox.min_x = Float.min b.min_x p.x;
          min_y = Float.min b.min_y p.y;
          max_x = Float.max b.max_x p.x;
          max_y = Float.max b.max_y p.y;
        })
      Bbox.unit_square positions
  in
  let cell = if radius > 0.0 then radius else 1.0 in
  let index = Grid_index.build ~box ~cell positions in
  Graph.of_adjacency
    (Array.init (Array.length positions) (fun p ->
         Grid_index.neighbors index p radius))

let prop_unit_disk_matches_reference =
  QCheck.Test.make ~name:"unit_disk = list-based construction" ~count:300
    (QCheck.make
       ~print:(fun (n, r, seed) -> Printf.sprintf "n=%d r=%.3f seed=%d" n r seed)
       QCheck.Gen.(
         triple (int_range 0 80) (float_range 0.0 0.5) (int_range 0 99_999)))
    (fun (n, radius, seed) ->
      let rng = Rng.create ~seed in
      (* Points spill up to half a side outside the unit square. *)
      let positions =
        Array.init n (fun _ ->
            Vec2.v (Rng.float rng 2.0 -. 0.5) (Rng.float rng 2.0 -. 0.5))
      in
      Graph.equal
        (Graph.unit_disk ~radius positions)
        (reference_unit_disk ~radius positions))

let suite =
  [
    Alcotest.test_case "of_edges basics" `Quick test_of_edges_basic;
    Alcotest.test_case "of_edges input validation" `Quick
      test_of_edges_rejects_bad_input;
    Alcotest.test_case "of_adjacency symmetry check" `Quick
      test_of_adjacency_symmetry_check;
    Alcotest.test_case "degrees" `Quick test_degrees;
    Alcotest.test_case "iter_edges visits each edge once" `Quick
      test_iter_edges_once_each;
    Alcotest.test_case "unit disk vs brute force" `Quick
      test_unit_disk_matches_brute_force;
    Alcotest.test_case "unit disk zero radius" `Quick test_unit_disk_zero_radius;
    Alcotest.test_case "positions carried" `Quick test_positions_carried;
    Alcotest.test_case "classic builders" `Quick test_path_cycle_star_complete;
    Alcotest.test_case "grid lattice" `Quick test_grid_lattice;
    Alcotest.test_case "geometric grid Moore neighborhood" `Quick
      test_geometric_grid_moore_at_005;
    Alcotest.test_case "gnp bounds" `Quick test_gnp_bounds;
    Alcotest.test_case "bfs distances" `Quick test_bfs_distances_on_path;
    Alcotest.test_case "bfs disconnected" `Quick test_bfs_disconnected;
    Alcotest.test_case "bfs filter" `Quick test_bfs_filter;
    Alcotest.test_case "eccentricity and diameter" `Quick
      test_eccentricity_and_diameter;
    Alcotest.test_case "connected components" `Quick test_components;
    Alcotest.test_case "bfs order, fixed cases" `Quick test_bfs_order_fixed;
    Alcotest.test_case "bfs order: permutation, components, layers" `Quick
      test_bfs_order_layers;
    Alcotest.test_case "shortest path" `Quick test_shortest_path;
    Alcotest.test_case "k-hop neighborhoods" `Quick test_k_hop;
    Alcotest.test_case "closed neighborhood" `Quick test_closed_neighborhood;
    Alcotest.test_case "links within a set" `Quick test_links_within;
    Alcotest.test_case "k-hop matches BFS" `Quick test_k_hop_matches_bfs;
    Alcotest.test_case "DAG from labels" `Quick test_dag_of_labels;
    Alcotest.test_case "DAG label ties are ill-formed" `Quick
      test_dag_ties_ill_formed;
    Alcotest.test_case "DAG roots" `Quick test_dag_roots;
    Alcotest.test_case "DAG height bounded by labels" `Quick
      test_dag_height_bound;
    Alcotest.test_case "locally unique labels" `Quick test_locally_unique;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_two_hop_rows_match_sets; prop_unit_disk_matches_reference ]
