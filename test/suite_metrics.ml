module Graph = Ss_topology.Graph
module Builders = Ss_topology.Builders
module Assignment = Ss_cluster.Assignment
module Metrics = Ss_cluster.Metrics

(* Path 0-1-2-3-4: cluster {0,1,2} headed by 2, cluster {3,4} headed by 3. *)
let graph () = Builders.path 5

let sample () =
  Assignment.make ~parent:[| 1; 2; 2; 3; 3 |] ~head:[| 2; 2; 2; 3; 3 |]

let test_cluster_count () =
  Alcotest.(check int) "two clusters" 2 (Metrics.cluster_count (sample ()))

let test_head_eccentricities () =
  let ecc = Metrics.head_eccentricities (graph ()) (sample ()) in
  Alcotest.(check (list (pair int int))) "eccentricities" [ (2, 2); (3, 1) ] ecc;
  match Metrics.mean_head_eccentricity (graph ()) (sample ()) with
  | Some m -> Alcotest.(check (float 1e-9)) "mean" 1.5 m
  | None -> Alcotest.fail "expected mean"

let test_tree_lengths () =
  let lengths = Metrics.tree_lengths (sample ()) in
  Alcotest.(check (list (pair int int))) "tree lengths" [ (2, 2); (3, 1) ] lengths;
  Alcotest.(check int) "max" 2 (Metrics.max_tree_length (sample ()));
  match Metrics.mean_tree_length (sample ()) with
  | Some m -> Alcotest.(check (float 1e-9)) "mean" 1.5 m
  | None -> Alcotest.fail "expected mean"

let test_tree_length_vs_eccentricity () =
  (* A snaking tree: path 0-1-2-3-4 all in one cluster headed by 0 but with
     parents chaining through every node: tree length 4 = eccentricity 4
     here, but on a cycle the tree can be longer than the eccentricity. *)
  let cycle = Builders.cycle 6 in
  (* Head 0; parents chain the long way round: 5 -> 4 -> 3 -> 2 -> 1 -> 0. *)
  let a =
    Assignment.make ~parent:[| 0; 0; 1; 2; 3; 4 |] ~head:(Array.make 6 0)
  in
  (match Assignment.validate cycle a with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "fixture should validate");
  Alcotest.(check int) "tree length 5" 5 (Metrics.max_tree_length a);
  let ecc = List.assoc 0 (Metrics.head_eccentricities cycle a) in
  Alcotest.(check int) "eccentricity 3" 3 ecc;
  Alcotest.(check bool) "tree >= ecc" true (5 >= ecc)

let test_cluster_sizes () =
  Alcotest.(check (list int)) "sizes" [ 3; 2 ] (Metrics.cluster_sizes (sample ()));
  match Metrics.mean_cluster_size (sample ()) with
  | Some m -> Alcotest.(check (float 1e-9)) "mean size" 2.5 m
  | None -> Alcotest.fail "expected mean"

let test_head_retention () =
  let before = sample () in
  (* After: head 2 survives, head 3 loses to 4. *)
  let after =
    Assignment.make ~parent:[| 1; 2; 2; 4; 4 |] ~head:[| 2; 2; 2; 4; 4 |]
  in
  (match Metrics.head_retention ~before ~after with
  | Some r -> Alcotest.(check (float 1e-9)) "half retained" 0.5 r
  | None -> Alcotest.fail "expected retention");
  (match Metrics.head_retention ~before ~after:before with
  | Some r -> Alcotest.(check (float 1e-9)) "self retention" 1.0 r
  | None -> Alcotest.fail "expected retention");
  (* No heads before: undefined. *)
  let empty = Assignment.make ~parent:[||] ~head:[||] in
  Alcotest.(check bool) "empty undefined" true
    (Metrics.head_retention ~before:empty ~after:empty = None)

let test_membership_stability () =
  let before = sample () in
  let after =
    Assignment.make ~parent:[| 1; 2; 2; 4; 4 |] ~head:[| 2; 2; 2; 4; 4 |]
  in
  match Metrics.membership_stability ~before ~after with
  | Some s -> Alcotest.(check (float 1e-9)) "3/5 stable" 0.6 s
  | None -> Alcotest.fail "expected stability"

let test_min_head_separation () =
  Alcotest.(check (option int)) "heads 2 and 3 adjacent" (Some 1)
    (Metrics.min_head_separation (graph ()) (sample ()));
  let single =
    Assignment.make ~parent:[| 0; 0; 1; 2; 3 |] ~head:(Array.make 5 0)
  in
  Alcotest.(check (option int)) "single head" None
    (Metrics.min_head_separation (graph ()) single)

(* The per-head BFS the metric was first computed with, kept as the
   oracle: the least finite distance from each head to a later one. *)
let per_head_separation graph assignment =
  let rec scan acc = function
    | [] -> acc
    | h :: rest ->
        let dist = Ss_topology.Traversal.bfs_from graph h in
        let acc =
          List.fold_left
            (fun acc h' ->
              if dist.(h') = Ss_topology.Traversal.unreachable then acc
              else
                match acc with
                | None -> Some dist.(h')
                | Some best -> Some (min best dist.(h')))
            acc rest
        in
        scan acc rest
  in
  scan None (Assignment.heads assignment)

(* Sparse random graphs (often disconnected) with no head, one head or
   many: each node heads itself with probability [q]. *)
let prop_separation_matches_per_head_bfs =
  QCheck.Test.make ~name:"min head separation = per-head BFS" ~count:500
    (QCheck.make
       ~print:(fun (n, p, q, seed) ->
         Printf.sprintf "n=%d p=%.3f q=%.2f seed=%d" n p q seed)
       QCheck.Gen.(
         quad (int_range 0 40) (float_range 0.0 0.15)
           (oneofl [ 0.0; 0.03; 0.2; 0.6; 1.0 ])
           (int_range 0 99999)))
    (fun (n, p, q, seed) ->
      let rng = Ss_prng.Rng.create ~seed in
      let graph = Builders.gnp rng ~n ~p in
      let head =
        Array.init n (fun v ->
            if Ss_prng.Rng.float rng 1.0 < q then v else -1)
      in
      let a = Assignment.make ~parent:(Array.copy head) ~head in
      Metrics.min_head_separation graph a = per_head_separation graph a)

let test_summarize () =
  let s = Metrics.summarize (graph ()) (sample ()) in
  Alcotest.(check int) "clusters" 2 s.Metrics.clusters;
  Alcotest.(check (float 1e-9)) "ecc" 1.5 s.Metrics.mean_eccentricity;
  Alcotest.(check (float 1e-9)) "tree" 1.5 s.Metrics.mean_tree_length;
  Alcotest.(check int) "max tree" 2 s.Metrics.max_tree_length;
  Alcotest.(check (float 1e-9)) "size" 2.5 s.Metrics.mean_size

let suite =
  [
    Alcotest.test_case "cluster count" `Quick test_cluster_count;
    Alcotest.test_case "head eccentricities" `Quick test_head_eccentricities;
    Alcotest.test_case "tree lengths" `Quick test_tree_lengths;
    Alcotest.test_case "tree length vs eccentricity" `Quick
      test_tree_length_vs_eccentricity;
    Alcotest.test_case "cluster sizes" `Quick test_cluster_sizes;
    Alcotest.test_case "head retention" `Quick test_head_retention;
    Alcotest.test_case "membership stability" `Quick test_membership_stability;
    Alcotest.test_case "min head separation" `Quick test_min_head_separation;
    Alcotest.test_case "summary" `Quick test_summarize;
    QCheck_alcotest.to_alcotest prop_separation_matches_per_head_bfs;
  ]
