(* The measurements of Section 5: number of cluster-heads, cluster-head
   eccentricity e(H(u)/C(u)) and clusterization tree length, plus the
   mobility-experiment statistics (head retention between epochs). *)

module Graph = Ss_topology.Graph
module Traversal = Ss_topology.Traversal

let cluster_count = Assignment.cluster_count

(* Hop distance in the full graph from the head to its farthest cluster
   member; the paper's e(H(u)/C) = max_{v in C(u)} d(H(u), v). *)
let head_eccentricities graph assignment =
  List.map
    (fun (h, members) ->
      let dist = Traversal.bfs_from graph h in
      let ecc =
        List.fold_left
          (fun acc v ->
            if dist.(v) = Traversal.unreachable then acc else max acc dist.(v))
          0 members
      in
      (h, ecc))
    (Assignment.clusters assignment)

let mean_of = function
  | [] -> None
  | xs ->
      let total = List.fold_left ( +. ) 0.0 (List.map float_of_int xs) in
      Some (total /. float_of_int (List.length xs))

let mean_head_eccentricity graph assignment =
  mean_of (List.map snd (head_eccentricities graph assignment))

(* Clusterization tree length of a cluster: the longest parent-chain (in
   hops) from a member down to the head. The paper reports its average over
   clusters and uses it as a proxy for stabilization time. *)
let tree_lengths assignment =
  List.map
    (fun (h, members) ->
      let len =
        List.fold_left
          (fun acc v ->
            match Assignment.tree_depth assignment v with
            | Some d -> max acc d
            | None -> acc)
          0 members
      in
      (h, len))
    (Assignment.clusters assignment)

let mean_tree_length assignment =
  mean_of (List.map snd (tree_lengths assignment))

let max_tree_length assignment =
  List.fold_left (fun acc (_, l) -> max acc l) 0 (tree_lengths assignment)

let cluster_sizes assignment =
  List.map (fun (_, members) -> List.length members)
    (Assignment.clusters assignment)

let mean_cluster_size assignment = mean_of (cluster_sizes assignment)

(* Fraction of the heads of [before] that are still heads in [after] — the
   Section 5 mobility statistic ("percentage of cluster-heads which remained
   cluster-heads"). *)
let head_retention ~before ~after =
  let heads = Assignment.heads before in
  match heads with
  | [] -> None
  | _ :: _ ->
      let kept =
        List.length (List.filter (fun h -> Assignment.is_head after h) heads)
      in
      Some (float_of_int kept /. float_of_int (List.length heads))

(* Fraction of nodes whose cluster-head did not change between epochs. *)
let membership_stability ~before ~after =
  let n = Assignment.size before in
  if n = 0 || n <> Assignment.size after then None
  else begin
    let same = ref 0 in
    for p = 0 to n - 1 do
      if Assignment.head before p = Assignment.head after p then incr same
    done;
    Some (float_of_int !same /. float_of_int n)
  end

(* Smallest hop distance between two distinct cluster-heads; the fusion rule
   of Section 4.3 aims for a separation of at least 3. One BFS from all
   heads at once labels every reached node with its nearest head [near]
   at distance [dist]; the answer is the least dist u + 1 + dist v over
   edges (u, v) whose endpoints carry different labels. That is exact on
   unweighted graphs: such an edge closes a walk between two distinct
   heads, and a shortest path between the closest pair changes label
   along some edge (u, v), where dist u is at most u's distance along
   the path to one end and dist v at most v's to the other. *)
let min_head_separation graph assignment =
  let n = Graph.node_count graph in
  let dist = Array.make n Traversal.unreachable in
  let near = Array.make n (-1) in
  let queue = Array.make n 0 in
  let tail = ref 0 in
  List.iter
    (fun h ->
      dist.(h) <- 0;
      near.(h) <- h;
      queue.(!tail) <- h;
      incr tail)
    (Assignment.heads assignment);
  let next = ref 0 in
  while !next < !tail do
    let u = queue.(!next) in
    incr next;
    Array.iter
      (fun v ->
        if dist.(v) = Traversal.unreachable then begin
          dist.(v) <- dist.(u) + 1;
          near.(v) <- near.(u);
          queue.(!tail) <- v;
          incr tail
        end)
      (Graph.neighbors graph u)
  done;
  let best = ref Traversal.unreachable in
  for u = 0 to n - 1 do
    if near.(u) >= 0 then
      Array.iter
        (fun v ->
          if near.(v) >= 0 && near.(v) <> near.(u) then
            best := min !best (dist.(u) + 1 + dist.(v)))
        (Graph.neighbors graph u)
  done;
  if !best = Traversal.unreachable then None else Some !best

type summary = {
  clusters : int;
  mean_eccentricity : float;
  mean_tree_length : float;
  max_tree_length : int;
  mean_size : float;
}

let summarize graph assignment =
  {
    clusters = cluster_count assignment;
    mean_eccentricity =
      Option.value ~default:0.0 (mean_head_eccentricity graph assignment);
    mean_tree_length = Option.value ~default:0.0 (mean_tree_length assignment);
    max_tree_length = max_tree_length assignment;
    mean_size = Option.value ~default:0.0 (mean_cluster_size assignment);
  }

let pp_summary ppf s =
  Fmt.pf ppf "clusters=%d ecc=%.2f tree=%.2f max-tree=%d size=%.1f" s.clusters
    s.mean_eccentricity s.mean_tree_length s.max_tree_length s.mean_size
