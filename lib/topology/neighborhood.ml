module Iset = Set.Make (Int)

let one_hop graph p = Iset.of_list (Array.to_list (Graph.neighbors graph p))

let k_hop graph p k =
  if k < 0 then invalid_arg "Neighborhood.k_hop: negative radius";
  Graph.check_node graph p;
  (* N^i as defined in the paper: N^1 = N_p and N^i = N^(i-1) plus the
     neighbors of N^(i-1); p itself is excluded. *)
  let rec grow frontier acc i =
    if i >= k || Iset.is_empty frontier then acc
    else begin
      let next =
        Iset.fold
          (fun q next ->
            Array.fold_left
              (fun next r ->
                if r <> p && not (Iset.mem r acc) then Iset.add r next else next)
              next (Graph.neighbors graph q))
          frontier Iset.empty
      in
      grow next (Iset.union acc next) (i + 1)
    end
  in
  let n1 = one_hop graph p in
  grow n1 n1 1

let two_hop graph p = k_hop graph p 2

let closed graph p = Iset.add p (one_hop graph p)

let to_sorted_array set = Array.of_list (Iset.elements set)

(* [stamp.(q) = p] marks q as already collected for row p (p itself is
   pre-stamped, so it never enters its own row); [buf] holds the row
   until it is copied out and sorted in place. *)
let two_hop_rows graph =
  let n = Graph.node_count graph in
  let stamp = Array.make n (-1) in
  let buf = Array.make n 0 in
  let add p len q =
    if stamp.(q) = p then len
    else begin
      stamp.(q) <- p;
      buf.(len) <- q;
      len + 1
    end
  in
  Array.init n (fun p ->
      stamp.(p) <- p;
      let len = ref 0 in
      let nbrs = Graph.neighbors graph p in
      for i = 0 to Array.length nbrs - 1 do
        let q = nbrs.(i) in
        len := add p !len q;
        let second = Graph.neighbors graph q in
        for j = 0 to Array.length second - 1 do
          len := add p !len second.(j)
        done
      done;
      Graph.sorted_row buf !len)

let links_within graph set =
  (* Number of graph edges with both endpoints in [set]. *)
  Iset.fold
    (fun p acc ->
      Array.fold_left
        (fun acc q -> if q > p && Iset.mem q set then acc + 1 else acc)
        acc (Graph.neighbors graph p))
    set 0
