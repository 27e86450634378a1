(* Immutable undirected graph over nodes 0..n-1 with sorted adjacency
   arrays. Built once per topology; all algorithms read it without copying. *)

type t = {
  n : int;
  adj : int array array;
  positions : Ss_geom.Vec2.t array option;
  mutable max_deg : int; (* memo, -1 until first queried; rows are
                            immutable by contract so it cannot go stale *)
}

let node_count t = t.n

let neighbors t p = t.adj.(p)

let degree t p = Array.length t.adj.(p)

let positions t = t.positions

let position t p =
  match t.positions with
  | None -> None
  | Some pos -> Some pos.(p)

let edge_count t =
  let sum = Array.fold_left (fun acc a -> acc + Array.length a) 0 t.adj in
  sum / 2

let max_degree t =
  (* Memoized: protocol initialisation queries this once per node (the
     namespace size is degree-derived), which turned cold starts
     quadratic at 100k+ nodes. *)
  if t.max_deg < 0 then
    t.max_deg <- Array.fold_left (fun acc a -> max acc (Array.length a)) 0 t.adj;
  t.max_deg

let mean_degree t =
  if t.n = 0 then 0.0
  else float_of_int (2 * edge_count t) /. float_of_int t.n

(* Top-level, so a lookup allocates no closure. *)
let rec bsearch a q lo hi =
  if lo >= hi then false
  else
    let mid = (lo + hi) / 2 in
    if a.(mid) = q then true
    else if a.(mid) < q then bsearch a q (mid + 1) hi
    else bsearch a q lo mid

let mem_edge t p q =
  let a = t.adj.(p) in
  bsearch a q 0 (Array.length a)

let check_node t p =
  if p < 0 || p >= t.n then invalid_arg "Graph: node out of range"

let iter_nodes t f =
  for p = 0 to t.n - 1 do
    f p
  done

let fold_nodes t f init =
  let acc = ref init in
  for p = 0 to t.n - 1 do
    acc := f !acc p
  done;
  !acc

let iter_edges t f =
  for p = 0 to t.n - 1 do
    Array.iter (fun q -> if p < q then f p q) t.adj.(p)
  done

let edges t =
  let acc = ref [] in
  iter_edges t (fun p q -> acc := (p, q) :: !acc);
  List.rev !acc

let dedup_sorted a =
  let n = Array.length a in
  if n <= 1 then a
  else begin
    let out = ref [ a.(0) ] and count = ref 1 in
    for i = 1 to n - 1 do
      if a.(i) <> a.(i - 1) then begin
        out := a.(i) :: !out;
        incr count
      end
    done;
    let res = Array.make !count 0 in
    List.iteri (fun i v -> res.(!count - 1 - i) <- v) !out;
    res
  end

let of_edges ?positions ~n edge_list =
  if n < 0 then invalid_arg "Graph.of_edges: negative node count";
  (match positions with
  | Some pos when Array.length pos <> n ->
      invalid_arg "Graph.of_edges: positions length mismatch"
  | Some _ | None -> ());
  let buckets = Array.make n [] in
  List.iter
    (fun (p, q) ->
      if p < 0 || p >= n || q < 0 || q >= n then
        invalid_arg "Graph.of_edges: endpoint out of range";
      if p = q then invalid_arg "Graph.of_edges: self loop";
      buckets.(p) <- q :: buckets.(p);
      buckets.(q) <- p :: buckets.(q))
    edge_list;
  let adj =
    Array.map
      (fun l ->
        let a = Array.of_list l in
        Array.sort Int.compare a;
        dedup_sorted a)
      buckets
  in
  { n; adj; positions; max_deg = -1 }

(* Trusted constructor: the caller certifies the invariants that
   [of_adjacency] would otherwise re-establish (rows strictly sorted, no
   self loops, in range, symmetric). Only the positions length — a plain
   caller mistake rather than a derived invariant — is still checked. The
   arrays are adopted, not copied: rows may be shared with other graphs
   (they are immutable by contract). *)
let of_sorted_adjacency ?positions adj =
  let n = Array.length adj in
  (match positions with
  | Some pos when Array.length pos <> n ->
      invalid_arg "Graph.of_sorted_adjacency: positions length mismatch"
  | Some _ | None -> ());
  { n; adj; positions; max_deg = -1 }

let of_adjacency ?positions adj =
  let n = Array.length adj in
  (match positions with
  | Some pos when Array.length pos <> n ->
      invalid_arg "Graph.of_adjacency: positions length mismatch"
  | Some _ | None -> ());
  let cleaned =
    Array.mapi
      (fun p l ->
        List.iter
          (fun q ->
            if q < 0 || q >= n then invalid_arg "Graph.of_adjacency: out of range";
            if q = p then invalid_arg "Graph.of_adjacency: self loop")
          l;
        let a = Array.of_list l in
        Array.sort Int.compare a;
        dedup_sorted a)
      adj
  in
  let t = { n; adj = cleaned; positions; max_deg = -1 } in
  (* Symmetry is an invariant of the radio model (bidirectional links). *)
  iter_nodes t (fun p ->
      Array.iter
        (fun q ->
          if not (mem_edge t q p) then
            invalid_arg "Graph.of_adjacency: asymmetric adjacency")
        t.adj.(p));
  t

(* Insertion sort below the cutoff: in place and closure-free, where
   [Array.sort]'s local functions and exceptions allocate on every call. *)
let sorted_row buf len =
  if len > 64 then begin
    let row = Array.sub buf 0 len in
    Array.sort Int.compare row;
    row
  end
  else begin
    for i = 1 to len - 1 do
      let x = buf.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && buf.(!j) > x do
        buf.(!j + 1) <- buf.(!j);
        decr j
      done;
      buf.(!j + 1) <- x
    done;
    Array.sub buf 0 len
  end

let unit_disk ~radius positions =
  if radius < 0.0 then invalid_arg "Graph.unit_disk: negative radius";
  let n = Array.length positions in
  (* Enclose all points; the index clamps outliers anyway. *)
  let box = Ss_geom.Bbox.enclose Ss_geom.Bbox.unit_square positions in
  let cell = if radius > 0.0 then radius else 1.0 in
  let index = Ss_geom.Grid_index.build ~box ~cell positions in
  let buf = Array.make n 0 in
  let adj =
    Array.init n (fun p ->
        sorted_row buf (Ss_geom.Grid_index.neighbors_into index p radius buf))
  in
  { n; adj; positions = Some positions; max_deg = -1 }

let equal a b =
  a.n = b.n
  &&
  try
    for p = 0 to a.n - 1 do
      let ra = a.adj.(p) and rb = b.adj.(p) in
      if Array.length ra <> Array.length rb then raise Exit;
      Array.iteri (fun i q -> if rb.(i) <> q then raise Exit) ra
    done;
    true
  with Exit -> false

let is_symmetric t =
  try
    iter_nodes t (fun p ->
        Array.iter (fun q -> if not (mem_edge t q p) then raise Exit) t.adj.(p));
    true
  with Exit -> false

let pp ppf t =
  Fmt.pf ppf "graph(n=%d, m=%d, max_deg=%d)" t.n (edge_count t) (max_degree t)
