(* The clustering algorithm of Sections 3-4 as a round-based fixpoint
   computation on a static topology.

   Each round executes the guarded assignments R1/R2 at every node:

     R1:  d_p  := density (static here, since the topology is fixed)
     R2:  H(p) := Id_p                    if p is locally ≺-maximal
                                          (and survives the fusion test)
                  H(max≺ { q in N_p })    otherwise

   The synchronous schedule evaluates all nodes against the previous round's
   shared variables — exactly one Δ(τ) step of the paper — so the number of
   rounds to fixpoint is the stabilization time in steps, bounded by the
   height of DAG≺. The sequential schedule models a central daemon and is
   immune to the symmetric oscillations the Section 4.3 fusion rule can
   sustain under lockstep execution. *)

module Graph = Ss_topology.Graph
module Neighborhood = Ss_topology.Neighborhood

type scheduler = Synchronous | Sequential

type outcome = {
  assignment : Assignment.t;
  rounds : int; (* rounds executed, final quiet round included *)
  converged : bool;
  values : Density.t array;
  effective_ids : int array;
  dag : Dag_id.result option;
}

let default_max_rounds graph = (4 * Graph.node_count graph) + 16

(* [two_hop] is [None] for fusion-free configurations, which never read
   it. *)
type topology = { values : Density.t array; two_hop : int array array option }

let topology ?values (config : Config.t) graph =
  let values =
    match values with
    | Some v ->
        if Array.length v <> Graph.node_count graph then
          invalid_arg "Algorithm.topology: values length mismatch";
        v
    | None -> Metric.value_all config.metric graph
  in
  let two_hop =
    if config.fusion then Some (Neighborhood.two_hop_rows graph) else None
  in
  { values; two_hop }

let two_hop_rows t =
  match t.two_hop with
  | Some rows -> rows
  | None -> invalid_arg "Algorithm: topology built without fusion rows"

let two_hop t p = (two_hop_rows t).(p)

(* p's cache rows for {!Elect}: per neighbor q, its effective id in the
   gid column, its density and its head; nlen stays 0 as allocated. Run
   per node per round, so without bounds checks: q is a node, every
   node-indexed array holds n entries (checked), [c] 8 per neighbor. *)
let fill c nbrs (eff : int array) (dl : int array) (dn : int array) heads =
  for i = 0 to Array.length nbrs - 1 do
    let q = Array.unsafe_get nbrs i and o = 8 * i in
    Array.unsafe_set c o q;
    Array.unsafe_set c (o + 2) (Array.unsafe_get eff q);
    Array.unsafe_set c (o + 4) (Array.unsafe_get dl q);
    Array.unsafe_set c (o + 5) (Array.unsafe_get dn q);
    Array.unsafe_set c (o + 6) (Array.unsafe_get heads q)
  done

let run ?(scheduler = Synchronous) ?init_heads ?max_rounds ?dag_names
    ?topology:tables rng (config : Config.t) graph ~ids =
  let n = Graph.node_count graph in
  if Array.length ids <> n then invalid_arg "Algorithm.run: ids length mismatch";
  let max_rounds =
    match max_rounds with Some m -> m | None -> default_max_rounds graph
  in
  let tables =
    match tables with
    | Some t ->
        if Array.length t.values <> n then
          invalid_arg "Algorithm.run: topology built for another graph";
        t
    | None -> topology config graph
  in
  let values = tables.values in
  let dag =
    if config.use_dag_names then
      match dag_names with
      | Some names ->
          if Array.length names <> n then
            invalid_arg "Algorithm.run: dag_names length mismatch";
          Some { Dag_id.names; steps = 0; gamma_size = 0; converged = true }
      | None ->
          Some (Dag_id.build_spec rng graph ~ids ~gamma_spec:config.gamma)
    else None
  in
  let effective_ids =
    match dag with Some d -> d.Dag_id.names | None -> ids
  in
  let two_hop = if config.fusion then two_hop_rows tables else [||] in
  let head =
    match init_heads with
    | Some h ->
        if Array.length h <> n then
          invalid_arg "Algorithm.run: init_heads length mismatch";
        for p = 0 to n - 1 do
          if h.(p) < 0 then
            invalid_arg
              (Printf.sprintf "Algorithm.run: init_heads.(%d) = %d is negative"
                 p h.(p))
        done;
        Array.copy h
    | None -> Array.init n Fun.id
  in
  let parent = Array.init n Fun.id in
  let tie = config.tie and fusion = config.fusion in
  let dl = Array.map Density.links values
  and dn = Array.map Density.nodes values in
  let snapshot_head =
    match scheduler with Synchronous -> Array.copy head | Sequential -> head
  in
  (* The kernel's tables, filled per node from the snapshot: cache rows
     ([fill]), far rows of the 2-hop heads, and the bridge flags. *)
  let deg_max = Graph.max_degree graph in
  let c = Array.make (8 * deg_max) 0 and flags = Array.make deg_max 0 in
  let widest = Array.fold_left (fun m r -> Int.max m (Array.length r)) 0 in
  let f = Array.make (6 * widest two_hop) 0 in
  (* [update p] writes p's next parent and head; a hold leaves them. *)
  let update p =
    let nbrs = Graph.neighbors graph p in
    let deg = Array.length nbrs in
    fill c nbrs effective_ids dl dn snapshot_head;
    let links = dl.(p) and nodes = dn.(p) and eff = effective_ids.(p) in
    let inc = snapshot_head.(p) = p in
    let r =
      Elect.first ~tie ~dag:false ~fusion ~links ~nodes ~eff ~inc c 0 (8 * deg)
    in
    let r =
      if r <> Elect.fuse then r
      else begin
        (* the 2-hop heads only: the kernel skips the other rows *)
        let row = two_hop.(p) and len = ref 0 in
        for i = 0 to Array.length row - 1 do
          let q = row.(i) and o = 6 * !len in
          if snapshot_head.(q) = q then begin
            f.(o) <- q;
            f.(o + 2) <- dl.(q);
            f.(o + 3) <- dn.(q);
            f.(o + 4) <- effective_ids.(q);
            f.(o + 5) <- 1;
            incr len
          end
        done;
        let v = Elect.dominating ~tie ~links ~nodes ~eff ~inc f 0 !len in
        if v < 0 then v
        else begin
          for i = 0 to deg - 1 do
            flags.(i) <- (if Graph.mem_edge graph nbrs.(i) f.(v) then 1 else 0)
          done;
          Elect.bridge ~tie ~dag:false c 0 (8 * deg) flags
        end
      end
    in
    if r <> Elect.hold then begin
      parent.(p) <- (if r = Elect.own then p else c.(r));
      head.(p) <- (if r = Elect.own then p else c.(r + 6))
    end
  in
  let round () =
    (match scheduler with
    | Synchronous -> Array.blit head 0 snapshot_head 0 n
    | Sequential -> ());
    let changed = ref false in
    for p = 0 to n - 1 do
      let f0 = parent.(p) and h0 = head.(p) in
      update p;
      if parent.(p) <> f0 || head.(p) <> h0 then changed := true
    done;
    !changed
  in
  let rec iterate r =
    if r >= max_rounds then (r, false)
    else if round () then iterate (r + 1)
    else (r + 1, true)
  in
  let rounds, converged = iterate 0 in
  {
    assignment = Assignment.make ~parent ~head;
    rounds;
    converged;
    values;
    effective_ids;
    dag;
  }

let cluster ?scheduler ?init_heads ?max_rounds ?dag_names ?topology rng config
    graph ~ids =
  (run ?scheduler ?init_heads ?max_rounds ?dag_names ?topology rng config graph
     ~ids)
    .assignment

let sequential_ids graph = Array.init (Graph.node_count graph) Fun.id

let shuffled_ids rng graph = Ss_prng.Rng.permutation rng (Graph.node_count graph)
