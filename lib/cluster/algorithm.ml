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
        Array.copy h
    | None -> Array.init n Fun.id
  in
  let parent = Array.init n Fun.id in
  let key snapshot_head p =
    Order.key ~value:values.(p) ~id:effective_ids.(p)
      ~incumbent:(snapshot_head.(p) = p)
  in
  let tie = config.tie in
  (* The strongest 2-hop cluster-head dominating p, if any (the fusion test
     of Section 4.3). Only relevant for locally-maximal nodes: a 1-hop
     dominator would already make p non-maximal. *)
  let dominating_head snapshot_head kp p =
    Array.fold_left
      (fun acc q ->
        if snapshot_head.(q) = q then begin
          let kq = key snapshot_head q in
          if Order.precedes ~tie kp kq then
            match acc with
            | Some (_, kbest) when Order.compare ~tie kq kbest <= 0 -> acc
            | Some _ | None -> Some (q, kq)
          else acc
        end
        else acc)
      None two_hop.(p)
  in
  (* A fusion-demoted head merges into the dominating head v's cluster by
     re-parenting onto its best bridge neighbor (a neighbor adjacent to v).
     The paper specifies the demotion but not the adoption; copying
     H(max≺ N_p) literally lets the demoted head's own subtree echo its old
     H value back forever (a parent cycle), so we follow the paper's stated
     intent — "p initiates a fusion between u and v's clusters ... v will
     remain a cluster-head unlike u" — and route the demoted head toward v. *)
  let bridge_towards snapshot_head p v =
    let nbrs = Graph.neighbors graph p in
    Array.fold_left
      (fun acc b ->
        if Graph.mem_edge graph b v then
          match acc with
          | Some (_, kbest)
            when Order.compare ~tie (key snapshot_head b) kbest <= 0 ->
              acc
          | Some _ | None -> Some (b, key snapshot_head b)
        else acc)
      None nbrs
  in
  let update snapshot_head p =
    let kp = key snapshot_head p in
    let nbrs = Graph.neighbors graph p in
    if Array.length nbrs = 0 then (p, p)
    else begin
      (* max≺ over the 1-neighborhood. *)
      let best = ref nbrs.(0) in
      let best_key = ref (key snapshot_head nbrs.(0)) in
      for i = 1 to Array.length nbrs - 1 do
        let q = nbrs.(i) in
        let kq = key snapshot_head q in
        if Order.compare ~tie kq !best_key > 0 then begin
          best := q;
          best_key := kq
        end
      done;
      let locally_maximal = Order.precedes ~tie !best_key kp in
      if not locally_maximal then (!best, snapshot_head.(!best))
      else if not config.fusion then (p, p)
      else begin
        match dominating_head snapshot_head kp p with
        | None -> (p, p)
        | Some (v, _) -> (
            match bridge_towards snapshot_head p v with
            | Some (b, _) -> (b, snapshot_head.(b))
            | None ->
                (* Unreachable for v in N²_p \ N_p, kept for safety. *)
                (p, p))
      end
    end
  in
  let round () =
    let snapshot_head =
      match scheduler with
      | Synchronous -> Array.copy head
      | Sequential -> head
    in
    let changed = ref false in
    for p = 0 to n - 1 do
      let f, h = update snapshot_head p in
      if parent.(p) <> f || head.(p) <> h then changed := true;
      parent.(p) <- f;
      head.(p) <- h
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
