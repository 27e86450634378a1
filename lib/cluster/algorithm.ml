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
  let tie = config.tie in
  (* The order's inputs as raw planes, so every comparison below is one
     [Order.compare_raw] call on ints: no key record, no tuple, no
     option and no closure per comparison. *)
  let dl = Array.map Density.links values
  and dn = Array.map Density.nodes values in
  let snapshot_head =
    match scheduler with Synchronous -> Array.copy head | Sequential -> head
  in
  (* [above a b]: a's standing under the snapshot beats b's. *)
  let above a b =
    Order.compare_raw ~tie dl.(a) dn.(a) effective_ids.(a)
      (snapshot_head.(a) = a) dl.(b) dn.(b) effective_ids.(b)
      (snapshot_head.(b) = b)
    > 0
  in
  (* [update p] leaves p's next parent and head in [new_f] and [new_h]. *)
  let new_f = ref 0 and new_h = ref 0 in
  let update p =
    let nbrs = Graph.neighbors graph p in
    new_f := p;
    new_h := p;
    if Array.length nbrs > 0 then begin
      (* max≺ over the 1-neighborhood. *)
      let best = ref nbrs.(0) in
      for i = 1 to Array.length nbrs - 1 do
        if above nbrs.(i) !best then best := nbrs.(i)
      done;
      if not (above p !best) then begin
        new_f := !best;
        new_h := snapshot_head.(!best)
      end
      else if config.fusion then begin
        (* The strongest 2-hop cluster-head dominating p, if any (the
           fusion test of Section 4.3). Only relevant for locally-maximal
           nodes: a 1-hop dominator would already make p non-maximal. *)
        let row = two_hop.(p) and v = ref (-1) in
        for i = 0 to Array.length row - 1 do
          let q = row.(i) in
          if snapshot_head.(q) = q && above q p && (!v < 0 || above q !v) then
            v := q
        done;
        (* A fusion-demoted head merges into the dominating head v's
           cluster by re-parenting onto its best bridge neighbor (a
           neighbor adjacent to v). The paper specifies the demotion but
           not the adoption; copying H(max≺ N_p) literally lets the
           demoted head's own subtree echo its old H value back forever (a
           parent cycle), so we follow the paper's stated intent — "p
           initiates a fusion between u and v's clusters ... v will remain
           a cluster-head unlike u" — and route the demoted head toward v.
           A v with no bridge is unreachable for v in N²_p \ N_p; p then
           stays its own head, for safety. *)
        if !v >= 0 then begin
          let b = ref (-1) in
          for i = 0 to Array.length nbrs - 1 do
            let c = nbrs.(i) in
            if Graph.mem_edge graph c !v && (!b < 0 || above c !b) then b := c
          done;
          if !b >= 0 then begin
            new_f := !b;
            new_h := snapshot_head.(!b)
          end
        end
      end
    end
  in
  let round () =
    (match scheduler with
    | Synchronous -> Array.blit head 0 snapshot_head 0 n
    | Sequential -> ());
    let changed = ref false in
    for p = 0 to n - 1 do
      update p;
      if parent.(p) <> !new_f || head.(p) <> !new_h then changed := true;
      parent.(p) <- !new_f;
      head.(p) <- !new_h
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
