(* Algorithm N1 (Section 4.1): every node keeps a name Id_p from γ and runs

     N1:  true -> Id_p := newId(Id_p)

   where newId keeps the current name when no cached neighbor name collides
   and otherwise re-draws uniformly from the locally unused names. Section 5
   refines the collision rule for simulation: when two neighbors collide,
   the one with the smaller global id re-picks. We implement the Section 5
   variant, which is the one Table 3 measures. *)

module Graph = Ss_topology.Graph
module Rng = Ss_prng.Rng

type result = {
  names : int array;
  steps : int;
  gamma_size : int;
  converged : bool;
}

let pick_fresh rng ~gamma ~excluded ~current =
  (* Uniform over gamma minus the excluded names; falls back to a uniform
     re-draw when neighbors exhaust gamma. Unlike Elect.free_name, which
     keeps [current] there, the fallback stays: this builder runs on
     static graphs only, where gamma >= delta + 1 (Gamma.size) always
     leaves a free name, so the branch is unreachable in practice. *)
  ignore current;
  let free = ref 0 in
  Array.iter (fun used -> if not used then incr free) excluded;
  if !free = 0 then Rng.int rng gamma
  else begin
    let target = Rng.int rng !free in
    let chosen = ref (-1) in
    let seen = ref 0 in
    (try
       Array.iteri
         (fun name used ->
           if not used then begin
             if !seen = target then begin
               chosen := name;
               raise Exit
             end;
             incr seen
           end)
         excluded
     with Exit -> ());
    !chosen
  end

let initial_names rng ~gamma n = Array.init n (fun _ -> Rng.int rng gamma)

(* One synchronous resolution round: every node inspects its neighbors'
   current names; a node re-picks when it collides with a neighbor that has
   a larger global id (the smaller global id yields... the paper says the
   node with the smallest normal id chooses another name). Returns how many
   nodes re-picked. *)
let resolution_round rng graph ~ids ~gamma names =
  let n = Graph.node_count graph in
  let snapshot = Array.copy names in
  let repicked = ref 0 in
  for p = 0 to n - 1 do
    let nbrs = Graph.neighbors graph p in
    let collides =
      Array.exists
        (fun q -> snapshot.(q) = snapshot.(p) && ids.(p) < ids.(q))
        nbrs
    in
    let collides_equal =
      (* Degenerate duplicate global ids (possible in corrupted runs): the
         smaller node index re-picks so progress is still guaranteed. *)
      Array.exists
        (fun q -> snapshot.(q) = snapshot.(p) && ids.(p) = ids.(q) && p < q)
        nbrs
    in
    if collides || collides_equal then begin
      let excluded = Array.make gamma false in
      Array.iter (fun q -> if snapshot.(q) < gamma then excluded.(snapshot.(q)) <- true) nbrs;
      names.(p) <- pick_fresh rng ~gamma ~excluded ~current:snapshot.(p);
      incr repicked
    end
  done;
  !repicked

let max_steps = 1000

let build rng graph ~ids ~gamma =
  if Array.length ids <> Graph.node_count graph then
    invalid_arg "Dag_id.build: ids length mismatch";
  if gamma < 1 then invalid_arg "Dag_id.build: gamma must be >= 1";
  let n = Graph.node_count graph in
  let names = initial_names rng ~gamma n in
  (* Table 3 convention: step 1 broadcasts the initial draws; every further
     step in which at least one node re-picks counts. A collision-free
     initial draw therefore costs 1 step, one round of re-picks costs 2 —
     which is how the paper's random-geometry rows can average 1.9-2.0. *)
  let rec resolve ~active =
    if 1 + active >= max_steps then (1 + active, false)
    else begin
      let repicked = resolution_round rng graph ~ids ~gamma names in
      if repicked = 0 then (1 + active, true)
      else resolve ~active:(active + 1)
    end
  in
  let steps, converged = if n = 0 then (0, true) else resolve ~active:0 in
  { names; steps; gamma_size = gamma; converged }

let build_spec rng graph ~ids ~gamma_spec =
  let gamma = Gamma.size gamma_spec graph in
  build rng graph ~ids ~gamma

let is_valid graph names = Ss_topology.Dag.locally_unique graph names

let height graph names =
  Ss_topology.Dag.height (Ss_topology.Dag.of_labels graph names)
