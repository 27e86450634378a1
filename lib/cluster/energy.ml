(* Energy-aware clustering — the extension the paper's conclusion singles
   out ("we also want to consider energy constraints in the stabilization
   algorithm and we are investigating energy-efficient organization
   algorithms").

   Design: keep the density-driven structure but weight the election so
   that nodes with drained batteries neither win nor keep the cluster-head
   role. Energy enters the order lexicographically *below* the density
   band: the node's metric value is density discretized into bands, and
   within a band the residual-energy level decides, then ids. Cluster-head
   duty drains energy faster than member duty, so under this order the
   head role rotates among the densest nodes of an area instead of pinning
   the same node until it dies. *)

module Graph = Ss_topology.Graph
module Rng = Ss_prng.Rng

type battery = {
  capacity : float; (* initial charge, in abstract units *)
  mutable charge : float;
}

let battery ~capacity =
  if capacity <= 0.0 then invalid_arg "Energy.battery: capacity must be positive";
  { capacity; charge = capacity }

let charge b = b.charge
let is_alive b = b.charge > 0.0

let level ?(levels = 8) b =
  if levels < 1 then invalid_arg "Energy.level: levels must be >= 1";
  if b.charge <= 0.0 then 0
  else
    let frac = b.charge /. b.capacity in
    min (levels - 1) (int_of_float (frac *. float_of_int levels))

type drain = {
  head_per_epoch : float; (* cost of serving as cluster-head for one epoch *)
  member_per_epoch : float;
}

let default_drain = { head_per_epoch = 5.0; member_per_epoch = 1.0 }

let spend b amount =
  (* A negative amount would silently recharge the battery — always a
     sign convention bug in the caller (a drain expressed as a delta). *)
  if amount < 0.0 then
    invalid_arg
      (Printf.sprintf "Energy.spend: negative amount %g (drains are positive)"
         amount);
  b.charge <- Float.max 0.0 (b.charge -. amount)

let apply_duty ~drain batteries ~alive ~is_head =
  Array.iteri
    (fun p b ->
      if alive p && is_alive b then
        if is_head p then spend b drain.head_per_epoch
        else spend b drain.member_per_epoch)
    batteries

let apply_drain ~drain batteries assignment =
  apply_duty ~drain batteries
    ~alive:(fun _ -> true)
    ~is_head:(Assignment.is_head assignment)

(* The energy-aware election value: density quantized into [bands] bands
   (so that small density differences do not override energy), with the
   battery level as the low-order component. Encoded as a rational so the
   existing Order/Algorithm machinery applies unchanged:
   value = band * levels + energy_level, as the integer (links part) of a
   rational with denominator 1. *)
let bands = 4

let election_values ?(levels = 8) graph batteries =
  let densities = Density.compute_all graph in
  let floats = Array.map Density.to_float densities in
  let dmax = Array.fold_left Float.max 0.0 floats in
  Array.mapi
    (fun p d ->
      let band =
        if dmax <= 0.0 then 0
        else
          min (bands - 1)
            (int_of_float (d /. dmax *. float_of_int bands))
      in
      let e = level ~levels batteries.(p) in
      Density.make ~links:((band * levels) + e) ~nodes:1)
    floats

(* One epoch of the energy-aware protocol on a static topology: dead nodes
   drop out of the graph, the election runs with energy-weighted values,
   then head duty drains batteries. Returns None when no node is alive. *)
type epoch_result = {
  assignment : Assignment.t;
  alive : int;
  heads : int;
}

let living_subgraph graph batteries =
  let n = Graph.node_count graph in
  let edges = ref [] in
  Graph.iter_edges graph (fun p q ->
      if is_alive batteries.(p) && is_alive batteries.(q) then
        edges := (p, q) :: !edges);
  let positions = Graph.positions graph in
  Graph.of_edges ?positions ~n !edges

let run_epoch ?(drain = default_drain) ?init_heads rng graph batteries ~ids =
  let alive =
    Array.fold_left (fun acc b -> if is_alive b then acc + 1 else acc) 0 batteries
  in
  if alive = 0 then None
  else begin
    let living = living_subgraph graph batteries in
    let values = election_values living batteries in
    (* Dead nodes keep degree 0 in the living subgraph; they elect
       themselves in isolation and are excluded from the statistics. *)
    let config =
      Config.make ~metric:Metric.Density ~tie:Order.Incumbent_then_id ()
    in
    let outcome =
      Algorithm.run ~scheduler:Algorithm.Sequential ?init_heads
        ~topology:(Algorithm.topology ~values config living)
        rng config living ~ids
    in
    let assignment = outcome.Algorithm.assignment in
    apply_drain ~drain batteries assignment;
    let live_heads =
      List.length
        (List.filter
           (fun h -> is_alive batteries.(h))
           (Assignment.heads assignment))
    in
    Some { assignment; alive; heads = live_heads }
  end

(* Network lifetime simulation: epochs until the first node dies / until
   half the nodes die, with and without energy-aware election. *)
type lifetime = {
  epochs_to_first_death : int;
  epochs_to_half_dead : int;
  total_head_changes : int;
}

let max_epochs = 10_000

let simulate_lifetime ?(drain = default_drain) ?(capacity = 100.0)
    ~energy_aware rng graph ~ids =
  let n = Graph.node_count graph in
  let batteries = Array.init n (fun _ -> battery ~capacity) in
  let first_death = ref 0 in
  let half_dead = ref 0 in
  let head_changes = ref 0 in
  let previous_heads = ref [||] in
  let epoch = ref 0 in
  let continue = ref true in
  while !continue && !epoch < max_epochs do
    incr epoch;
    let result =
      if energy_aware then run_epoch ~drain rng graph batteries ~ids
      else begin
        (* Energy-oblivious baseline: plain density election on the living
           subgraph; batteries still drain. *)
        let living = living_subgraph graph batteries in
        let assignment =
          Algorithm.cluster ~scheduler:Algorithm.Sequential rng Config.basic
            living ~ids
        in
        apply_drain ~drain batteries assignment;
        Some
          {
            assignment;
            alive =
              Array.fold_left
                (fun acc b -> if is_alive b then acc + 1 else acc)
                0 batteries;
            heads = Assignment.cluster_count assignment;
          }
      end
    in
    match result with
    | None -> continue := false
    | Some { assignment; _ } ->
        let heads = Array.of_list (Assignment.heads assignment) in
        if !previous_heads <> [||] && heads <> !previous_heads then
          incr head_changes;
        previous_heads := heads;
        let dead =
          Array.fold_left
            (fun acc b -> if is_alive b then acc else acc + 1)
            0 batteries
        in
        if dead > 0 && !first_death = 0 then first_death := !epoch;
        if dead * 2 >= n && !half_dead = 0 then begin
          half_dead := !epoch;
          continue := false
        end
  done;
  {
    epochs_to_first_death = (if !first_death = 0 then !epoch else !first_death);
    epochs_to_half_dead = (if !half_dead = 0 then !epoch else !half_dead);
    total_head_changes = !head_changes;
  }
