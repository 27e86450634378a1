(* Deployment scenarios of Section 5: Poisson deployments over the unit
   square and the ~1000-node grid, with either random or adversarial
   (row-major) node identifiers. *)

module Graph = Ss_topology.Graph
module Builders = Ss_topology.Builders
module Rng = Ss_prng.Rng

type deployment =
  | Poisson of float (* intensity *)
  | Uniform of int (* exact node count *)
  | Grid of int * int (* cols x rows *)
  | Jittered_grid of int * int * float

type id_layout =
  | Random_ids (* uniformly permuted, the paper's default assumption *)
  | Row_major_ids (* ids increase left-to-right, bottom-to-top: Table 5 *)

type spec = { deployment : deployment; radius : float; id_layout : id_layout }

(* The paper's grid carries about lambda = 1000 nodes: 32 x 32. *)
let paper_grid_side = 32

let poisson ~intensity ~radius () =
  { deployment = Poisson intensity; radius; id_layout = Random_ids }

let uniform ~count ~radius () =
  { deployment = Uniform count; radius; id_layout = Random_ids }

let grid ?(cols = paper_grid_side) ?(rows = paper_grid_side) ~radius () =
  { deployment = Grid (cols, rows); radius; id_layout = Row_major_ids }

type world = { graph : Graph.t; ids : int array }

let assign_ids rng layout n =
  match layout with
  | Random_ids -> Rng.permutation rng n
  | Row_major_ids -> Array.init n Fun.id

let build rng spec =
  let graph =
    match spec.deployment with
    | Poisson intensity ->
        Builders.random_geometric rng ~intensity ~radius:spec.radius
    | Uniform count ->
        Builders.random_geometric_count rng ~count ~radius:spec.radius
    | Grid (cols, rows) ->
        Builders.geometric_grid ~cols ~rows ~radius:spec.radius
    | Jittered_grid (cols, rows, jitter) ->
        let positions =
          Ss_geom.Point_process.jittered_grid rng ~cols ~rows
            ~box:Ss_geom.Bbox.unit_square ~jitter
        in
        Graph.unit_disk ~radius:spec.radius positions
  in
  let ids = assign_ids rng spec.id_layout (Graph.node_count graph) in
  { graph; ids }

let pp_deployment ppf = function
  | Poisson intensity -> Fmt.pf ppf "poisson(%.0f)" intensity
  | Uniform count -> Fmt.pf ppf "uniform(%d)" count
  | Grid (c, r) -> Fmt.pf ppf "grid(%dx%d)" c r
  | Jittered_grid (c, r, j) -> Fmt.pf ppf "jittered-grid(%dx%d,%.2f)" c r j

let pp ppf spec =
  Fmt.pf ppf "%a R=%.3f ids=%s" pp_deployment spec.deployment spec.radius
    (match spec.id_layout with
    | Random_ids -> "random"
    | Row_major_ids -> "row-major")
