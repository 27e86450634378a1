(** Deployment scenarios of the paper's evaluation. *)

type deployment =
  | Poisson of float  (** homogeneous Poisson with the given intensity *)
  | Uniform of int  (** exactly that many uniform nodes *)
  | Grid of int * int
  | Jittered_grid of int * int * float

type id_layout =
  | Random_ids
  | Row_major_ids
      (** ids increase left-to-right then bottom-to-top — the adversarial
          layout of Table 5 and Figure 2 *)

type spec = { deployment : deployment; radius : float; id_layout : id_layout }

val poisson : intensity:float -> radius:float -> unit -> spec
(** Random ids, as are [uniform]'s. *)

val uniform : count:int -> radius:float -> unit -> spec

val grid : ?cols:int -> ?rows:int -> radius:float -> unit -> spec
(** Row-major ids; defaults to the paper's 32x32. *)

type world = { graph : Ss_topology.Graph.t; ids : int array }

val build : Ss_prng.Rng.t -> spec -> world

val pp : spec Fmt.t
