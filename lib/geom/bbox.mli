(** Axis-aligned bounding boxes (deployment areas). *)

type t = { min_x : float; min_y : float; max_x : float; max_y : float }

val make : min_x:float -> min_y:float -> max_x:float -> max_y:float -> t
(** Raises [Invalid_argument] on an inverted box. *)

val unit_square : t
(** The paper's deployment area: the 1x1 square. *)

val width : t -> float
val height : t -> float
val area : t -> float

val contains : t -> Vec2.t -> bool

val enclose : t -> Vec2.t array -> t
(** The smallest box containing both [t] and every point. *)

val clamp : t -> Vec2.t -> Vec2.t
(** Nearest point inside the box. *)

val reflect : t -> Vec2.t -> Vec2.t * Vec2.t
(** [reflect box p] bounces [p] back inside; the second component holds
    per-axis direction multipliers (+/-1) for billiard-style mobility. *)

val sample : Ss_prng.Rng.t -> t -> Vec2.t
(** Uniform point inside the box. *)

val pp : t Fmt.t
