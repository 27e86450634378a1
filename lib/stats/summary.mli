(** Streaming summary statistics (Welford). *)

type t

val create : unit -> t
val add : t -> float -> unit
val add_int : t -> int -> unit
val of_list : float list -> t

val count : t -> int
val mean : t -> float
(** [nan] on an empty summary. *)

val minimum : t -> float
val maximum : t -> float
val variance : t -> float
(** Sample variance (n-1); 0 with fewer than two samples. *)

val stddev : t -> float
val ci95 : t -> float
(** Half-width of a normal-approximation 95% CI on the mean. *)

val merge : t -> t -> t
(** Combine two summaries as if their samples were pooled. *)

val pp : t Fmt.t
