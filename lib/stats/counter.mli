(** Mutable string-keyed tallies (event counts by type). *)

type t

val create : unit -> t

val incr : t -> string -> unit
(** Add 1 to the key's count. *)

val count : t -> string -> int
(** 0 for unseen keys. *)

val total : t -> int

val to_list : t -> (string * int) list
(** Sorted by key. *)

val merge : t -> t -> t
(** Fresh counter with the pooled counts; arguments unchanged. *)

val pp : t Fmt.t
