(** The total order ≺ driving cluster-head election.

    A node's standing is a {!key}: its metric value, its effective
    identifier (the DAG name when the DAG refinement is on, the global id
    otherwise), and whether it currently is a cluster-head (used by the
    Section 4.3 incumbent refinement). *)

type tie =
  | Id_only  (** the basic order of Section 4.2 *)
  | Incumbent_then_id
      (** Section 4.3: current heads win density ties; ids settle the rest.
          Two equal-density incumbents fall back to the id rule (a totality
          completion of the paper's relation). *)

type key = { value : Density.t; id : int; incumbent : bool }

val key : value:Density.t -> id:int -> incumbent:bool -> key

val compare : tie:tie -> key -> key -> int
(** [compare ~tie a b < 0] means [a ≺ b]. Total for distinct ids. *)

val compare_raw :
  tie:tie -> int -> int -> int -> bool -> int -> int -> int -> bool -> int
(** [compare_raw ~tie l1 n1 id1 inc1 l2 n2 id2 inc2] is {!compare} on the
    keys with density [links/nodes], id and incumbency given as raw
    values; a zero node count reads as density 0, as in
    {!Density.compare}. The election kernel ({!Elect}) compares with it
    and nothing else in the library does. *)

val precedes : tie:tie -> key -> key -> bool

val max_key : tie:tie -> key list -> key option
(** max≺ of a list (None on empty). *)

val pp_tie : tie Fmt.t
val pp_key : key Fmt.t
