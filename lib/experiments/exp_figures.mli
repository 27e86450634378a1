(** Figures F2/F3: SVG and ASCII renderings of the grid clusterings with and
    without the DAG of names (the paper's Figure 2 and Figure 3). *)

type figure = {
  name : string;
  svg : string;
  ascii : string;
  summary : Ss_cluster.Metrics.summary;
}

val figure2 : ?seed:int -> ?radius:float -> unit -> figure
(** Grid, row-major ids, no DAG: one giant cluster. *)

val figure3 : ?seed:int -> ?radius:float -> unit -> figure
(** Grid with DAG names: many compact clusters. *)

val print : ?dir:string -> unit -> unit
