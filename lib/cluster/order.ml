(* The binary total order ≺ of Section 4.2 and its Section 4.3 refinement.

   Basic:     p ≺ q  iff  d_p < d_q, or d_p = d_q and Id_q < Id_p
              (higher density wins; at equal density the smaller identifier
              wins).

   Incumbent: at equal density a current cluster-head beats a non-head, and
              ids break the remaining ties. The paper's formula leaves two
              equal-density incumbents incomparable; we complete the order
              with the id rule in that case so that max≺ stays defined
              (documented deviation, required for totality). *)

type tie =
  | Id_only
  | Incumbent_then_id

type key = { value : Density.t; id : int; incumbent : bool }

let key ~value ~id ~incumbent = { value; id; incumbent }

(* The order on raw ints: densities as (links, nodes) with a zero node
   count reading as value 0 (as in Density.compare), so the election
   kernel compares its tables' sentinel encodings without building
   keys. *)
let compare_raw ~tie l1 n1 id1 inc1 l2 n2 id2 inc2 =
  let an = if n1 = 0 then 0 else l1
  and ad = if n1 = 0 then 1 else n1
  and bn = if n2 = 0 then 0 else l2
  and bd = if n2 = 0 then 1 else n2 in
  let c = Int.compare (an * bd) (bn * ad) in
  if c <> 0 then c
  else
    match tie with
    | Id_only -> Int.compare id2 id1
    | Incumbent_then_id ->
        if inc1 && not inc2 then 1
        else if inc2 && not inc1 then -1
        else Int.compare id2 id1

let compare ~tie a b =
  compare_raw ~tie (Density.links a.value) (Density.nodes a.value) a.id
    a.incumbent (Density.links b.value) (Density.nodes b.value) b.id
    b.incumbent

let precedes ~tie a b = compare ~tie a b < 0

let max_key ~tie keys =
  match keys with
  | [] -> None
  | first :: rest ->
      Some
        (List.fold_left
           (fun best k -> if compare ~tie k best > 0 then k else best)
           first rest)

let pp_tie ppf = function
  | Id_only -> Fmt.string ppf "id"
  | Incumbent_then_id -> Fmt.string ppf "incumbent-then-id"

let pp_key ppf k =
  Fmt.pf ppf "{d=%a; id=%d%s}" Density.pp k.value k.id
    (if k.incumbent then "; head" else "")
