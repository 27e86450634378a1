(* String-keyed tally, used for per-event-type accounting in churn
   experiments. Small key sets; an assoc-style hashtable is plenty. *)

type t = (string, int) Hashtbl.t

let create () = Hashtbl.create 8

let count t key = Option.value ~default:0 (Hashtbl.find_opt t key)
let add t key by = Hashtbl.replace t key (by + count t key)
let incr t key = add t key 1

let total t = Hashtbl.fold (fun _ v acc -> acc + v) t 0

let to_list t =
  (* Keys are unique in the table, so ordering by key alone is total. *)
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t [])

let merge a b =
  let out = Hashtbl.copy a in
  Hashtbl.iter (fun k v -> add out k v) b;
  out

let pp ppf t =
  Fmt.pf ppf "{%a}"
    Fmt.(list ~sep:comma (pair ~sep:(any "=") string int))
    (to_list t)
