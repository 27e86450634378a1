(* Liveness mask + link down-set over an immutable base graph. Events are
   O(degree) — they mark the adjacency rows they touch as dirty — and
   [snapshot] patches exactly those rows of the previous snapshot instead
   of rebuilding the whole graph, so a churn burst costs the degrees of the
   nodes it touched, not O((n + m) log) per round. Runs without churn never
   pay anything: the snapshot is the base graph while pristine. *)

type status = Alive | Crashed | Asleep

type t = {
  mutable base : Graph.t; (* replaced by [rebase] as motion rewires links *)
  status : status array;
  down : (int * int, unit) Hashtbl.t; (* keyed (p, q) with p < q *)
  mutable cache : Graph.t; (* last materialized snapshot *)
  row_dirty : bool array; (* rows of [cache] stale since the last snapshot *)
  mutable dirty_rows : int list; (* the marked rows, each exactly once *)
  reuse : bool; (* patch one owned snapshot in place instead of copying *)
  mutable owned : int array array option;
      (* [reuse] only: the private row backing of [cache], created at the
         first divergence from the base and patched in place forever after —
         [snapshot] then costs O(touched degrees) with no O(n) row-pointer
         copy per flipped round. *)
}

let create ?(reuse_snapshots = false) base =
  {
    base;
    status = Array.make (Graph.node_count base) Alive;
    down = Hashtbl.create 16;
    cache = base;
    row_dirty = Array.make (Graph.node_count base) false;
    dirty_rows = [];
    reuse = reuse_snapshots;
    owned = None;
  }

let base t = t.base

let node_count t = Graph.node_count t.base

let check_node t p =
  if p < 0 || p >= node_count t then invalid_arg "Dynamic: node out of range"

let status t p =
  check_node t p;
  t.status.(p)

let is_alive t p =
  check_node t p;
  t.status.(p) = Alive

let alive_count t =
  Array.fold_left (fun acc s -> if s = Alive then acc + 1 else acc) 0 t.status

let nodes_with t wanted =
  let acc = ref [] in
  for p = node_count t - 1 downto 0 do
    if t.status.(p) = wanted then acc := p :: !acc
  done;
  !acc

let mark_row t p =
  if not t.row_dirty.(p) then begin
    t.row_dirty.(p) <- true;
    t.dirty_rows <- p :: t.dirty_rows
  end

(* A node status change affects its own row and every base neighbor's. *)
let mark_node t p =
  mark_row t p;
  Array.iter (fun q -> mark_row t q) (Graph.neighbors t.base p)

let transition t p ~from ~into =
  check_node t p;
  if List.mem t.status.(p) from then begin
    t.status.(p) <- into;
    mark_node t p;
    true
  end
  else false

let crash t p = transition t p ~from:[ Alive; Asleep ] ~into:Crashed

let join t p = transition t p ~from:[ Crashed ] ~into:Alive

let sleep t p = transition t p ~from:[ Alive ] ~into:Asleep

let wake t p = transition t p ~from:[ Asleep ] ~into:Alive

let norm p q = if p < q then (p, q) else (q, p)

let check_edge t p q =
  check_node t p;
  check_node t q;
  if not (Graph.mem_edge t.base p q) then
    invalid_arg "Dynamic: not a link of the base graph"

let link_down t p q =
  check_edge t p q;
  let key = norm p q in
  if Hashtbl.mem t.down key then false
  else begin
    Hashtbl.replace t.down key ();
    mark_row t p;
    mark_row t q;
    true
  end

let link_up t p q =
  check_edge t p q;
  let key = norm p q in
  if Hashtbl.mem t.down key then begin
    Hashtbl.remove t.down key;
    mark_row t p;
    mark_row t q;
    true
  end
  else false

let is_link_down t p q =
  check_node t p;
  check_node t q;
  Hashtbl.mem t.down (norm p q)

let down_count t = Hashtbl.length t.down

let compare_links (p1, q1) (p2, q2) =
  match Int.compare p1 p2 with 0 -> Int.compare q1 q2 | c -> c

let down_list t =
  List.sort compare_links (Hashtbl.fold (fun e () acc -> e :: acc) t.down [])

let rebase t ~base ~added ~removed =
  if Graph.node_count base <> node_count t then
    invalid_arg "Dynamic.rebase: node count mismatch";
  t.base <- base;
  (* In reuse mode the cached snapshot record was built with the positions
     of an earlier base; re-wrap the owned rows so the snapshot always
     carries the current base's position buffer (O(1): the rows are
     adopted by reference, and under motion the buffer is live-aliased so
     this usually re-wraps the same array). *)
  (match t.owned with
  | Some rows ->
      t.cache <- Graph.of_sorted_adjacency ?positions:(Graph.positions base) rows
  | None -> ());
  (* A down-mark on a link that left the base graph is dropped: if motion
     later brings the pair back in range, the fresh link starts up. Only
     the diff endpoints' rows can differ between the old and new base, so
     dirtying exactly those keeps the cached snapshot patchable. *)
  List.iter
    (fun (p, q) ->
      Hashtbl.remove t.down (norm p q);
      mark_row t p;
      mark_row t q)
    removed;
  List.iter
    (fun (p, q) ->
      mark_row t p;
      mark_row t q)
    added

let pristine t =
  Hashtbl.length t.down = 0 && Array.for_all (fun s -> s = Alive) t.status

let materialize t =
  if pristine t then t.base
  else
    let adj =
      Array.init (node_count t) (fun p ->
          if t.status.(p) <> Alive then []
          else
            Array.fold_right
              (fun q acc ->
                if t.status.(q) = Alive && not (Hashtbl.mem t.down (norm p q))
                then q :: acc
                else acc)
              (Graph.neighbors t.base p) [])
    in
    Graph.of_adjacency ?positions:(Graph.positions t.base) adj

(* The effective row of [p]: the base row filtered by liveness and link
   status. Filtering a sorted array keeps it sorted, so the result needs
   no re-sort and is bit-identical to what [materialize] computes. *)
let rebuild_row t p =
  if t.status.(p) <> Alive then [||]
  else begin
    let nbrs = Graph.neighbors t.base p in
    let len = Array.length nbrs in
    let buf = Array.make (max len 1) 0 in
    let k = ref 0 in
    for i = 0 to len - 1 do
      let q = nbrs.(i) in
      if t.status.(q) = Alive && not (Hashtbl.mem t.down (norm p q)) then begin
        buf.(!k) <- q;
        incr k
      end
    done;
    if !k = len then nbrs (* untouched: share the base row *)
    else Array.sub buf 0 !k
  end

let snapshot t =
  (match t.dirty_rows with
  | [] -> ()
  | dirty ->
      (match t.owned with
      | Some rows ->
          (* Reuse mode, already diverged: [cache] wraps [rows], so
             patching the touched rows in place is the whole update — no
             fresh graph record, no O(n) row-pointer copy. The returned
             graph is the same mutable object every round (see the .mli
             contract). *)
          List.iter (fun p -> rows.(p) <- rebuild_row t p) dirty
      | None ->
          if pristine t then t.cache <- t.base
          else begin
            let n = node_count t in
            let rows = Array.init n (fun p -> Graph.neighbors t.cache p) in
            List.iter (fun p -> rows.(p) <- rebuild_row t p) dirty;
            if t.reuse then t.owned <- Some rows;
            t.cache <-
              Graph.of_sorted_adjacency ?positions:(Graph.positions t.base) rows
          end);
      List.iter (fun p -> t.row_dirty.(p) <- false) dirty;
      t.dirty_rows <- []);
  t.cache

let pp ppf t =
  Fmt.pf ppf "dynamic(%a, alive=%d/%d, down_links=%d)" Graph.pp t.base
    (alive_count t) (node_count t) (Hashtbl.length t.down)
