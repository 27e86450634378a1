(* Incremental unit-disk maintenance under continuous motion.

   The maintainer owns a live position buffer and a mutable grid index over
   it. Per update cycle the caller reports exactly the nodes whose position
   changed ([move]), then [flush] re-buckets and re-queries only those
   nodes: an edge (i, j) can change status only when at least one endpoint
   moved, so recomputing the moved nodes' rows — against everyone's current
   position — and patching the partner rows of the edges that flipped
   reproduces the full rebuild exactly. Rows that did not change are
   physically shared with the previous graph (the PR 3 churn-snapshot
   idiom), so a mostly-static fleet pays only for its moving fringe.

   Every graph this module hands out shares the one live position buffer:
   positions read through an old snapshot are the *current* positions.
   Adjacency is immutable per snapshot — only the positions alias. The
   engine only reads positions within the round that produced the snapshot
   (channel plans), so the alias is safe there; anything that needs a
   historical position must copy it out at the time. *)

type t = {
  radius : float;
  pos : Ss_geom.Vec2.t array; (* owned live buffer, aliased by every graph *)
  grid : Ss_geom.Grid_index.t;
  rows : int array array; (* current adjacency; inner rows never mutated *)
  buf : int array; (* work buffer for one node's re-queried row *)
  mutable graph : Graph.t;
  pending : bool array;
  mutable pending_list : int list;
  (* per-flush accumulators for rows changed from the partner side *)
  patch_add : int list array;
  patch_rem : int list array;
  patched : bool array;
  mutable patched_list : int list;
}

type diff = {
  added : (int * int) list;
  removed : (int * int) list;
  moved : int list;
  n_added : int;
  n_removed : int;
}

let empty_diff =
  { added = []; removed = []; moved = []; n_added = 0; n_removed = 0 }

let create ?(box = Ss_geom.Bbox.unit_square) ~radius positions =
  if radius < 0.0 then invalid_arg "Motion.create: negative radius";
  let n = Array.length positions in
  let pos = Array.copy positions in
  (* Enclose all starting points; the index clamps later outliers. *)
  let box = Ss_geom.Bbox.enclose box pos in
  let cell = if radius > 0.0 then radius else 1.0 in
  let grid = Ss_geom.Grid_index.build ~box ~cell pos in
  let buf = Array.make n 0 in
  let rows =
    Array.init n (fun i ->
        Graph.sorted_row buf (Ss_geom.Grid_index.neighbors_into grid i radius buf))
  in
  let graph = Graph.of_sorted_adjacency ~positions:pos (Array.copy rows) in
  {
    radius;
    pos;
    grid;
    rows;
    buf;
    graph;
    pending = Array.make n false;
    pending_list = [];
    patch_add = Array.make n [];
    patch_rem = Array.make n [];
    patched = Array.make n false;
    patched_list = [];
  }

let size t = Array.length t.pos
let radius t = t.radius
let graph t = t.graph
let positions t = t.pos
let position t i = t.pos.(i)

let move t i p =
  if i < 0 || i >= Array.length t.pos then
    invalid_arg "Motion.move: node out of range";
  if not (Ss_geom.Vec2.equal p t.pos.(i)) then begin
    t.pos.(i) <- p;
    Ss_geom.Grid_index.move t.grid i;
    if not t.pending.(i) then begin
      t.pending.(i) <- true;
      t.pending_list <- i :: t.pending_list
    end
  end

let rows_equal (a : int array) (b : int array) =
  let la = Array.length a in
  la = Array.length b
  &&
  let rec go k = k >= la || (a.(k) = b.(k) && go (k + 1)) in
  go 0

let norm p q = if p < q then (p, q) else (q, p)

let compare_links (p1, q1) (p2, q2) =
  match Int.compare p1 p2 with 0 -> Int.compare q1 q2 | c -> c

(* Remove [rem] from and merge [add] into a sorted row; both patch lists are
   sorted ascending and disjoint from each other by construction (an edge
   flips at most once per flush). *)
let apply_patches row rem add =
  let keep = Array.length row - List.length rem + List.length add in
  let out = Array.make (max keep 1) 0 in
  let k = ref 0 in
  let add = ref add in
  let rem = ref rem in
  Array.iter
    (fun q ->
      (* Emit pending additions smaller than q first. *)
      let rec drain () =
        match !add with
        | a :: tl when a < q ->
            out.(!k) <- a;
            incr k;
            add := tl;
            drain ()
        | _ -> ()
      in
      drain ();
      match !rem with
      | r :: tl when r = q -> rem := tl
      | _ ->
          out.(!k) <- q;
          incr k)
    row;
  List.iter
    (fun a ->
      out.(!k) <- a;
      incr k)
    !add;
  if !k = keep then Array.sub out 0 keep else Array.sub out 0 !k

let flush t =
  match t.pending_list with
  | [] -> empty_diff
  | pending ->
      let moved = List.sort Int.compare pending in
      let added = ref [] in
      let removed = ref [] in
      let any_row_changed = ref false in
      let touch_partner arr j i =
        arr.(j) <- i :: arr.(j);
        if not t.patched.(j) then begin
          t.patched.(j) <- true;
          t.patched_list <- j :: t.patched_list
        end
      in
      (* An edge between two moved nodes flips identically as seen from
         either endpoint; record it from the smaller one only. An edge to
         an unmoved partner is recorded here and patched into the partner's
         row below. *)
      let note_removed i j =
        if t.pending.(j) then begin
          if i < j then removed := (i, j) :: !removed
        end
        else begin
          removed := norm i j :: !removed;
          touch_partner t.patch_rem j i
        end
      in
      let note_added i j =
        if t.pending.(j) then begin
          if i < j then added := (i, j) :: !added
        end
        else begin
          added := norm i j :: !added;
          touch_partner t.patch_add j i
        end
      in
      List.iter
        (fun i ->
          let fresh =
            Graph.sorted_row t.buf
              (Ss_geom.Grid_index.neighbors_into t.grid i t.radius t.buf)
          in
          let old = t.rows.(i) in
          if not (rows_equal old fresh) then begin
            any_row_changed := true;
            (* Merge-walk the two sorted rows for the symmetric difference. *)
            let lo = Array.length old and lf = Array.length fresh in
            let a = ref 0 and b = ref 0 in
            while !a < lo || !b < lf do
              if !a >= lo then begin
                note_added i fresh.(!b);
                incr b
              end
              else if !b >= lf then begin
                note_removed i old.(!a);
                incr a
              end
              else if old.(!a) = fresh.(!b) then begin
                incr a;
                incr b
              end
              else if old.(!a) < fresh.(!b) then begin
                note_removed i old.(!a);
                incr a
              end
              else begin
                note_added i fresh.(!b);
                incr b
              end
            done;
            t.rows.(i) <- fresh
          end)
        moved;
      List.iter
        (fun j ->
          let rem = List.sort Int.compare t.patch_rem.(j) in
          let add = List.sort Int.compare t.patch_add.(j) in
          t.rows.(j) <- apply_patches t.rows.(j) rem add;
          t.patch_rem.(j) <- [];
          t.patch_add.(j) <- [];
          t.patched.(j) <- false)
        t.patched_list;
      t.patched_list <- [];
      List.iter (fun i -> t.pending.(i) <- false) pending;
      t.pending_list <- [];
      if !any_row_changed then
        t.graph <-
          Graph.of_sorted_adjacency ~positions:t.pos (Array.copy t.rows);
      (* Counts ride along in the record: every consumer needs "did any
         edge flip" (and most want the magnitude), and the producer just
         walked the lists — recomputing the lengths downstream would be a
         second O(diff) pass per round. *)
      let added = List.sort_uniq compare_links !added in
      let removed = List.sort_uniq compare_links !removed in
      {
        added;
        removed;
        moved;
        n_added = List.length added;
        n_removed = List.length removed;
      }

let pp ppf t =
  Fmt.pf ppf "motion(%d nodes, r=%.4f, %d edges)" (size t) t.radius
    (Graph.edge_count t.graph)
