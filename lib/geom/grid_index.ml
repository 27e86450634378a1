(* Uniform-cell spatial hash over a bounding box. Cell side >= query radius,
   so a radius query inspects at most the 3x3 block of cells around the
   target — O(1) expected per query under uniform deployments, giving O(n)
   unit-disk graph construction.

   The index additionally tracks each point's current cell so a point set
   under continuous motion can be maintained in place: [move] re-buckets
   exactly one point (O(bucket length)), and a point whose move stays inside
   its cell costs a comparison and nothing else. The [points] array is
   adopted, not copied — callers that mutate positions must call [move]
   afterwards so bucket membership and positions never diverge. *)

type t = {
  box : Bbox.t;
  cell : float;
  cols : int;
  rows : int;
  cells : int list array; (* point indices per cell, most recent first *)
  points : Vec2.t array;
  cell_of_point : int array; (* flat cell index each point is bucketed in *)
}

let clamp v lo hi = if v < lo then lo else if v > hi then hi else v

let cell_x t (p : Vec2.t) =
  clamp (int_of_float ((p.x -. t.box.min_x) /. t.cell)) 0 (t.cols - 1)

let cell_y t (p : Vec2.t) =
  clamp (int_of_float ((p.y -. t.box.min_y) /. t.cell)) 0 (t.rows - 1)

let flat_cell t p = (cell_y t p * t.cols) + cell_x t p

let build ~box ~cell points =
  if cell <= 0.0 then invalid_arg "Grid_index.build: cell must be positive";
  let cols = max 1 (int_of_float (ceil (Bbox.width box /. cell))) in
  let rows = max 1 (int_of_float (ceil (Bbox.height box /. cell))) in
  let t =
    {
      box;
      cell;
      cols;
      rows;
      cells = Array.make (cols * rows) [];
      points;
      cell_of_point = Array.make (Array.length points) 0;
    }
  in
  Array.iteri
    (fun i p ->
      let k = flat_cell t p in
      t.cells.(k) <- i :: t.cells.(k);
      t.cell_of_point.(i) <- k)
    points;
  t

let size t = Array.length t.points

let remove_from_bucket t k i =
  t.cells.(k) <- List.filter (fun j -> j <> i) t.cells.(k)

let move t i =
  if i < 0 || i >= Array.length t.points then
    invalid_arg "Grid_index.move: point out of range";
  let k = flat_cell t t.points.(i) in
  let old = t.cell_of_point.(i) in
  if k <> old then begin
    remove_from_bucket t old i;
    t.cells.(k) <- i :: t.cells.(k);
    t.cell_of_point.(i) <- k
  end

let iter_within t center radius f =
  if radius < 0.0 then invalid_arg "Grid_index.iter_within: negative radius";
  let r2 = radius *. radius in
  let cx = cell_x t center and cy = cell_y t center in
  let reach = max 1 (int_of_float (ceil (radius /. t.cell))) in
  for gy = max 0 (cy - reach) to min (t.rows - 1) (cy + reach) do
    for gx = max 0 (cx - reach) to min (t.cols - 1) (cx + reach) do
      let bucket = t.cells.((gy * t.cols) + gx) in
      List.iter
        (fun i -> if Vec2.dist2 t.points.(i) center <= r2 then f i)
        bucket
    done
  done

let within t center radius =
  let acc = ref [] in
  iter_within t center radius (fun i -> acc := i :: !acc);
  List.sort Int.compare !acc

let neighbors t i radius =
  let center = t.points.(i) in
  let acc = ref [] in
  iter_within t center radius (fun j -> if j <> i then acc := j :: !acc);
  List.sort Int.compare !acc

(* [iter_within] without its per-bucket closure: the buckets are walked
   with a list cursor and the distance is spelled out, so unit-disk
   construction scans every node's 3x3 block without allocating. *)
let neighbors_into t i radius buf =
  if radius < 0.0 then invalid_arg "Grid_index.neighbors_into: negative radius";
  let r2 = radius *. radius in
  let c = t.points.(i) in
  let cx = cell_x t c and cy = cell_y t c in
  let reach = max 1 (int_of_float (ceil (radius /. t.cell))) in
  let len = ref 0 in
  for gy = max 0 (cy - reach) to min (t.rows - 1) (cy + reach) do
    for gx = max 0 (cx - reach) to min (t.cols - 1) (cx + reach) do
      let cursor = ref t.cells.((gy * t.cols) + gx) in
      let more = ref true in
      while !more do
        match !cursor with
        | [] -> more := false
        | j :: rest ->
            let p = t.points.(j) in
            let dx = p.x -. c.x and dy = p.y -. c.y in
            if j <> i && (dx *. dx) +. (dy *. dy) <= r2 then begin
              buf.(!len) <- j;
              incr len
            end;
            cursor := rest
      done
    done
  done;
  !len
