type t = { min_x : float; min_y : float; max_x : float; max_y : float }

let make ~min_x ~min_y ~max_x ~max_y =
  if min_x > max_x || min_y > max_y then invalid_arg "Bbox.make: inverted box";
  { min_x; min_y; max_x; max_y }

let unit_square = { min_x = 0.0; min_y = 0.0; max_x = 1.0; max_y = 1.0 }

let width t = t.max_x -. t.min_x
let height t = t.max_y -. t.min_y
let area t = width t *. height t

let contains t (p : Vec2.t) =
  p.x >= t.min_x && p.x <= t.max_x && p.y >= t.min_y && p.y <= t.max_y

let enclose t (points : Vec2.t array) =
  let min_x = ref t.min_x and min_y = ref t.min_y in
  let max_x = ref t.max_x and max_y = ref t.max_y in
  for i = 0 to Array.length points - 1 do
    let p = points.(i) in
    min_x := Float.min !min_x p.x;
    min_y := Float.min !min_y p.y;
    max_x := Float.max !max_x p.x;
    max_y := Float.max !max_y p.y
  done;
  { min_x = !min_x; min_y = !min_y; max_x = !max_x; max_y = !max_y }

let clamp t (p : Vec2.t) =
  Vec2.v (Float.min t.max_x (Float.max t.min_x p.x)) (Float.min t.max_y (Float.max t.min_y p.y))

(* Reflect a point (and its heading) back into the box: used by mobility
   models with billiard boundaries. Repeats until inside, which handles
   excursions larger than one box width. *)
let reflect t (p : Vec2.t) =
  let reflect_axis lo hi v =
    let span = hi -. lo in
    if span <= 0.0 then (lo, 1.0)
    else
      let rec fix v flip =
        if v < lo then fix (lo +. (lo -. v)) (-.flip)
        else if v > hi then fix (hi -. (v -. hi)) (-.flip)
        else (v, flip)
      in
      fix v 1.0
  in
  let x, fx = reflect_axis t.min_x t.max_x p.x in
  let y, fy = reflect_axis t.min_y t.max_y p.y in
  (Vec2.v x y, Vec2.v fx fy)

let sample rng t =
  Vec2.v
    (Ss_prng.Rng.float_in_range rng ~lo:t.min_x ~hi:t.max_x)
    (Ss_prng.Rng.float_in_range rng ~lo:t.min_y ~hi:t.max_y)

let pp ppf t =
  Fmt.pf ppf "[%.3f,%.3f]x[%.3f,%.3f]" t.min_x t.max_x t.min_y t.max_y
