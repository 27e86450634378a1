(* Medians, quartiles and the regression verdicts of [run.exe compare]. *)

let sorted values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  a

(* Quartiles as Python's [statistics.quantiles(values, n=4)] gives them
   (the default "exclusive" method), so this benchmark's spreads are the
   ones any reader recomputes from the raw values. With one value all
   three are that value. *)
let quartiles values =
  let d = sorted values in
  let len = Array.length d in
  if len = 0 then invalid_arg "Stats.quartiles: no values"
  else if len = 1 then (d.(0), d.(0), d.(0))
  else
    let m = len + 1 in
    let q i =
      let j = max 1 (min (len - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

let median values =
  let d = sorted values in
  let len = Array.length d in
  if len = 0 then invalid_arg "Stats.median: no values"
  else if len mod 2 = 1 then d.(len / 2)
  else (d.((len / 2) - 1) +. d.(len / 2)) /. 2.0

(* Nearest-rank percentile, [q] in [0, 1]; 0 for a layer that never ran. *)
let percentile values q =
  if values = [] then 0.0
  else Ss_stats.Estimate.quantile_lb (Ss_stats.Estimate.of_values values) q

(* Interquartile distance as a share of the median. *)
let spread values =
  let q1, med, q3 = quartiles values in
  if med = 0.0 then if q3 = q1 then 0.0 else infinity
  else (q3 -. q1) /. Float.abs med

type verdict = Better | Worse | Unchanged | Unresolved

let verdict_label = function
  | Better -> "better"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

(* [judge ~lower_better ~bound a b]: runs [a] of the parent, [b] of the
   change, one value per run, paired by position.

   - Worse: b's median is worse than a's by more than [bound] (a share
     of a's median). With [bound = 0] (failure ratios), any worsening
     of the median or of the worst run.
   - Better: b wins at least nine tenths of the pairs and the medians
     differ by more than a's own interquartile distance.
   - Unresolved: a's or b's spread exceeds the bound and the two sets
     overlap (neither side's every run beats every run of the other).
   - Unchanged otherwise. *)
let judge ~lower_better ~bound a b =
  let ma = median a and mb = median b in
  let worse_by x y = if lower_better then x -. y else y -. x in
  let all_better =
    List.for_all (fun y -> List.for_all (fun x -> worse_by x y > 0.0) a) b
  in
  let all_worse =
    List.for_all (fun y -> List.for_all (fun x -> worse_by y x > 0.0) a) b
  in
  let q1a, _, q3a = quartiles a in
  let scale = Float.abs ma in
  let rec zip a b =
    match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> []
  in
  let pairs = zip a b in
  let wins = List.length (List.filter (fun (x, y) -> worse_by x y > 0.0) pairs) in
  let clear_gain =
    10 * wins >= 9 * List.length pairs && worse_by ma mb > q3a -. q1a
  in
  let worst l =
    List.fold_left (fun w x -> if worse_by x w > 0.0 then x else w) (List.hd l) l
  in
  let regression =
    worse_by mb ma > bound *. scale
    || (bound = 0.0 && worse_by (worst b) (worst a) > 0.0)
  in
  let noisy = bound > 0.0 && (spread a > bound || spread b > bound) in
  if noisy && not (all_better || all_worse) then Unresolved
  else if regression then Worse
  else if clear_gain || (noisy && all_better) then Better
  else Unchanged
