(* Censored empirical distributions with keyed-bootstrap interval
   estimates. Everything is computed on the bound completion (censored
   observations at their recorded lower bounds): exact without censoring,
   a lower bound with it. [quantile] additionally decides when an order
   statistic is completion-invariant, which is the honest line between "we
   measured this quantile" and "we only bounded it".

   Randomness discipline: the bootstrap draws exclusively through the
   counter-keyed Rng helpers — resample [b]'s draw [i] is a pure function
   of (key, b, i) — so intervals are bit-identical for any evaluation
   order or domain count (./check lints this file for sequential draws). *)

module Rng = Ss_prng.Rng

type obs = { value : float; censored : bool }

let exact value = { value; censored = false }
let censored value = { value; censored = true }

type t = {
  sorted : obs array;
      (* ascending by value; on ties exact observations precede censored
         ones, so the prefix before the first censored entry is exactly
         the set of provably-smallest order statistics *)
  n_censored : int;
}

let cmp_obs a b =
  let c = Float.compare a.value b.value in
  if c <> 0 then c else Bool.compare a.censored b.censored

let of_obs l =
  let sorted = Array.of_list l in
  Array.sort cmp_obs sorted;
  let n_censored =
    Array.fold_left (fun acc o -> if o.censored then acc + 1 else acc) 0 sorted
  in
  { sorted; n_censored }

let of_values l = of_obs (List.map exact l)

let count t = Array.length t.sorted
let censored_count t = t.n_censored
let values t = Array.map (fun o -> o.value) t.sorted

let minimum t = if count t = 0 then Float.nan else t.sorted.(0).value
let maximum t =
  let n = count t in
  if n = 0 then Float.nan else t.sorted.(n - 1).value

let mean_lb t =
  let n = count t in
  if n = 0 then Float.nan
  else begin
    let sum = Array.fold_left (fun acc o -> acc +. o.value) 0.0 t.sorted in
    sum /. float_of_int n
  end

let mean_exact t =
  if count t = 0 || t.n_censored > 0 then None else Some (mean_lb t)

let check_level q =
  if not (q >= 0.0 && q <= 1.0) then
    invalid_arg "Estimate.quantile: level outside [0, 1]"

(* Nearest-rank index for quantile q over n samples: the (ceil (q n))-th
   order statistic, 0-based; q = 0 reads the minimum. *)
let rank_index ~n q =
  let r = int_of_float (Float.ceil (q *. float_of_int n)) in
  let r = if r < 1 then 1 else if r > n then n else r in
  r - 1

let quantile_lb t q =
  check_level q;
  let n = count t in
  if n = 0 then Float.nan else t.sorted.(rank_index ~n q).value

(* The order statistic is completion-invariant iff pushing every censored
   value to +inf leaves it unchanged. Censored values can only move right
   (they are lower bounds), and the order statistic is monotone in each
   sample, so its value over all completions sweeps exactly the interval
   [bound completion, +inf completion]: equality of the endpoints decides
   determinedness. Under the +inf completion the index must land on an
   exact observation of the same value. *)
let quantile t q =
  let n = count t in
  if n = 0 then (ignore (rank_index ~n:1 q); None)
  else begin
    let idx = rank_index ~n q in
    let lb = t.sorted.(idx).value in
    (* exact observations, in order, are the first n - n_censored values of
       the +inf completion *)
    let n_exact = n - t.n_censored in
    if idx >= n_exact then None
    else begin
      (* the idx-th exact observation *)
      let seen = ref (-1) and v = ref Float.nan in
      (try
         Array.iter
           (fun o ->
             if not o.censored then begin
               incr seen;
               if !seen = idx then begin
                 v := o.value;
                 raise Exit
               end
             end)
           t.sorted
       with Exit -> ());
      if !v = lb then Some lb else None
    end
  end

type ci = { point : float; lo : float; hi : float }

let nan_ci = { point = Float.nan; lo = Float.nan; hi = Float.nan }

(* Percentile bootstrap over a statistic of the bound completion. The
   resampled statistic receives a scratch array of drawn values (unsorted);
   it must not retain it. *)
let confidence = 0.95

let bootstrap ~key ~reps ~point ~stat t =
  let n = count t in
  if n = 0 then nan_ci
  else if n = 1 then
    let v = t.sorted.(0).value in
    { point = v; lo = v; hi = v }
  else begin
    if reps < 1 then invalid_arg "Estimate.bootstrap: reps < 1";
    let stats = Array.make reps 0.0 in
    let scratch = Array.make n 0.0 in
    for b = 0 to reps - 1 do
      let bkey = Rng.subkey key b in
      for i = 0 to n - 1 do
        scratch.(i) <- t.sorted.(Rng.key_int (Rng.subkey bkey i) n).value
      done;
      stats.(b) <- stat scratch
    done;
    Array.sort Float.compare stats;
    let alpha = (1.0 -. confidence) /. 2.0 in
    let lo = stats.(rank_index ~n:reps alpha) in
    let hi = stats.(rank_index ~n:reps (1.0 -. alpha)) in
    { point; lo; hi }
  end

let mean_of a =
  Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let bootstrap_mean ~key ?(reps = 1000) t =
  bootstrap ~key ~reps ~point:(mean_lb t) ~stat:mean_of t

let bootstrap_quantile ~key ?(reps = 1000) ~q t =
  let stat a =
    Array.sort Float.compare a;
    a.(rank_index ~n:(Array.length a) q)
  in
  bootstrap ~key ~reps ~point:(quantile_lb t q) ~stat t

(* Two-sample sweeps over the merged sorted completions. *)

let ks_statistic a b =
  let na = count a and nb = count b in
  if na = 0 || nb = 0 then Float.nan
  else begin
    let fa = 1.0 /. float_of_int na and fb = 1.0 /. float_of_int nb in
    let ia = ref 0 and ib = ref 0 in
    let ca = ref 0.0 and cb = ref 0.0 in
    let d = ref 0.0 in
    while !ia < na || !ib < nb do
      (* advance whichever side holds the smallest next value, consuming
         every observation equal to it on both sides before comparing the
         ECDFs (the KS statistic is evaluated between jump points) *)
      let v =
        if !ia >= na then b.sorted.(!ib).value
        else if !ib >= nb then a.sorted.(!ia).value
        else Float.min a.sorted.(!ia).value b.sorted.(!ib).value
      in
      while !ia < na && a.sorted.(!ia).value = v do
        ca := !ca +. fa;
        incr ia
      done;
      while !ib < nb && b.sorted.(!ib).value = v do
        cb := !cb +. fb;
        incr ib
      done;
      let gap = Float.abs (!ca -. !cb) in
      if gap > !d then d := gap
    done;
    !d
  end

let ks_pvalue a b =
  let na = count a and nb = count b in
  if na = 0 || nb = 0 then Float.nan
  else begin
    let d = ks_statistic a b in
    let en =
      let na = float_of_int na and nb = float_of_int nb in
      Float.sqrt (na *. nb /. (na +. nb))
    in
    let lambda = (en +. 0.12 +. (0.11 /. en)) *. d in
    if lambda <= 0.0 then 1.0
    else begin
      let sum = ref 0.0 in
      for k = 1 to 100 do
        let sign = if k land 1 = 1 then 1.0 else -1.0 in
        let kf = float_of_int k in
        sum := !sum +. (sign *. Float.exp (-2.0 *. kf *. kf *. lambda *. lambda))
      done;
      Float.max 0.0 (Float.min 1.0 (2.0 *. !sum))
    end
  end

let superiority a b =
  let na = count a and nb = count b in
  if na = 0 || nb = 0 then Float.nan
  else begin
    (* merge walk: for each a-value, count b-values strictly below and
       equal — O(na + nb) on the two sorted arrays *)
    let wins = ref 0.0 in
    let ib = ref 0 in
    Array.iter
      (fun oa ->
        while !ib < nb && b.sorted.(!ib).value < oa.value do
          incr ib
        done;
        let t = ref !ib in
        while !t < nb && b.sorted.(!t).value = oa.value do
          incr t
        done;
        wins := !wins +. float_of_int !ib +. (0.5 *. float_of_int (!t - !ib)))
      a.sorted;
    !wins /. float_of_int (na * nb)
  end

let overlap x y = x.lo <= y.hi && y.lo <= x.hi
