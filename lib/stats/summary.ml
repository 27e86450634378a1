(* Streaming summary statistics (Welford's online algorithm for mean and
   variance) used to aggregate per-run measurements across seeds. *)

type t = {
  mutable count : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min : float;
  mutable max : float;
}

let create () =
  { count = 0; mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity }

let add t x =
  t.count <- t.count + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.count);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x

let add_int t x = add t (float_of_int x)

let of_list xs =
  let t = create () in
  List.iter (add t) xs;
  t

let count t = t.count
let mean t = if t.count = 0 then nan else t.mean
let minimum t = if t.count = 0 then nan else t.min
let maximum t = if t.count = 0 then nan else t.max

let variance t =
  if t.count < 2 then 0.0 else t.m2 /. float_of_int (t.count - 1)

let stddev t = sqrt (variance t)

let stderr_of_mean t =
  if t.count = 0 then nan else stddev t /. sqrt (float_of_int t.count)

(* Half-width of an approximate 95% confidence interval on the mean
   (normal approximation; fine for the run counts used here). *)
let ci95 t = 1.96 *. stderr_of_mean t

let merge a b =
  if a.count = 0 then { b with count = b.count }
  else if b.count = 0 then { a with count = a.count }
  else begin
    let count = a.count + b.count in
    let fa = float_of_int a.count and fb = float_of_int b.count in
    let delta = b.mean -. a.mean in
    let mean = a.mean +. (delta *. fb /. float_of_int count) in
    let m2 = a.m2 +. b.m2 +. (delta *. delta *. fa *. fb /. float_of_int count) in
    {
      count;
      mean;
      m2;
      min = Float.min a.min b.min;
      max = Float.max a.max b.max;
    }
  end

let pp ppf t =
  Fmt.pf ppf "%.3f ± %.3f (n=%d, min=%.3f, max=%.3f)" (mean t) (ci95 t)
    t.count (minimum t) (maximum t)
