module Rng = Ss_prng.Rng
module Splitmix64 = Ss_prng.Splitmix64

let test_determinism () =
  let a = Rng.create ~seed:123 and b = Rng.create ~seed:123 in
  for _ = 1 to 100 do
    Alcotest.(check (float 0.0)) "same stream" (Rng.unit a) (Rng.unit b)
  done

let test_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Float.equal (Rng.unit a) (Rng.unit b) then incr same
  done;
  Alcotest.(check bool) "different seeds diverge" true (!same < 4)

let test_split_independence () =
  (* A child stream must not simply replay the parent's. *)
  let parent = Rng.create ~seed:7 in
  let child = Rng.split parent in
  let child_values = Array.init 32 (fun _ -> Rng.unit child) in
  let parent_values = Array.init 32 (fun _ -> Rng.unit parent) in
  Alcotest.(check bool) "streams differ" true (child_values <> parent_values)

let test_copy_replays () =
  let a = Rng.create ~seed:11 in
  ignore (Rng.unit a);
  let b = Rng.copy a in
  Alcotest.(check (float 0.0)) "copy replays" (Rng.unit a) (Rng.unit b)

let test_unit_range () =
  let rng = Rng.create ~seed:5 in
  for _ = 1 to 10_000 do
    let v = Rng.unit rng in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_int_bounds () =
  let rng = Rng.create ~seed:5 in
  for bound = 1 to 40 do
    for _ = 1 to 200 do
      let v = Rng.int rng bound in
      Alcotest.(check bool) "in range" true (v >= 0 && v < bound)
    done
  done

let test_int_uniformity () =
  let rng = Rng.create ~seed:5 in
  let counts = Array.make 10 0 in
  let draws = 100_000 in
  for _ = 1 to draws do
    let v = Rng.int rng 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = float_of_int draws /. 10.0 in
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d within 5%%" i)
        true
        (Float.abs (float_of_int c -. expected) < expected *. 0.05))
    counts

let test_int_in_range () =
  let rng = Rng.create ~seed:9 in
  for _ = 1 to 1000 do
    let v = Rng.int_in_range rng ~lo:(-5) ~hi:5 in
    Alcotest.(check bool) "in [-5,5]" true (v >= -5 && v <= 5)
  done

let test_invalid_args () =
  let rng = Rng.create ~seed:0 in
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0));
  Alcotest.check_raises "empty range"
    (Invalid_argument "Rng.int_in_range: empty range") (fun () ->
      ignore (Rng.int_in_range rng ~lo:3 ~hi:2));
  Alcotest.check_raises "negative float"
    (Invalid_argument "Rng.float: negative bound") (fun () ->
      ignore (Rng.float rng (-1.0)));
  Alcotest.check_raises "pick empty" (Invalid_argument "Rng.pick: empty array")
    (fun () -> ignore (Rng.pick rng [||]))

let test_bernoulli_extremes () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never" false (Rng.bernoulli rng 0.0);
    Alcotest.(check bool) "p=1 always" true (Rng.bernoulli rng 1.0)
  done

let test_bernoulli_rate () =
  let rng = Rng.create ~seed:3 in
  let hits = ref 0 in
  let draws = 50_000 in
  for _ = 1 to draws do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int draws in
  Alcotest.(check bool) "rate near 0.3" true (Float.abs (rate -. 0.3) < 0.02)

let test_poisson_mean_small () =
  let rng = Rng.create ~seed:17 in
  let total = ref 0 in
  let draws = 20_000 in
  for _ = 1 to draws do
    total := !total + Rng.poisson rng ~mean:3.5
  done;
  let mean = float_of_int !total /. float_of_int draws in
  Alcotest.(check bool) "mean near 3.5" true (Float.abs (mean -. 3.5) < 0.1)

let test_poisson_mean_large () =
  (* Exercises the recursive splitting path for means >= 30. *)
  let rng = Rng.create ~seed:17 in
  let total = ref 0 in
  let draws = 2_000 in
  for _ = 1 to draws do
    total := !total + Rng.poisson rng ~mean:1000.0
  done;
  let mean = float_of_int !total /. float_of_int draws in
  Alcotest.(check bool) "mean near 1000" true (Float.abs (mean -. 1000.0) < 5.0)

let test_poisson_zero () =
  let rng = Rng.create ~seed:17 in
  Alcotest.(check int) "mean 0 gives 0" 0 (Rng.poisson rng ~mean:0.0)

let test_exponential_mean () =
  let rng = Rng.create ~seed:23 in
  let total = ref 0.0 in
  let draws = 50_000 in
  for _ = 1 to draws do
    let v = Rng.exponential rng ~rate:2.0 in
    Alcotest.(check bool) "non-negative" true (v >= 0.0);
    total := !total +. v
  done;
  let mean = float_of_int draws |> ( /. ) !total in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.02)

let test_gaussian_moments () =
  let rng = Rng.create ~seed:29 in
  let n = 50_000 in
  let sum = ref 0.0 and sum2 = ref 0.0 in
  for _ = 1 to n do
    let v = Rng.gaussian rng in
    sum := !sum +. v;
    sum2 := !sum2 +. (v *. v)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sum2 /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean near 0" true (Float.abs mean < 0.03);
  Alcotest.(check bool) "variance near 1" true (Float.abs (var -. 1.0) < 0.05)

let test_permutation_is_permutation () =
  let rng = Rng.create ~seed:31 in
  for n = 0 to 20 do
    let p = Rng.permutation rng n in
    let sorted = Array.copy p in
    Array.sort Int.compare sorted;
    Alcotest.(check bool)
      (Printf.sprintf "permutation of size %d" n)
      true
      (sorted = Array.init n Fun.id)
  done

let test_shuffle_preserves_multiset () =
  let rng = Rng.create ~seed:37 in
  let arr = [| 1; 1; 2; 3; 5; 8; 13 |] in
  let copy = Array.copy arr in
  Rng.shuffle_in_place rng copy;
  Array.sort Int.compare copy;
  let sorted = Array.copy arr in
  Array.sort Int.compare sorted;
  Alcotest.(check bool) "same multiset" true (copy = sorted)

let test_split_n () =
  let rng = Rng.create ~seed:41 in
  let children = Rng.split_n rng 5 in
  Alcotest.(check int) "five children" 5 (Array.length children);
  (* All children produce distinct first draws with overwhelming
     probability. *)
  let firsts = Array.map (fun c -> Rng.unit c) children in
  let distinct =
    Array.for_all
      (fun v -> Array.length (Array.of_list (List.filter (Float.equal v) (Array.to_list firsts))) = 1)
      firsts
  in
  Alcotest.(check bool) "children distinct" true distinct

let test_split_n_prefixes_disjoint () =
  (* Pairwise non-overlap: across k sibling streams, no draw in any
     64-value prefix repeats anywhere in any other sibling's prefix. A
     collision of two 53-bit uniform draws has probability ~2^-35 over
     this whole table, so any hit means the streams share state. *)
  let parent = Rng.create ~seed:2025 in
  let children = Rng.split_n parent 8 in
  let prefixes =
    Array.map (fun c -> Array.init 64 (fun _ -> Rng.unit c)) children
  in
  let seen = Hashtbl.create 512 in
  Array.iteri
    (fun child prefix ->
      Array.iter
        (fun v ->
          (match Hashtbl.find_opt seen v with
          | Some other when other <> child ->
              Alcotest.failf "draw %.17g appears in streams %d and %d" v other
                child
          | _ -> ());
          Hashtbl.replace seen v child)
        prefix)
    prefixes

let test_mix64_avalanche () =
  (* Flipping one input bit should flip roughly half the output bits. *)
  let a = Splitmix64.of_int 999 and b = Splitmix64.of_int 999 in
  let x = Splitmix64.next_int64 a in
  ignore (Splitmix64.next_int64 b);
  let y = Splitmix64.next_int64 a and z = Splitmix64.next_int64 b in
  Alcotest.(check bool) "replays equal" true (Int64.equal y z);
  ignore x

(* The one-function per-edge draw equals the composed keyed helpers
   draw for draw, over random keys, negative and large indices, and
   probabilities at and inside the edges of [0, 1]. *)
let test_key_pair_bernoulli () =
  let g = Rng.create ~seed:77 in
  let ps = [| -0.5; 0.0; 1e-9; 0.1; 0.5; 0.9; 0.999999; 1.0; 2.0 |] in
  for i = 0 to 19_999 do
    let k = Rng.key_of g in
    let a = Rng.int g 2_000_000 - 1 and b = Rng.int g 2_000_000 - 1 in
    let a = if i mod 7 = 0 then max_int - a else a in
    let p = if i mod 3 = 0 then ps.(i mod Array.length ps) else Rng.unit g in
    let want = Rng.key_bernoulli (Rng.subkey (Rng.subkey k a) b) p in
    if Rng.key_pair_bernoulli k a b p <> want then
      Alcotest.failf "key_pair_bernoulli differs at draw %d (a=%d b=%d p=%g)"
        i a b p
  done

(* The int-returning helpers equal the composed keyed helpers draw for
   draw: scaled by 2^-53 the bits are [key_unit]'s uniform, and the
   triple derivation is three [subkey]s, over random keys and negative
   and large indices. *)
let test_key_bits () =
  let g = Rng.create ~seed:78 in
  let scale bits = float_of_int bits *. (1.0 /. 9007199254740992.0) in
  for i = 0 to 19_999 do
    let k = Rng.key_of g in
    let idx () =
      let v = Rng.int g 2_000_000 - 1 in
      if i mod 7 = 0 then max_int - v else v
    in
    let a = idx () and b = idx () and c = idx () in
    let sub = Rng.subkey k a in
    if scale (Rng.key_sub_bits k a) <> Rng.key_unit sub then
      Alcotest.failf "key_sub_bits differs at draw %d (a=%d)" i a;
    if scale (Rng.key_pair_bits k a b) <> Rng.key_unit (Rng.subkey sub b) then
      Alcotest.failf "key_pair_bits differs at draw %d (a=%d b=%d)" i a b;
    if Rng.key_triple k a b c <> Rng.subkey (Rng.subkey sub b) c then
      Alcotest.failf "key_triple differs at draw %d (a=%d b=%d c=%d)" i a b c
  done

let suite =
  [

    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "split independence" `Quick test_split_independence;
    Alcotest.test_case "copy replays the stream" `Quick test_copy_replays;
    Alcotest.test_case "unit stays in [0,1)" `Quick test_unit_range;
    Alcotest.test_case "int stays in bounds" `Quick test_int_bounds;
    Alcotest.test_case "int is uniform" `Slow test_int_uniformity;
    Alcotest.test_case "int_in_range inclusive" `Quick test_int_in_range;
    Alcotest.test_case "invalid arguments rejected" `Quick test_invalid_args;
    Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
    Alcotest.test_case "bernoulli rate" `Slow test_bernoulli_rate;
    Alcotest.test_case "poisson mean (small)" `Slow test_poisson_mean_small;
    Alcotest.test_case "poisson mean (large, split path)" `Slow
      test_poisson_mean_large;
    Alcotest.test_case "poisson of mean zero" `Quick test_poisson_zero;
    Alcotest.test_case "exponential mean" `Slow test_exponential_mean;
    Alcotest.test_case "gaussian moments" `Slow test_gaussian_moments;
    Alcotest.test_case "permutation is a permutation" `Quick
      test_permutation_is_permutation;
    Alcotest.test_case "shuffle preserves multiset" `Quick
      test_shuffle_preserves_multiset;
    Alcotest.test_case "split_n independence" `Quick test_split_n;
    Alcotest.test_case "split_n prefixes pairwise disjoint" `Quick
      test_split_n_prefixes_disjoint;
    Alcotest.test_case "splitmix64 replay" `Quick test_mix64_avalanche;
    Alcotest.test_case "key_pair_bernoulli = composed keyed draw" `Quick
      test_key_pair_bernoulli;
    Alcotest.test_case "keyed bits and triple key = composed keyed draws"
      `Quick test_key_bits;
  ]
