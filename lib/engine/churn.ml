(* Event plans: deterministic schedules plus random processes, evaluated
   against the live Dynamic overlay so victims are always drawn from the
   current topology. All randomness flows through the supplied generator,
   keeping churned runs replayable from the engine seed. *)

module Dynamic = Ss_topology.Dynamic
module Graph = Ss_topology.Graph
module Rng = Ss_prng.Rng

type event =
  | Crash of int
  | Join of int
  | Sleep of int
  | Wake of int
  | Link_down of int * int
  | Link_up of int * int
  | Corrupt of int

let pp_event ppf = function
  | Crash p -> Fmt.pf ppf "crash(%d)" p
  | Join p -> Fmt.pf ppf "join(%d)" p
  | Sleep p -> Fmt.pf ppf "sleep(%d)" p
  | Wake p -> Fmt.pf ppf "wake(%d)" p
  | Link_down (p, q) -> Fmt.pf ppf "link-down(%d,%d)" p q
  | Link_up (p, q) -> Fmt.pf ppf "link-up(%d,%d)" p q
  | Corrupt p -> Fmt.pf ppf "corrupt(%d)" p

let event_label = function
  | Crash _ -> "crash"
  | Join _ -> "join"
  | Sleep _ -> "sleep"
  | Wake _ -> "wake"
  | Link_down _ -> "link-down"
  | Link_up _ -> "link-up"
  | Corrupt _ -> "corrupt"

type t =
  | Schedule of (int * event list) list
  | Generator of int option * (round:int -> Dynamic.t -> Rng.t -> event list)
  | Compose of t list

let schedule entries =
  List.iter
    (fun (round, _) ->
      if round < 1 then invalid_arg "Churn.schedule: rounds start at 1")
    entries;
  Schedule entries

let generator ?horizon f = Generator (horizon, f)

let compose plans = Compose plans

let nothing = Schedule []

let rec events_at t ~round dyn rng =
  match t with
  | Schedule entries ->
      List.concat_map
        (fun (r, events) -> if r = round then events else [])
        entries
  | Generator (_, f) -> f ~round dyn rng
  | Compose plans ->
      List.concat_map (fun p -> events_at p ~round dyn rng) plans

let rec horizon = function
  | Schedule entries ->
      Some (List.fold_left (fun acc (r, _) -> max acc r) 0 entries)
  | Generator (h, _) -> h
  | Compose plans ->
      List.fold_left
        (fun acc p ->
          match (acc, horizon p) with
          | Some a, Some b -> Some (max a b)
          | None, _ | _, None -> None)
        (Some 0) plans

(* Uniform sample of [count] nodes from a list (Fisher-Yates on a copy). *)
let sample rng nodes count =
  let a = Array.of_list nodes in
  let n = Array.length a in
  let count = min count n in
  for i = 0 to count - 1 do
    let j = i + Rng.int rng (n - i) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list (Array.sub a 0 count)

let fraction_count fraction population =
  if population = 0 then 0
  else max 1 (int_of_float (ceil (fraction *. float_of_int population)))

let at_round round f = Generator (Some round, fun ~round:r dyn rng ->
    if r = round then f dyn rng else [])

let fraction_burst ~round ~fraction make =
  if fraction < 0.0 || fraction > 1.0 then
    invalid_arg "Churn: fraction out of range";
  if round < 1 then invalid_arg "Churn: rounds start at 1";
  at_round round (fun dyn rng ->
      let alive = Dynamic.nodes_with dyn Dynamic.Alive in
      let count = fraction_count fraction (List.length alive) in
      List.map make (sample rng alive count))

let crash_fraction ~round ~fraction =
  fraction_burst ~round ~fraction (fun p -> Crash p)

let sleep_fraction ~round ~fraction =
  fraction_burst ~round ~fraction (fun p -> Sleep p)

let corrupt_fraction ~round ~fraction =
  fraction_burst ~round ~fraction (fun p -> Corrupt p)

let corrupt_count ~round ~count =
  if count < 0 then invalid_arg "Churn.corrupt_count: negative count";
  if round < 1 then invalid_arg "Churn: rounds start at 1";
  at_round round (fun dyn rng ->
      let alive = Dynamic.nodes_with dyn Dynamic.Alive in
      List.map (fun p -> Corrupt p) (sample rng alive count))

let join_all ~round =
  if round < 1 then invalid_arg "Churn: rounds start at 1";
  at_round round (fun dyn _rng ->
      List.map (fun p -> Join p) (Dynamic.nodes_with dyn Dynamic.Crashed))

let wake_all ~round =
  if round < 1 then invalid_arg "Churn: rounds start at 1";
  at_round round (fun dyn _rng ->
      List.map (fun p -> Wake p) (Dynamic.nodes_with dyn Dynamic.Asleep))

let links_up_all ~round =
  if round < 1 then invalid_arg "Churn: rounds start at 1";
  at_round round (fun dyn _rng ->
      List.map (fun (p, q) -> Link_up (p, q)) (Dynamic.down_list dyn))

let check_window ~first ~last =
  if first < 1 then invalid_arg "Churn: rounds start at 1";
  if last < first then invalid_arg "Churn: empty round window"

let check_probability name p =
  if p < 0.0 || p > 1.0 then
    invalid_arg ("Churn: " ^ name ^ " out of range")

let windowed ~first ~last f =
  Generator
    ( Some last,
      fun ~round dyn rng ->
        if round < first || round > last then [] else f ~round dyn rng )

let bernoulli_crash ~first ~last ~p_crash ?(p_join = 0.0) () =
  check_window ~first ~last;
  check_probability "p_crash" p_crash;
  check_probability "p_join" p_join;
  windowed ~first ~last (fun ~round:_ dyn rng ->
      let crashes =
        List.filter_map
          (fun p -> if Rng.bernoulli rng p_crash then Some (Crash p) else None)
          (Dynamic.nodes_with dyn Dynamic.Alive)
      in
      let joins =
        if p_join = 0.0 then []
        else
          List.filter_map
            (fun p -> if Rng.bernoulli rng p_join then Some (Join p) else None)
            (Dynamic.nodes_with dyn Dynamic.Crashed)
      in
      crashes @ joins)

let link_flap ~first ~last ~p_down ?(p_up = 0.0) () =
  check_window ~first ~last;
  check_probability "p_down" p_down;
  check_probability "p_up" p_up;
  windowed ~first ~last (fun ~round:_ dyn rng ->
      let fades = ref [] in
      Graph.iter_edges (Dynamic.base dyn) (fun p q ->
          if (not (Dynamic.is_link_down dyn p q)) && Rng.bernoulli rng p_down
          then fades := Link_down (p, q) :: !fades);
      let recoveries =
        if p_up = 0.0 then []
        else
          List.filter_map
            (fun (p, q) ->
              if Rng.bernoulli rng p_up then Some (Link_up (p, q)) else None)
            (Dynamic.down_list dyn)
      in
      List.rev_append !fades recoveries)
