module Graph = Ss_topology.Graph
module Traversal = Ss_topology.Traversal
module Ring = Ss_stats.Ring

type classification =
  | Converged
  | Oscillating of { period : int; first_seen : int }
  | Still_changing

type burst = { first : int; last : int; dwell : int option }

type adversary = { dist : int array; horizon : int; active_from : int }

type containment = {
  tracked_rounds : int;
  worst_radius : int;
  escaped_rounds : int;
  last_escape : int option;
  contained : bool;
  time_to_containment : int option;
}

type report = {
  classification : classification;
  rounds : int;
  violating_rounds : int;
  totals : (string * int) list;
  peaks : (string * int) list;
  bursts : burst list;
  max_dwell : int option;
  unrecovered : int;
  post_recovery_violations : int;
  containment : containment option;
}

type observation = {
  digest : int64;
  counts : (string * int) list;
  violators : int list;
}

type 'state t = {
  observe : graph:Graph.t -> alive:bool array -> 'state array -> observation;
  adversary : adversary option;
  ring : int64 Ring.t;
  mutable last : observation option;
  mutable last_round : int;
  mutable rounds : int;
  mutable violating_rounds : int;
  (* first-seen order; refs hold (violating-round count, peak count) *)
  mutable tallies : (string * (int ref * int ref)) list;
  (* the single open burst: disturbances while dirty merge into it *)
  mutable open_burst : (int * int) option; (* first, last disturbance round *)
  mutable closed : burst list; (* newest first *)
  mutable recovered_once : bool;
  mutable post_violations : int;
  (* containment tracking, live only from [adversary.active_from] on *)
  mutable tracked : int;
  mutable worst_radius : int;
  mutable escaped : int;
  mutable last_escape : int option;
}

let create ?(window = 64) ?adversary ~observe () =
  if window < 2 then invalid_arg "Monitor.create: window must be >= 2";
  (match adversary with
  | None -> ()
  | Some a ->
      if a.horizon < 0 then invalid_arg "Monitor.create: negative horizon";
      if a.active_from < 1 then
        invalid_arg "Monitor.create: active_from must be >= 1");
  {
    observe;
    adversary;
    ring = Ring.create ~capacity:window;
    last = None;
    last_round = 0;
    rounds = 0;
    violating_rounds = 0;
    tallies = [];
    open_burst = None;
    closed = [];
    recovered_once = false;
    post_violations = 0;
    tracked = 0;
    worst_radius = 0;
    escaped = 0;
    last_escape = None;
  }

let note_disturbance t ~round =
  match t.open_burst with
  | None -> t.open_burst <- Some (round, round)
  | Some (first, last) -> t.open_burst <- Some (first, max last round)

let on_round t (info : Engine.round_info) =
  if info.events > 0 || info.corrupted <> [] then
    note_disturbance t ~round:info.round

let bump t label count =
  let rounds, peak =
    match List.assoc_opt label t.tallies with
    | Some cell -> cell
    | None ->
        let cell = (ref 0, ref 0) in
        t.tallies <- t.tallies @ [ (label, cell) ];
        cell
  in
  incr rounds;
  if count > !peak then peak := count

let probe t ~round ~graph ~alive states =
  if t.rounds > 0 && round <= t.last_round then
    invalid_arg
      (Printf.sprintf
         "Monitor.probe: round %d fed after round %d; rounds must increase"
         round t.last_round);
  let obs = t.observe ~graph ~alive states in
  t.last <- Some obs;
  t.rounds <- t.rounds + 1;
  t.last_round <- round;
  Ring.push t.ring obs.digest;
  let violations = List.filter (fun (_, c) -> c > 0) obs.counts in
  if violations = [] then begin
    (match t.open_burst with
    | Some (first, last) when round >= last ->
        (* First clean probe at or after the last disturbance: the burst
           closes; dwell 0 when the disturbance round itself probes clean. *)
        t.closed <- { first; last; dwell = Some (round - last) } :: t.closed;
        t.open_burst <- None;
        t.recovered_once <- true
    | Some _ | None -> ())
  end
  else begin
    t.violating_rounds <- t.violating_rounds + 1;
    List.iter (fun (label, count) -> bump t label count) violations;
    (* Violations outside any burst: cold-start convergence is charged to no
       one, but once a burst has closed the predicate must hold forever —
       anything after is a closure failure. *)
    if t.open_burst = None && t.recovered_once then
      t.post_violations <- t.post_violations + 1
  end;
  (* Containment: once the adversary is live, attribute each violation to
     its distance from the Byzantine set. A violator beyond the horizon
     (including one with no Byzantine node reachable at all) is an escape
     — damage the clean region was supposed to be immune to. *)
  match t.adversary with
  | Some adv when round >= adv.active_from ->
      t.tracked <- t.tracked + 1;
      let escape = ref false in
      List.iter
        (fun v ->
          let d = adv.dist.(v) in
          if d = Traversal.unreachable then escape := true
          else begin
            if d > t.worst_radius then t.worst_radius <- d;
            if d > adv.horizon then escape := true
          end)
        obs.violators;
      if !escape then begin
        t.escaped <- t.escaped + 1;
        t.last_escape <- Some round
      end
  | _ -> ()

let last t = t.last

let classify ~converged ~last_round digests =
  if converged then Converged
  else
    let n = Array.length digests in
    if n < 2 then Still_changing
    else begin
      let result = ref Still_changing in
      (try
         for p = 1 to n / 2 do
           let tail_periodic = ref true in
           for i = 0 to p - 1 do
             if not (Int64.equal digests.(n - 1 - i) digests.(n - 1 - p - i))
             then tail_periodic := false
           done;
           if !tail_periodic then begin
             (* Smallest period found; extend the periodic tail backwards to
                date the onset (bounded by the window). *)
             let s = ref (n - p) in
             while !s > 0 && Int64.equal digests.(!s - 1) digests.(!s - 1 + p)
             do
               decr s
             done;
             let first_seen = last_round - (n - 1) + !s in
             result := Oscillating { period = p; first_seen };
             raise Exit
           end
         done
       with Exit -> ());
      !result
    end

let report t ~converged =
  let bursts =
    List.rev
      (match t.open_burst with
      | None -> t.closed
      | Some (first, last) -> { first; last; dwell = None } :: t.closed)
  in
  let max_dwell =
    List.fold_left
      (fun acc b ->
        match (b.dwell, acc) with
        | Some d, Some m -> Some (max d m)
        | Some d, None -> Some d
        | None, _ -> acc)
      None bursts
  in
  let containment =
    match t.adversary with
    | None -> None
    | Some adv ->
        (* Contained means the clean region was violation-free at the end:
           either it never broke, or the last escape was followed by at
           least one tracked clean-region-clean round. Time-to-containment
           dates the settle point from activation; it is meaningless (and
           [None]) while escapes are still live. *)
        let contained =
          match t.last_escape with
          | None -> true
          | Some r -> r < t.last_round
        in
        let time_to_containment =
          if not contained then None
          else
            match t.last_escape with
            | None -> Some 0
            | Some r -> Some (r - adv.active_from + 1)
        in
        Some
          {
            tracked_rounds = t.tracked;
            worst_radius = t.worst_radius;
            escaped_rounds = t.escaped;
            last_escape = t.last_escape;
            contained;
            time_to_containment;
          }
  in
  {
    classification =
      classify ~converged ~last_round:t.last_round (Ring.to_array t.ring);
    rounds = t.rounds;
    violating_rounds = t.violating_rounds;
    totals = List.map (fun (l, (r, _)) -> (l, !r)) t.tallies;
    peaks = List.map (fun (l, (_, p)) -> (l, !p)) t.tallies;
    bursts;
    max_dwell;
    unrecovered = (match t.open_burst with None -> 0 | Some _ -> 1);
    post_recovery_violations = t.post_violations;
    containment;
  }

let classification_label = function
  | Converged -> "converged"
  | Oscillating { period; _ } -> Printf.sprintf "oscillating(p=%d)" period
  | Still_changing -> "still-changing"

let pp_classification fmt = function
  | Converged -> Format.pp_print_string fmt "converged"
  | Oscillating { period; first_seen } ->
      Format.fprintf fmt "oscillating(period=%d, first_seen=%d)" period
        first_seen
  | Still_changing -> Format.pp_print_string fmt "still-changing"
