module Graph = Ss_topology.Graph
module Builders = Ss_topology.Builders
module Channel = Ss_radio.Channel
module Engine = Ss_engine.Engine
module Scheduler = Ss_engine.Scheduler
module Churn = Ss_engine.Churn
module Dynamic = Ss_topology.Dynamic
module Rng = Ss_prng.Rng

(* A toy protocol: flood the maximum value seen. Converges in diameter
   rounds on a connected graph; ideal for testing the executor. *)
module Floodmax = struct
  type state = int

  type message = int

  let init _rng graph p = Graph.node_count graph - p (* arbitrary values *)

  let emit _graph _p st = st

  let handle _rng _graph _p st msgs =
    List.fold_left (fun acc (_, v) -> max acc v) st msgs

  let equal_state = Int.equal
end

module E = Engine.Make (Floodmax)

let rng () = Rng.create ~seed:90

let test_floodmax_converges () =
  let g = Builders.path 10 in
  let result = E.run (rng ()) g in
  Alcotest.(check bool) "converged" true result.E.converged;
  Array.iter
    (fun st -> Alcotest.(check int) "all carry the max" 10 st)
    result.E.states

let test_synchronous_takes_diameter_rounds () =
  (* Node 0 holds the max (n - 0); it must travel the whole path, one hop
     per synchronous round. *)
  let n = 12 in
  let g = Builders.path n in
  let result = E.run ~scheduler:Scheduler.Synchronous (rng ()) g in
  Alcotest.(check int) "last change at diameter" (n - 1)
    result.E.last_change_round

let test_sequential_faster_in_index_order () =
  (* The sequential daemon propagates the max all the way in one pass when
     updates flow in index order. *)
  let g = Builders.path 12 in
  let result = E.run ~scheduler:Scheduler.Sequential (rng ()) g in
  Alcotest.(check bool) "few rounds" true (result.E.last_change_round <= 2)

let test_change_history () =
  let g = Builders.path 5 in
  let result = E.run (rng ()) g in
  Alcotest.(check int) "history length = rounds" result.E.rounds
    (List.length result.E.change_history);
  (* The final round must be quiet. *)
  match List.rev result.E.change_history with
  | last :: _ -> Alcotest.(check int) "final round quiet" 0 last
  | [] -> Alcotest.fail "expected history"

let test_max_rounds_cap () =
  (* An never-stabilizing protocol stops at the cap with converged=false. *)
  let module Ticker = struct
    type state = int
    type message = unit

    let init _ _ _ = 0
    let emit _ _ _ = ()
    let handle _ _ _ st _ = st + 1
    let equal_state = Int.equal
  end in
  let module ET = Engine.Make (Ticker) in
  let g = Builders.path 3 in
  let result = ET.run ~max_rounds:17 (rng ()) g in
  Alcotest.(check int) "stopped at cap" 17 result.ET.rounds;
  Alcotest.(check bool) "not converged" false result.ET.converged

let test_quiet_rounds () =
  let g = Builders.path 5 in
  let result = E.run ~quiet_rounds:4 (rng ()) g in
  (* 4 quiet rounds executed after the last change. *)
  Alcotest.(check int) "rounds = last_change + quiet" (result.E.last_change_round + 4)
    result.E.rounds

let test_on_round_callback () =
  let g = Builders.path 5 in
  let seen = ref [] in
  let _ =
    E.run
      ~on_round:(fun info -> seen := info.Engine.round :: !seen)
      (rng ()) g
  in
  let rounds = List.rev !seen in
  Alcotest.(check bool) "rounds in order" true
    (rounds = List.init (List.length rounds) (fun i -> i + 1))

let test_fault_hook_resets_quiescence () =
  let g = Builders.path 6 in
  (* Corrupt one node's value downward at round 8, after convergence: the
     flood must re-propagate (value re-raised by neighbors). *)
  let hit = ref [] in
  let corrupt _rng p _st =
    hit := p :: !hit;
    0
  in
  let churn = Churn.corrupt_count ~round:8 ~count:1 in
  let result = E.run ~quiet_rounds:10 ~churn ~corrupt (rng ()) g in
  Alcotest.(check bool) "converged again" true result.E.converged;
  Alcotest.(check bool) "ran past the fault" true (result.E.last_change_round >= 8);
  Array.iter (fun st -> Alcotest.(check int) "healed" 6 st) result.E.states;
  Alcotest.(check int) "one victim scrambled" 1 (List.length !hit);
  (* The run names its victim. *)
  match result.E.faults with
  | [ { Engine.fault_round; corrupted } ] ->
      Alcotest.(check int) "fault round reported" 8 fault_round;
      Alcotest.(check (list int)) "victim reported" !hit corrupted
  | fs ->
      Alcotest.failf "expected exactly one fault report, got %d"
        (List.length fs)

let test_lossy_channel_still_converges () =
  (* Floodmax is monotone, so convergence survives arbitrary loss as long
     as some frames get through. *)
  let g = Builders.path 8 in
  let result =
    E.run ~channel:(Channel.bernoulli 0.5) ~quiet_rounds:10 ~max_rounds:2000
      (rng ()) g
  in
  Alcotest.(check bool) "converged" true result.E.converged;
  Array.iter (fun st -> Alcotest.(check int) "max everywhere" 8 st) result.E.states

let test_lossy_slower_than_perfect () =
  let g = Builders.path 16 in
  let perfect = E.run (rng ()) g in
  let lossy =
    E.run ~channel:(Channel.bernoulli 0.3) ~quiet_rounds:10 ~max_rounds:5000
      (rng ()) g
  in
  Alcotest.(check bool) "loss delays convergence" true
    (lossy.E.last_change_round >= perfect.E.last_change_round)

let test_init_states_override () =
  let g = Builders.path 4 in
  let states = [| 100; 0; 0; 0 |] in
  let result = E.run ~states (rng ()) g in
  Array.iter (fun st -> Alcotest.(check int) "custom seed flooded" 100 st)
    result.E.states

(* --------------------------------------------- the differential localizer *)

(* The batteries' comparator on hand-edited records: each edit must be
   named by its field and its round or node, and equal records give
   [None]. *)
module DF =
  Differential.Run
    (Floodmax)
    (struct
      type state = int

      let corrupt _ _ st = st
      let warm _ = false
    end)

let test_localizer () =
  let g = Builders.path 8 in
  let churn =
    Churn.schedule [ (2, [ Churn.Crash 6 ]); (5, [ Churn.Join 6 ]) ]
  in
  let r = E.run ~churn (rng ()) g in
  let diff = DF.diff ~left:"a" ~right:"b" r in
  Alcotest.(check (option string)) "equal records" None (diff r);
  Alcotest.(check (option string))
    "a rerun" None
    (diff (E.run ~churn (rng ()) g));
  Alcotest.(check (option string))
    "exact" None
    (DF.diff ~exact:true ~left:"a" ~right:"b" r
       { r with states = Array.copy r.E.states });
  let k = List.nth r.E.change_history 2 in
  Alcotest.(check (option string)) "change_history"
    (Some (Printf.sprintf "change_history: round 3: a %d, b %d" k (k + 7)))
    (diff
       {
         r with
         change_history =
           List.mapi (fun i c -> if i = 2 then c + 7 else c) r.E.change_history;
       });
  let changed_at = Array.copy r.E.changed_at in
  changed_at.(4) <- changed_at.(4) + 9;
  Alcotest.(check (option string)) "changed_at"
    (Some
       (Printf.sprintf "changed_at: node 4: a %d, b %d" r.E.changed_at.(4)
          changed_at.(4)))
    (diff { r with changed_at });
  let states = Array.copy r.E.states in
  states.(5) <- states.(5) - 1;
  Alcotest.(check (option string)) "states"
    (Some "states: node 5: a and b differ (equal_state)")
    (diff { r with states })

(* ------------------------------------------------- Churn.corrupt_count *)

(* Corruption plans are churn: [Churn.corrupt_count] emits [Corrupt]
   events, victims drawn among the alive nodes. [corrupt_victims] reads
   one round's victims off a plan. *)
let corrupt_victims plan ~round dyn r =
  List.map
    (function
      | Churn.Corrupt p -> p
      | ev -> Alcotest.failf "unexpected event %a" Churn.pp_event ev)
    (Churn.events_at plan ~round dyn r)

let test_fault_plan_schedule () =
  let plan =
    Churn.compose
      [
        Churn.corrupt_count ~round:2 ~count:1;
        Churn.corrupt_count ~round:5 ~count:2;
      ]
  in
  let dyn = Dynamic.create (Builders.path 3) in
  let r = rng () in
  Alcotest.(check (list int)) "round 1 silent" []
    (corrupt_victims plan ~round:1 dyn r);
  Alcotest.(check int) "round 2: one victim" 1
    (List.length (corrupt_victims plan ~round:2 dyn r));
  let five = corrupt_victims plan ~round:5 dyn r in
  Alcotest.(check int) "round 5: two distinct victims" 2
    (List.length (List.sort_uniq Int.compare five));
  List.iter
    (fun p -> Alcotest.(check bool) "victim is a node" true (p >= 0 && p < 3))
    five

let test_fault_plan_validation () =
  Alcotest.check_raises "round 0" (Invalid_argument "Churn: rounds start at 1")
    (fun () -> ignore (Churn.corrupt_count ~round:0 ~count:1));
  Alcotest.check_raises "negative count"
    (Invalid_argument "Churn.corrupt_count: negative count") (fun () ->
      ignore (Churn.corrupt_count ~round:1 ~count:(-1)))

let test_fault_count_clamped () =
  (* Four nodes, one crashed: a 99-victim burst corrupts each of the
     three alive nodes once and never the crashed one. *)
  let dyn = Dynamic.create (Builders.path 4) in
  ignore (Dynamic.crash dyn 1);
  let victims =
    corrupt_victims (Churn.corrupt_count ~round:1 ~count:99) ~round:1 dyn
      (rng ())
  in
  Alcotest.(check (list int)) "every alive node once" [ 0; 2; 3 ]
    (List.sort Int.compare victims)

(* -------------------------------------------------------------- Channel *)

(* Keyed plans: one key per simulated round, derived positionally. *)
let round_key i = Rng.subkey (Rng.key ~seed:90) i

let test_channel_perfect () =
  let g = Builders.path 2 in
  for i = 1 to 100 do
    let plan =
      Channel.round_plan Channel.perfect ~key:(round_key i) ~round:i ~graph:g
    in
    Alcotest.(check bool) "always delivers" true (plan ~src:0 ~dst:1)
  done

let test_channel_bernoulli_rate () =
  let g = Builders.path 2 in
  let channel = Channel.bernoulli 0.7 in
  let hits = ref 0 in
  let draws = 20_000 in
  for i = 1 to draws do
    let plan = Channel.round_plan channel ~key:(round_key i) ~round:i ~graph:g in
    if plan ~src:0 ~dst:1 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int draws in
  Alcotest.(check bool) "near tau" true (Float.abs (rate -. 0.7) < 0.02);
  Alcotest.(check (float 1e-9)) "tau exposed" 0.7 (Channel.tau channel)

let test_channel_bernoulli_validation () =
  Alcotest.check_raises "tau > 1"
    (Invalid_argument "Channel.bernoulli: tau out of range") (fun () ->
      ignore (Channel.bernoulli 1.5))

let test_channel_slotted_consistency () =
  (* Within one plan, collisions are consistent: if q's slot collides with
     another neighbor of p, the frame q->p is lost; re-querying the same
     plan gives the same answer. *)
  let g = Builders.complete 5 in
  let channel = Channel.slotted ~slots:4 in
  for i = 1 to 50 do
    let plan = Channel.round_plan channel ~key:(round_key i) ~round:i ~graph:g in
    Graph.iter_edges g (fun p q ->
        Alcotest.(check bool) "stable within plan" (plan ~src:q ~dst:p)
          (plan ~src:q ~dst:p));
    (* Counter-keying: rebuilding the plan from the same key replays the
       identical window, regardless of query order or coverage. *)
    let replay = Channel.round_plan channel ~key:(round_key i) ~round:i ~graph:g in
    Graph.iter_edges g (fun p q ->
        Alcotest.(check bool) "replayable from key" (plan ~src:q ~dst:p)
          (replay ~src:q ~dst:p))
  done

let test_channel_slotted_single_slot_blocks_everything () =
  (* One slot: every transmission collides with every other; on a graph
     where each receiver has another neighbor, nothing gets through. *)
  let g = Builders.complete 4 in
  let plan =
    Channel.round_plan (Channel.slotted ~slots:1) ~key:(round_key 1) ~round:1
      ~graph:g
  in
  Graph.iter_edges g (fun p q ->
      Alcotest.(check bool) "all collide" false (plan ~src:q ~dst:p))

let test_channel_slotted_pair_delivery_rate () =
  (* Two nodes, S slots: the only loss is the half-duplex clash, so the
     delivery rate is (S-1)/S. *)
  let g = Builders.path 2 in
  let channel = Channel.slotted ~slots:4 in
  let hits = ref 0 in
  let draws = 20_000 in
  for i = 1 to draws do
    let plan = Channel.round_plan channel ~key:(round_key i) ~round:i ~graph:g in
    if plan ~src:0 ~dst:1 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int draws in
  Alcotest.(check bool) "near 3/4" true (Float.abs (rate -. 0.75) < 0.02)

let test_channel_slotted_more_slots_better () =
  let g = Builders.complete 8 in
  let rate slots =
    let channel = Channel.slotted ~slots in
    let hits = ref 0 and total = ref 0 in
    for i = 1 to 2000 do
      let plan =
        Channel.round_plan channel
          ~key:(round_key (slots + (8 * i)))
          ~round:i ~graph:g
      in
      Graph.iter_edges g (fun p q ->
          incr total;
          if plan ~src:q ~dst:p then incr hits)
    done;
    float_of_int !hits /. float_of_int !total
  in
  Alcotest.(check bool) "32 slots beat 4" true (rate 32 > rate 4)

let test_floodmax_under_slotted_channel () =
  (* The protocol still converges when the loss comes from real contention
     instead of the Bernoulli abstraction. *)
  let g = Builders.path 8 in
  let result =
    E.run ~channel:(Channel.slotted ~slots:8) ~quiet_rounds:10 ~max_rounds:2000
      (rng ()) g
  in
  Alcotest.(check bool) "converged" true result.E.converged;
  Array.iter (fun st -> Alcotest.(check int) "max everywhere" 8 st) result.E.states

let test_fault_hook_silent_outside_schedule () =
  (* A corruption burst must emit nothing on every round it does not
     name, so quiescence tracking is undisturbed between bursts; and the
     run keeps going until it fired. *)
  let plan = Churn.corrupt_count ~round:4 ~count:1 in
  let dyn = Dynamic.create (Builders.path 3) in
  let r = rng () in
  for round = 1 to 10 do
    Alcotest.(check int)
      (Printf.sprintf "round %d" round)
      (if round = 4 then 1 else 0)
      (List.length (corrupt_victims plan ~round dyn r))
  done;
  Alcotest.(check (option int)) "horizon" (Some 4) (Churn.horizon plan);
  let result =
    E.run ~churn:plan ~corrupt:(fun _ _ st -> st + 1) (rng ()) (Builders.path 3)
  in
  Alcotest.(check (list int)) "one fault round" [ 4 ]
    (List.map (fun f -> f.Engine.fault_round) result.E.faults)

let test_floodmax_under_jammed_channel () =
  (* Engine-level jamming: node 2 sits inside the jammed region with
     jam_tau = 0, so it never hears a frame and keeps its initial value
     while the rest of the line converges. *)
  let positions =
    [| Ss_geom.Vec2.v 0.1 0.5; Ss_geom.Vec2.v 0.4 0.5; Ss_geom.Vec2.v 0.7 0.5 |]
  in
  let g = Graph.unit_disk ~radius:0.35 positions in
  let region =
    Ss_geom.Bbox.make ~min_x:0.55 ~min_y:0.0 ~max_x:1.0 ~max_y:1.0
  in
  let channel = Channel.jammed ~tau:1.0 ~region ~jam_tau:0.0 in
  let result = E.run ~channel (rng ()) g in
  Alcotest.(check bool) "converged" true result.E.converged;
  Alcotest.(check (array int)) "jammed node keeps its init" [| 3; 3; 1 |]
    result.E.states

let test_channel_jammed () =
  (* Receivers inside the jammed region lose everything at jam_tau = 0. *)
  let positions = [| Ss_geom.Vec2.v 0.1 0.1; Ss_geom.Vec2.v 0.9 0.9 |] in
  let g = Graph.unit_disk ~radius:2.0 positions in
  let region =
    Ss_geom.Bbox.make ~min_x:0.5 ~min_y:0.5 ~max_x:1.0 ~max_y:1.0
  in
  let channel = Channel.jammed ~tau:1.0 ~region ~jam_tau:0.0 in
  let plan = Channel.round_plan channel ~key:(round_key 1) ~round:1 ~graph:g in
  Alcotest.(check bool) "outside region receives" true (plan ~src:1 ~dst:0);
  Alcotest.(check bool) "inside region jammed" false (plan ~src:0 ~dst:1)

let test_channel_jammed_needs_positions () =
  (* On a graph without geometry a jammed region cannot be evaluated; the
     old behavior silently degraded to bernoulli tau, turning the jam into
     a no-op. Now it is an explicit error at plan time. *)
  let g = Builders.path 3 in
  let region =
    Ss_geom.Bbox.make ~min_x:0.0 ~min_y:0.0 ~max_x:1.0 ~max_y:1.0
  in
  let channel = Channel.jammed ~tau:0.9 ~region ~jam_tau:0.0 in
  Alcotest.check_raises "missing positions rejected"
    (Invalid_argument
       "Channel.round_plan: Jammed channel needs node positions (build the \
        graph with ~positions)") (fun () ->
      ignore
        (Channel.round_plan channel ~key:(round_key 1) ~round:1 ~graph:g ~src:0
           ~dst:1
          : bool))

(* ----------------------------------------- per-edge channel statistics *)

(* Aggregate rates (above) can hide a biased edge — a key-derivation bug
   correlating src and dst would skew individual streams while the mean
   stays on target. Standardize every directed edge's delivery count and
   bound the chi-square-style sum: a single stuck or heavily biased edge
   contributes thousands, while an honest sample at these fixed seeds sits
   near the degrees-of-freedom count. The per-edge deviation bound pins
   each stream individually. *)
let per_edge_counts ~seed ~rounds ~graph ~channel =
  let n = Graph.node_count graph in
  let counts = Array.make_matrix n n 0 in
  let base = Rng.key ~seed in
  for i = 1 to rounds do
    let plan =
      Channel.round_plan channel ~key:(Rng.subkey base i) ~round:i ~graph
    in
    Graph.iter_edges graph (fun p q ->
        if plan ~src:q ~dst:p then counts.(q).(p) <- counts.(q).(p) + 1;
        if plan ~src:p ~dst:q then counts.(p).(q) <- counts.(p).(q) + 1)
  done;
  counts

let check_per_edge ~name ~rounds ~p_expect ~graph counts =
  let r = float_of_int rounds in
  let sigma = sqrt (p_expect *. (1.0 -. p_expect) /. r) in
  let chi2 = ref 0.0 in
  let df = ref 0 in
  Graph.iter_edges graph (fun p q ->
      List.iter
        (fun (src, dst) ->
          let rate = float_of_int counts.(src).(dst) /. r in
          let z = (rate -. p_expect) /. sigma in
          chi2 := !chi2 +. (z *. z);
          incr df;
          Alcotest.(check bool)
            (Printf.sprintf "%s edge %d->%d rate %.4f near %.4f" name src dst
               rate p_expect)
            true
            (Float.abs (rate -. p_expect) < 6.0 *. sigma))
        [ (p, q); (q, p) ]);
  let df = float_of_int !df in
  (* 5-sigma band around the chi-square mean (variance 2*df for
     independent edges; slotted edges correlate through shared slot draws,
     which the generous band absorbs). Both sides checked: a too-small
     statistic means the per-edge streams are not independent draws. *)
  let slack = 5.0 *. sqrt (2.0 *. df) in
  Alcotest.(check bool)
    (Printf.sprintf "%s chi2 %.1f within %.1f +/- %.1f" name !chi2 df slack)
    true
    (Float.abs (!chi2 -. df) < slack)

let test_channel_bernoulli_per_edge_rates () =
  let g = Builders.complete 8 in
  let tau = 0.6 in
  let rounds = 4000 in
  let counts =
    per_edge_counts ~seed:77 ~rounds ~graph:g ~channel:(Channel.bernoulli tau)
  in
  check_per_edge ~name:"bernoulli" ~rounds ~p_expect:tau ~graph:g counts

let test_channel_slotted_per_edge_rates () =
  (* On a cycle every receiver has exactly two neighbors, so delivery needs
     the receiver and its other neighbor both off the sender's slot:
     p = ((m-1)/m)^2, identical for every directed edge. *)
  let g = Builders.cycle 10 in
  let slots = 4 in
  let p_expect =
    let q = float_of_int (slots - 1) /. float_of_int slots in
    q *. q
  in
  let rounds = 4000 in
  let counts =
    per_edge_counts ~seed:78 ~rounds ~graph:g
      ~channel:(Channel.slotted ~slots)
  in
  check_per_edge ~name:"slotted" ~rounds ~p_expect ~graph:g counts

(* ---------------------------------------------------- scheduler coverage *)

module Distributed = Ss_cluster.Distributed
module Config = Ss_cluster.Config
module Legitimacy = Ss_cluster.Legitimacy
module P_dist = Distributed.Make (struct
  let params = Distributed.default_params
end)

module ED = Engine.Make (P_dist)

let all_schedulers =
  [ Scheduler.Synchronous; Scheduler.Sequential; Scheduler.Random_order ]

let test_schedulers_converge_distributed () =
  (* Every daemon variant must drive the full protocol stack to a
     legitimate configuration; only the synchronous one was exercised
     against [Distributed] before. *)
  let g = Builders.geometric_grid ~cols:5 ~rows:5 ~radius:0.3 in
  let ids = Array.init (Graph.node_count g) Fun.id in
  let quiet = Distributed.default_params.Distributed.cache_ttl + 2 in
  List.iter
    (fun sched ->
      let name = Fmt.str "%a" Scheduler.pp sched in
      let result =
        ED.run ~scheduler:sched ~quiet_rounds:quiet ~max_rounds:2000
          (Rng.create ~seed:31) g
      in
      Alcotest.(check bool) (name ^ ": converged") true result.ED.converged;
      let assignment = Distributed.to_assignment result.ED.states in
      Alcotest.(check bool)
        (name ^ ": legitimate")
        true
        (Legitimacy.is_legitimate Config.basic result.ED.graph ~ids assignment))
    all_schedulers

let test_schedulers_domain_identity () =
  (* The churn pipeline must reproduce its sequential aggregation bit for
     bit on a 4-domain pool under every daemon variant, not just the
     synchronous one the regression goldens pin. *)
  let spec = Ss_experiments.Scenario.poisson ~intensity:40.0 ~radius:0.2 () in
  List.iter
    (fun sched ->
      let run domains =
        Ss_experiments.Sweep.rows ~domains
          (Ss_experiments.Exp_churn.sweep ~seed:11 ~runs:2 ~spec
             ~schedulers:[ sched ]
             ~storms:[ Ss_experiments.Exp_churn.Crash_recover ]
             ())
      in
      Alcotest.(check bool)
        (Fmt.str "%a: 1 domain = 4 domains" Scheduler.pp sched)
        true
        (compare (run 1) (run 4) = 0))
    all_schedulers

(* ------------------------------------------ states-length validation *)

let test_states_length_validated () =
  (* A partial override array would silently leave tail nodes
     uninitialized; the length must match the graph exactly. *)
  let g = Builders.path 3 in
  Alcotest.check_raises "length mismatch rejected"
    (Invalid_argument
       "Engine.run: ~states has 2 entries but the graph has 3 nodes")
    (fun () -> ignore (E.run ~states:[| 5; 5 |] (rng ()) g));
  (* The flat entry shares the run loop and must still name itself. *)
  let module P = Ss_cluster.Distributed.Make (struct
    let params = Ss_cluster.Distributed.default_params
  end) in
  let module F = Ss_engine.Flat.Make (P) in
  let states = Array.init 2 (fun p -> P.init (rng ()) g p) in
  Alcotest.check_raises "flat length mismatch rejected"
    (Invalid_argument
       "Flat.run: ~states has 2 entries but the graph has 3 nodes")
    (fun () -> ignore (F.run ~states (rng ()) g))

(* --------------------------------------------- jammed-region geometry *)

let test_channel_jammed_whole_square_blackout () =
  (* Every receiver sits inside the jammed region at jam_tau = 0: the
     whole deployment goes dark, in both directions of every edge. *)
  let g = Builders.geometric_grid ~cols:4 ~rows:3 ~radius:0.6 in
  let region =
    Ss_geom.Bbox.make ~min_x:(-0.1) ~min_y:(-0.1) ~max_x:1.1 ~max_y:1.1
  in
  let channel = Channel.jammed ~tau:1.0 ~region ~jam_tau:0.0 in
  for i = 1 to 20 do
    let plan = Channel.round_plan channel ~key:(round_key i) ~round:i ~graph:g in
    Graph.iter_edges g (fun p q ->
        Alcotest.(check bool) "nothing delivered" false (plan ~src:p ~dst:q);
        Alcotest.(check bool) "nothing delivered (reverse)" false
          (plan ~src:q ~dst:p))
  done

(* A region disjoint from the deployment square must be a no-op: the
   jammed plan degenerates to bernoulli tau on the very same key stream,
   edge for edge. Guards the key-derivation sharing between the two
   constructors. *)
let prop_jammed_disjoint_is_bernoulli =
  QCheck.Test.make ~name:"jammed: disjoint region = bernoulli tau" ~count:100
    QCheck.(pair (int_range 0 99_999) (float_bound_inclusive 1.0))
    (fun (seed, tau) ->
      let g = Builders.geometric_grid ~cols:4 ~rows:3 ~radius:0.6 in
      let region =
        Ss_geom.Bbox.make ~min_x:5.0 ~min_y:5.0 ~max_x:6.0 ~max_y:6.0
      in
      let jam = Channel.jammed ~tau ~region ~jam_tau:0.0 in
      let bern = Channel.bernoulli tau in
      let ok = ref true in
      for round = 1 to 10 do
        let key = Rng.subkey (Rng.key ~seed) round in
        let jp = Channel.round_plan jam ~key ~round ~graph:g in
        let bp = Channel.round_plan bern ~key ~round ~graph:g in
        Graph.iter_edges g (fun p q ->
            if jp ~src:p ~dst:q <> bp ~src:p ~dst:q then ok := false;
            if jp ~src:q ~dst:p <> bp ~src:q ~dst:p then ok := false)
      done;
      !ok)

(* --------------------------------------------------- asymmetric links *)

let test_channel_asymmetric_directional () =
  let g = Builders.complete 6 in
  let channel = Channel.asymmetric ~seed:5 ~tau_lo:0.1 ~tau_hi:0.9 in
  Graph.iter_edges g (fun p q ->
      List.iter
        (fun (src, dst) ->
          let t = Channel.directional_tau channel ~src ~dst in
          Alcotest.(check bool) "tau in [lo, hi]" true (t >= 0.1 && t <= 0.9);
          Alcotest.(check (float 0.)) "tau stable per direction" t
            (Channel.directional_tau channel ~src ~dst))
        [ (p, q); (q, p) ]);
  (* The point of the channel: some link must actually be asymmetric. *)
  let asym = ref false in
  Graph.iter_edges g (fun p q ->
      let fwd = Channel.directional_tau channel ~src:p ~dst:q in
      let bwd = Channel.directional_tau channel ~src:q ~dst:p in
      if Float.abs (fwd -. bwd) > 0.05 then asym := true);
  Alcotest.(check bool) "directions differ somewhere" true !asym

let test_channel_asymmetric_rates () =
  (* Each direction's empirical delivery rate matches its own
     directional tau, not the midpoint. *)
  let g = Builders.path 2 in
  let channel = Channel.asymmetric ~seed:6 ~tau_lo:0.2 ~tau_hi:0.9 in
  let rate src dst =
    let hits = ref 0 in
    let draws = 20_000 in
    for i = 1 to draws do
      let plan = Channel.round_plan channel ~key:(round_key i) ~round:i ~graph:g in
      if plan ~src ~dst then incr hits
    done;
    float_of_int !hits /. float_of_int draws
  in
  List.iter
    (fun (src, dst) ->
      let expect = Channel.directional_tau channel ~src ~dst in
      Alcotest.(check bool)
        (Printf.sprintf "%d->%d near its directional tau" src dst)
        true
        (Float.abs (rate src dst -. expect) < 0.02))
    [ (0, 1); (1, 0) ]

(* ------------------------------------------- bursty (Gilbert-Elliott) *)

let test_channel_bursty_plan_replay () =
  (* The chain state is a pure function of (channel, edge, round):
     rebuilding the plan replays the identical window — what the sparse
     executor's delivery diff relies on. *)
  let g = Builders.complete 5 in
  let channel =
    Channel.bursty ~seed:9 ~tau_good:0.9 ~tau_bad:0.2 ~p_fade:0.1
      ~p_recover:0.3
  in
  for i = 1 to 60 do
    let plan = Channel.round_plan channel ~key:(round_key i) ~round:i ~graph:g in
    let replay =
      Channel.round_plan channel ~key:(round_key i) ~round:i ~graph:g
    in
    Graph.iter_edges g (fun p q ->
        Alcotest.(check bool) "replayable" (plan ~src:p ~dst:q)
          (replay ~src:p ~dst:q))
  done

let test_channel_bursty_extremes_track_chain () =
  (* tau_good = 1, tau_bad = 0: delivery is exactly the chain state. *)
  let g = Builders.path 2 in
  let channel =
    Channel.bursty ~seed:10 ~tau_good:1.0 ~tau_bad:0.0 ~p_fade:0.2
      ~p_recover:0.4
  in
  for i = 1 to 500 do
    let plan = Channel.round_plan channel ~key:(round_key i) ~round:i ~graph:g in
    Alcotest.(check bool) "delivery = good state"
      (not (Channel.bursty_bad channel ~src:0 ~dst:1 ~round:i))
      (plan ~src:0 ~dst:1)
  done

let test_channel_bursty_stationary_fraction () =
  let p_fade = 0.05 and p_recover = 0.25 in
  let channel =
    Channel.bursty ~seed:11 ~tau_good:1.0 ~tau_bad:0.0 ~p_fade ~p_recover
  in
  let rounds = 40_000 in
  let bad = ref 0 in
  for i = 1 to rounds do
    if Channel.bursty_bad channel ~src:0 ~dst:1 ~round:i then incr bad
  done;
  let frac = float_of_int !bad /. float_of_int rounds in
  let expect = p_fade /. (p_fade +. p_recover) in
  Alcotest.(check bool) "near stationary P(bad)" true
    (Float.abs (frac -. expect) < 0.03)

let test_channel_bursty_runs_are_bursty () =
  (* The whole point over bernoulli: fades persist. P(bad at r+1 | bad
     at r) ~ 1 - p_recover = 0.75, far above the stationary 1/6. *)
  let channel =
    Channel.bursty ~seed:12 ~tau_good:1.0 ~tau_bad:0.0 ~p_fade:0.05
      ~p_recover:0.25
  in
  let rounds = 40_000 in
  let bad = ref 0 and stayed = ref 0 in
  for i = 1 to rounds - 1 do
    if Channel.bursty_bad channel ~src:0 ~dst:1 ~round:i then begin
      incr bad;
      if Channel.bursty_bad channel ~src:0 ~dst:1 ~round:(i + 1) then
        incr stayed
    end
  done;
  let cond = float_of_int !stayed /. float_of_int (max 1 !bad) in
  Alcotest.(check bool) "fades persist" true (cond > 0.5)

let test_channel_asym_bursty_validation () =
  Alcotest.check_raises "asymmetric bounds ordered"
    (Invalid_argument "Channel.asymmetric: need 0 <= tau_lo <= tau_hi <= 1")
    (fun () -> ignore (Channel.asymmetric ~seed:1 ~tau_lo:0.8 ~tau_hi:0.2));
  Alcotest.check_raises "bursty degenerate chain"
    (Invalid_argument "Channel.bursty: p_fade + p_recover must be positive")
    (fun () ->
      ignore
        (Channel.bursty ~seed:1 ~tau_good:1.0 ~tau_bad:0.0 ~p_fade:0.0
           ~p_recover:0.0))

let suite =
  [
    Alcotest.test_case "floodmax converges" `Quick test_floodmax_converges;
    Alcotest.test_case "synchronous = one hop per round" `Quick
      test_synchronous_takes_diameter_rounds;
    Alcotest.test_case "sequential daemon collapses rounds" `Quick
      test_sequential_faster_in_index_order;
    Alcotest.test_case "change history" `Quick test_change_history;
    Alcotest.test_case "round cap" `Quick test_max_rounds_cap;
    Alcotest.test_case "quiet rounds" `Quick test_quiet_rounds;
    Alcotest.test_case "on_round callback" `Quick test_on_round_callback;
    Alcotest.test_case "fault hook resets quiescence" `Quick
      test_fault_hook_resets_quiescence;
    Alcotest.test_case "lossy channel converges" `Quick
      test_lossy_channel_still_converges;
    Alcotest.test_case "loss delays convergence" `Quick
      test_lossy_slower_than_perfect;
    Alcotest.test_case "explicit initial states" `Quick test_init_states_override;
    Alcotest.test_case "fault plan schedule" `Quick test_fault_plan_schedule;
    Alcotest.test_case "fault plan validation" `Quick test_fault_plan_validation;
    Alcotest.test_case "fault count clamped" `Quick test_fault_count_clamped;
    Alcotest.test_case "perfect channel" `Quick test_channel_perfect;
    Alcotest.test_case "bernoulli channel rate" `Slow test_channel_bernoulli_rate;
    Alcotest.test_case "channel validation" `Quick
      test_channel_bernoulli_validation;
    Alcotest.test_case "slotted plan consistency" `Quick
      test_channel_slotted_consistency;
    Alcotest.test_case "slotted single slot" `Quick
      test_channel_slotted_single_slot_blocks_everything;
    Alcotest.test_case "slotted pair delivery rate" `Slow
      test_channel_slotted_pair_delivery_rate;
    Alcotest.test_case "slotted: more slots deliver more" `Slow
      test_channel_slotted_more_slots_better;
    Alcotest.test_case "floodmax under slotted contention" `Quick
      test_floodmax_under_slotted_channel;
    Alcotest.test_case "jammed region" `Quick test_channel_jammed;
    Alcotest.test_case "jammed channel needs positions" `Quick
      test_channel_jammed_needs_positions;
    Alcotest.test_case "fault hook silent outside schedule" `Quick
      test_fault_hook_silent_outside_schedule;
    Alcotest.test_case "floodmax under a jammed region" `Quick
      test_floodmax_under_jammed_channel;
    Alcotest.test_case "bernoulli per-edge rates (chi-square)" `Slow
      test_channel_bernoulli_per_edge_rates;
    Alcotest.test_case "slotted per-edge rates (chi-square)" `Slow
      test_channel_slotted_per_edge_rates;
    Alcotest.test_case "all schedulers converge distributed" `Slow
      test_schedulers_converge_distributed;
    Alcotest.test_case "scheduler domain identity" `Slow
      test_schedulers_domain_identity;
    Alcotest.test_case "states length validated" `Quick
      test_states_length_validated;
    Alcotest.test_case "jammed whole square blacks out" `Quick
      test_channel_jammed_whole_square_blackout;
    Alcotest.test_case "asymmetric directional taus" `Quick
      test_channel_asymmetric_directional;
    Alcotest.test_case "asymmetric per-direction rates" `Slow
      test_channel_asymmetric_rates;
    Alcotest.test_case "bursty plan replayable" `Quick
      test_channel_bursty_plan_replay;
    Alcotest.test_case "bursty delivery tracks chain" `Quick
      test_channel_bursty_extremes_track_chain;
    Alcotest.test_case "bursty stationary fraction" `Slow
      test_channel_bursty_stationary_fraction;
    Alcotest.test_case "bursty fades persist" `Slow
      test_channel_bursty_runs_are_bursty;
    Alcotest.test_case "asymmetric/bursty validation" `Quick
      test_channel_asym_bursty_validation;
    Alcotest.test_case "differential localizer names the divergence" `Quick
      test_localizer;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_jammed_disjoint_is_bernoulli ]
