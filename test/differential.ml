(* The differential harness every executor-equivalence battery shares:
   one case language (static and motion cases, with their generators,
   shrinkers and printers), one runner per executor (dense walk, sparse
   frontier, flat planes at any domain count) and one comparator over the
   whole run record that names the first divergent field, round or node.

   Static and motion cases alike become a [world]: a same-seeded setup
   built fresh per execution (deployment, fleet sub-streams and every
   sequential plan-evaluation draw line up by construction; everything
   in-round is counter-keyed), plus the channel, scheduler and churn plan
   all executors share. *)

module Graph = Ss_topology.Graph
module Builders = Ss_topology.Builders
module Motion = Ss_topology.Motion
module Bbox = Ss_geom.Bbox
module Channel = Ss_radio.Channel
module Scheduler = Ss_engine.Scheduler
module Churn = Ss_engine.Churn
module Engine = Ss_engine.Engine
module Flat = Ss_engine.Flat
module Protocol = Ss_engine.Protocol
module Adversary = Ss_engine.Adversary
module Model = Ss_mobility.Model
module Fleet = Ss_mobility.Fleet
module Distributed = Ss_cluster.Distributed
module Rng = Ss_prng.Rng

(* ------------------------------------------------------------ the world *)

type world = {
  setup : unit -> Rng.t * Graph.t * Engine.motion_hook option;
  channel : Channel.t;
  scheduler : Scheduler.t;
  churn : Churn.t;
  max_rounds : int;
  quiet_rounds : int;
  warm_seed : int option; (* warm-start states drawn from this seed *)
}

let jam_region = Bbox.make ~min_x:0.2 ~min_y:0.2 ~max_x:0.8 ~max_y:0.8

(* 0 perfect / 1 bernoulli / 2 jammed / 3 slotted / 4 asymmetric /
   5 bursty. The keyed channels draw their per-edge parameters from
   [seed]. The jammed channel needs node positions. *)
let channel_count = 6

let build_channel ~seed kind =
  match kind mod channel_count with
  | 0 -> Channel.perfect
  | 1 -> Channel.bernoulli 0.7
  | 2 -> Channel.jammed ~tau:0.9 ~region:jam_region ~jam_tau:0.3
  | 3 -> Channel.slotted ~slots:4
  | 4 -> Channel.asymmetric ~seed:(seed + 2) ~tau_lo:0.4 ~tau_hi:1.0
  | _ ->
      Channel.bursty ~seed:(seed + 3) ~tau_good:0.9 ~tau_bad:0.1 ~p_fade:0.15
        ~p_recover:0.4

let build_scheduler kind =
  match kind mod 3 with
  | 0 -> Scheduler.Synchronous
  | 1 -> Scheduler.Sequential
  | _ -> Scheduler.Random_order

let cache_ttl ttl = 1 + (ttl mod 4)

(* 0 basic / 1 with DAG names / 2 improved (incumbent tie-break and
   fusion) / 3 improved with DAG names: the four rule sets of [Config]. *)
let configs =
  [|
    ("basic", Ss_cluster.Config.basic);
    ("with_dag", Ss_cluster.Config.with_dag);
    ("improved", Ss_cluster.Config.improved);
    ("improved_with_dag", Ss_cluster.Config.improved_with_dag);
  |]

let config_name algo = fst configs.(algo mod Array.length configs)

(* The full protocol stack at a case's rule set and cache TTL. *)
let protocol ~algo ttl =
  (module Distributed.Make (struct
    let params =
      {
        Distributed.default_params with
        algo = snd configs.(algo mod Array.length configs);
        cache_ttl = cache_ttl ttl;
      }
  end) : Protocol.FLAT
    with type state = Distributed.state
     and type message = Distributed.message)

(* ------------------------------------------------------- static cases *)

type case = {
  seed : int;
  graph_kind : int; (* 0 path / 1 cycle / 2 complete / 3 gnp / 4 geo grid *)
  size : int;
  channel_kind : int; (* [build_channel] *)
  sched_kind : int; (* 0 synchronous / 1 sequential / 2 random order *)
  ttl : int; (* cache TTL 1 + ttl mod 4 *)
  algo : int; (* the rule set [configs.(algo mod 4)] *)
  fault : int * int; (* (round, count): a corruption burst; count 0: none *)
  plan : (int * int * int) list; (* (round, event kind, victim) *)
  warm : bool; (* warm-start every executor from one shared array *)
  byz : (int * int) list; (* (node, behavior) selectors; [] honest *)
  from_round : int; (* the roster's activation round, 1 + mod 12 *)
}

let case0 =
  {
    seed = 0;
    graph_kind = 0;
    size = 4;
    channel_kind = 0;
    sched_kind = 0;
    ttl = 0;
    algo = 0;
    fault = (1, 0);
    plan = [];
    warm = false;
    byz = [];
    from_round = 0;
  }

(* The jammed channel forces the geometric grid regardless of
   [graph_kind]. *)
let build_graph c =
  let size = max 4 c.size in
  let kind = if c.channel_kind mod channel_count = 2 then 4 else c.graph_kind in
  match kind with
  | 0 -> Builders.path size
  | 1 -> Builders.cycle size
  | 2 -> Builders.complete (min size 10)
  | 3 -> Builders.gnp (Rng.create ~seed:(c.seed + 1)) ~n:size ~p:0.25
  | _ -> Builders.geometric_grid ~cols:4 ~rows:(max 2 (size / 4)) ~radius:0.45

(* Inapplicable events (joining an alive node, downing an already-downed
   link) are skipped by the engine, identically in every executor, so any
   triple is a valid plan entry. Link events must name base-graph edges
   ([Dynamic] rejects others), so the victim indexes the edge list. The
   fault burst is a [Churn.corrupt_count] on top. *)
let build_plan c graph =
  let n = Graph.node_count graph in
  let edges = Array.of_list (Graph.edges graph) in
  let events =
    Churn.schedule
      (List.map
         (fun (round, kind, victim) ->
           let v = victim mod n in
           let link () = edges.(victim mod Array.length edges) in
           let ev =
             match kind mod 7 with
             | 0 -> Churn.Crash v
             | 1 -> Churn.Join v
             | 2 -> Churn.Sleep v
             | 3 -> Churn.Wake v
             | (4 | 5) when Array.length edges = 0 -> Churn.Crash v
             | 4 ->
                 let p, q = link () in
                 Churn.Link_down (p, q)
             | 5 ->
                 let p, q = link () in
                 Churn.Link_up (p, q)
             | _ -> Churn.Corrupt v
           in
           (1 + (round mod 12), [ ev ]))
         c.plan)
  in
  match c.fault with
  | _, 0 -> events
  | round, count ->
      Churn.compose [ events; Churn.corrupt_count ~round ~count ]

(* Roster selectors fold onto the graph; a duplicate node keeps its first
   behavior (Wrap rejects duplicate roster entries). *)
let roster c n =
  let seen = Hashtbl.create 4 in
  List.filter_map
    (fun (node, b) ->
      let p = node mod n in
      if Hashtbl.mem seen p then None
      else begin
        Hashtbl.add seen p ();
        Some (p, List.nth Adversary.behaviors (b mod 4))
      end)
    c.byz

let activation c = 1 + (c.from_round mod 12)

let static_world c =
  let graph = build_graph c in
  {
    setup = (fun () -> (Rng.create ~seed:c.seed, graph, None));
    channel = build_channel ~seed:c.seed c.channel_kind;
    scheduler = build_scheduler c.sched_kind;
    churn = build_plan c graph;
    max_rounds = 40;
    quiet_rounds = 2;
    warm_seed = (if c.warm then Some (c.seed + 7) else None);
  }

let print_triples l =
  String.concat "; "
    (List.map (fun (r, k, v) -> Printf.sprintf "(%d,%d,%d)" r k v) l)

let print_case c =
  Printf.sprintf
    "seed=%d graph=%d size=%d channel=%d sched=%d ttl=%d algo=%s \
     fault=(%d,%d) warm=%b plan=[%s]%s"
    c.seed c.graph_kind (max 4 c.size)
    (c.channel_kind mod channel_count)
    (c.sched_kind mod 3) (cache_ttl c.ttl) (config_name c.algo) (fst c.fault)
    (snd c.fault) c.warm
    (print_triples c.plan)
    (if c.byz = [] then ""
     else
       Printf.sprintf " from=%d byz=[%s]" (activation c)
         (String.concat "; "
            (List.map (fun (p, b) -> Printf.sprintf "(%d,%d)" p b) c.byz)))

(* [~byz:true] draws a roster of one to four Byzantine nodes; every other
   battery runs honest nodes only. *)
let gen_case ?(byz = false) () =
  QCheck.Gen.(
    map
      (fun ( ((seed, graph_kind, size), (channel_kind, sched_kind, ttl)),
             (fault, plan, warm),
             (byz, from_round, algo) ) ->
        {
          seed;
          graph_kind;
          size;
          channel_kind;
          sched_kind;
          ttl;
          algo;
          fault;
          plan;
          warm;
          byz;
          from_round;
        })
      (triple
         (pair
            (triple (int_range 0 999_999) (int_range 0 4) (int_range 4 30))
            (triple
               (int_range 0 (channel_count - 1))
               (int_range 0 2) (int_range 0 3)))
         (triple
            (pair (int_range 1 12) (int_range 0 3))
            (list_size (int_range 0 10)
               (triple (int_range 0 11) (int_range 0 6) (int_range 0 999)))
            bool)
         (triple
            (if byz then
               list_size (int_range 1 4)
                 (pair (int_range 0 999) (int_range 0 3))
             else return [])
            (int_range 0 11)
            (int_range 0 (Array.length configs - 1)))))

(* Shrink the plan first (most failures are event interactions), then
   the roster, the fault burst and the warm start, then the size; the
   channel, scheduler and rule-set selectors stay fixed so the shrunk
   case keeps the failing regime. *)
let shrink_case c yield =
  QCheck.Shrink.list c.plan (fun plan -> yield { c with plan });
  QCheck.Shrink.list c.byz (fun byz -> if byz <> [] then yield { c with byz });
  if snd c.fault > 0 then yield { c with fault = (fst c.fault, 0) };
  if c.warm then yield { c with warm = false };
  if c.size > 4 then
    QCheck.Shrink.int c.size (fun size -> if size >= 4 then yield { c with size })

let arb_case ?byz () =
  QCheck.make ~print:print_case ~shrink:shrink_case (gen_case ?byz ())

(* ------------------------------------------------------- motion cases *)

type sim = {
  s_seed : int;
  s_n : int;
  s_model : int; (* 0 static / 1 slow walk / 2 vehicular / 3 wp pause / 4 wp *)
  s_channel : int; (* [build_channel] *)
  s_sched : int;
  s_ttl : int;
  s_algo : int; (* the rule set [configs.(s_algo mod 4)] *)
  s_dt : int; (* index into [dts] *)
  s_plan : (int * int * int) list; (* (round, event kind, victim) *)
}

let dts = [| 0.25; 1.0; 5.0; 30.0 |]

(* Speeds span sub-cell drifts (slow walk at small dt) to whole-box jumps
   (fast waypoint at dt 30). *)
let build_model = function
  | 0 -> Model.static
  | 1 -> Model.random_walk ~speed_min:0.001 ~speed_max:0.01 ()
  | 2 -> Model.vehicular
  | 3 -> Model.random_waypoint ~pause:2.0 ~speed_min:0.0 ~speed_max:0.05 ()
  | _ -> Model.random_waypoint ~speed_min:0.01 ~speed_max:0.2 ()

(* Node events only: a random link event names an edge of the initial
   graph, but motion may have rebased that edge away by the time the plan
   fires, and [Dynamic] (correctly) rejects non-base links. Link flapping
   on a static base is the static cases' job. *)
let build_sim_plan c =
  let n = max 4 c.s_n in
  Churn.schedule
    (List.map
       (fun (round, kind, victim) ->
         let v = victim mod n in
         let ev =
           match kind mod 5 with
           | 0 -> Churn.Crash v
           | 1 -> Churn.Join v
           | 2 -> Churn.Sleep v
           | 3 -> Churn.Wake v
           | _ -> Churn.Corrupt v
         in
         (1 + (round mod 10), [ ev ]))
       c.s_plan)

(* Report even a flip-free flush: on a position-dependent channel the
   moved nodes alone must reach the frontier. *)
let sim_setup c () =
  let model = build_model (c.s_model mod 5) in
  let dt = dts.(c.s_dt mod Array.length dts) in
  let n = max 4 c.s_n in
  let rng = Rng.create ~seed:c.s_seed in
  let start = Array.init n (fun _ -> Bbox.sample rng Bbox.unit_square) in
  let fleet = Fleet.create rng ~model ~box:Bbox.unit_square start in
  let motion = Motion.create ~radius:0.3 start in
  let hook ~round:_ =
    let moved = Fleet.step_moved fleet dt (fun i p -> Motion.move motion i p) in
    if moved = 0 then None
    else
      let diff = Motion.flush motion in
      Some (Motion.graph motion, diff)
  in
  (rng, Motion.graph motion, Some hook)

let motion_world c =
  {
    setup = sim_setup c;
    channel = build_channel ~seed:c.s_seed c.s_channel;
    scheduler = build_scheduler c.s_sched;
    churn = build_sim_plan c;
    max_rounds = 30;
    quiet_rounds = 3;
    warm_seed = None;
  }

let print_sim c =
  Printf.sprintf
    "seed=%d n=%d model=%d channel=%d sched=%d ttl=%d algo=%s dt=%.2f \
     plan=[%s]"
    c.s_seed (max 4 c.s_n) (c.s_model mod 5)
    (c.s_channel mod channel_count)
    (c.s_sched mod 3) (cache_ttl c.s_ttl) (config_name c.s_algo)
    dts.(c.s_dt mod Array.length dts)
    (print_triples c.s_plan)

let gen_sim =
  QCheck.Gen.(
    map
      (fun ( (s_seed, s_n, s_model),
             (s_channel, s_sched, s_ttl),
             (s_algo, s_dt, s_plan) ) ->
        { s_seed; s_n; s_model; s_channel; s_sched; s_ttl; s_algo; s_dt; s_plan })
      (triple
         (triple (int_range 0 999_999) (int_range 4 30) (int_range 0 4))
         (triple
            (int_range 0 (channel_count - 1))
            (int_range 0 2) (int_range 0 3))
         (triple
            (int_range 0 (Array.length configs - 1))
            (int_range 0 3)
            (list_size (int_range 0 8)
               (triple (int_range 0 9) (int_range 0 4) (int_range 0 999))))))

let shrink_sim c yield =
  QCheck.Shrink.list c.s_plan (fun s_plan -> yield { c with s_plan });
  if c.s_n > 4 then
    QCheck.Shrink.int c.s_n (fun s_n -> if s_n >= 4 then yield { c with s_n })

let arb_sim = QCheck.make ~print:print_sim ~shrink:shrink_sim gen_sim

(* ---------------------------------------------- runners and comparator *)

(* What a battery supplies besides the protocol: its corruption and its
   sparse-mode warm hook. *)
module type HOOKS = sig
  type state

  val corrupt : Rng.t -> int -> state -> state
  val warm : state -> bool
end

module Distributed_hooks = struct
  type state = Distributed.state

  let corrupt = Distributed.corrupt
  let warm = Distributed.pending_expiry
end

(* The first entry of two lists keyed by round where they differ, with
   what each side holds at that round. *)
let first_by_round key xs ys =
  let rec go = function
    | x :: xs, y :: ys when x = y -> go (xs, ys)
    | [], [] -> None
    | xs, ys ->
        let head = function x :: _ -> Some x | [] -> None in
        let r =
          match (head xs, head ys) with
          | Some x, Some y -> min (key x) (key y)
          | Some x, None | None, Some x -> key x
          | None, None -> assert false
        in
        let at l = List.find_opt (fun x -> key x = r) l in
        Some (r, at xs, at ys)
  in
  go (xs, ys)

let first_node n differs =
  let rec go p = if p >= n then None else if differs p then Some p else go (p + 1) in
  go 0

let ints l = "[" ^ String.concat "; " (List.map string_of_int l) ^ "]"

module Run (P : Protocol.S) (H : HOOKS with type state = P.state) = struct
  module E = Engine.Make (P)

  let initial w =
    Option.map
      (fun seed ->
        let _, graph, _ = w.setup () in
        E.init_states (Rng.create ~seed) graph)
      w.warm_seed

  let typed mode ?states ?probe ?on_round ?on_event ?workload w =
    let rng, graph, motion = w.setup () in
    E.run ~mode ~scheduler:w.scheduler ~channel:w.channel
      ~max_rounds:w.max_rounds ~quiet_rounds:w.quiet_rounds ~churn:w.churn
      ~corrupt:H.corrupt ?motion ?probe ?on_round ?on_event ?workload ?states
      rng graph

  let sparse_mode = E.Sparse { warm = Some H.warm }
  let dense = typed E.Dense
  let sparse = typed sparse_mode

  (* [None] when the two runs agree on every field — states modulo
     [P.equal_state], or structurally with [~exact:true] — else the
     first divergence, named "field: round r: ..." or "field: node p:
     ...". Fields are tried in round order first: the per-round history,
     the corruption and burst records, the run length; then the per-node
     final values. *)
  let diff ?(exact = false) ~left ~right (a : E.run) (b : E.run) =
    let sides pp x y = Printf.sprintf "%s %s, %s %s" left (pp x) right (pp y) in
    let opt pp = function Some x -> pp x | None -> "none" in
    let scalar name pp x y =
      if x = y then None else Some (Printf.sprintf "%s: %s" name (sides pp x y))
    in
    let by_round name key pp xs ys =
      Option.map
        (fun (r, x, y) ->
          Printf.sprintf "%s: round %d: %s" name r (sides (opt pp) x y))
        (first_by_round key xs ys)
    in
    let per_node name pp differs xa xb =
      if Array.length xa <> Array.length xb then
        Some
          (Printf.sprintf "%s: length: %s" name
             (sides string_of_int (Array.length xa) (Array.length xb)))
      else
        Option.map
          (fun p ->
            Printf.sprintf "%s: node %d: %s" name p (sides pp xa.(p) xb.(p)))
          (first_node (Array.length xa) (fun p -> differs xa.(p) xb.(p)))
    in
    let history r = List.mapi (fun i k -> (i + 1, k)) r.E.change_history in
    let burst (b : Engine.burst) =
      Printf.sprintf "[%d..%d] %d events, recovery %s" b.Engine.burst_start
        b.Engine.burst_end b.Engine.burst_events
        (opt string_of_int b.Engine.recovery_rounds)
    in
    let rows g = Array.init (Graph.node_count g) (Graph.neighbors g) in
    let same_state x y = if exact then x = y else P.equal_state x y in
    let checks =
      [
        (fun () ->
          by_round "change_history" fst
            (fun (_, k) -> string_of_int k)
            (history a) (history b));
        (fun () ->
          by_round "faults"
            (fun f -> f.Engine.fault_round)
            (fun f -> ints f.Engine.corrupted)
            a.E.faults b.E.faults);
        (fun () ->
          by_round "bursts" (fun b -> b.Engine.burst_start) burst a.E.bursts
            b.E.bursts);
        (fun () -> scalar "rounds" string_of_int a.E.rounds b.E.rounds);
        (fun () ->
          scalar "converged" string_of_bool a.E.converged b.E.converged);
        (fun () ->
          scalar "last_change_round" string_of_int a.E.last_change_round
            b.E.last_change_round);
        (fun () -> per_node "alive" string_of_bool ( <> ) a.E.alive b.E.alive);
        (fun () ->
          per_node "graph"
            (fun row -> ints (Array.to_list row))
            ( <> ) (rows a.E.graph) (rows b.E.graph));
        (fun () ->
          per_node "changed_at" string_of_int ( <> ) a.E.changed_at
            b.E.changed_at);
        (fun () ->
          if Array.length a.E.states <> Array.length b.E.states then
            per_node "states" string_of_int ( <> )
              [| Array.length a.E.states |]
              [| Array.length b.E.states |]
          else
            Option.map
              (fun p ->
                Printf.sprintf "states: node %d: %s and %s differ (%s)" p left
                  right
                  (if exact then "structurally" else "equal_state"))
              (first_node (Array.length a.E.states) (fun p ->
                   not (same_state a.E.states.(p) b.E.states.(p)))));
      ]
    in
    List.find_map (fun check -> check ()) checks
end

module Run_flat (P : Protocol.FLAT) (H : HOOKS with type state = P.state) =
struct
  include Run (P) (H)
  module F = Flat.Make (P)

  let flat ~domains ?states ?on_round ?workload w : E.run =
    let rng, graph, motion = w.setup () in
    F.run ~scheduler:w.scheduler ~channel:w.channel ~max_rounds:w.max_rounds
      ~quiet_rounds:w.quiet_rounds ~churn:w.churn ~corrupt:H.corrupt ?motion
      ?on_round ?workload ~domains ?states rng graph
end

(* The first failing comparison, in order. *)
let first checks = List.find_map (fun check -> check ()) checks

(* A property's verdict: a divergence fails the test with its message. *)
let holds = function
  | None -> true
  | Some msg -> QCheck.Test.fail_reportf "%s" msg
