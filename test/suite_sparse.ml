(* The sparse executor's proof obligation: a differential battery pitting
   [~mode:sparse] against the dense reference walk over random
   (graph x channel x scheduler x churn plan x cache TTL) cases, on the
   full protocol stack. The two runs must agree on every observable —
   final states modulo [equal_state], round count, stabilization round,
   per-round change history, burst/recovery attribution, fault reports,
   per-node last-change rounds and, when a case injects faults, a
   per-round probe trace. Counter-keyed in-round randomness
   makes the comparison bit-exact even on lossy and slotted channels;
   any frontier-rule bug (an under-marked node whose input changed
   behind the dirty-set's back) shows up as a divergence, and QCheck
   shrinks the plan to a minimal counterexample. *)

module Graph = Ss_topology.Graph
module Builders = Ss_topology.Builders
module Bbox = Ss_geom.Bbox
module Channel = Ss_radio.Channel
module Scheduler = Ss_engine.Scheduler
module Churn = Ss_engine.Churn
module Engine = Ss_engine.Engine
module Distributed = Ss_cluster.Distributed
module Invariants = Ss_cluster.Invariants
module Fault = Ss_engine.Fault
module Rng = Ss_prng.Rng

type case = {
  seed : int;
  graph_kind : int;  (* 0 path / 1 cycle / 2 complete / 3 gnp / 4 geo grid *)
  size : int;
  channel_kind : int;  (* 0 perfect / 1 bernoulli / 2 jammed / 3 slotted *)
  sched_kind : int;  (* 0 synchronous / 1 sequential / 2 random order *)
  ttl : int;
  fault : int * int;
      (* (round, count): a fault hook corrupting [count] nodes at [round],
         with a probe tracing every round; count 0 runs unprobed *)
  plan : (int * int * int) list;  (* (round, event kind, victim) *)
}

(* The jammed channel needs node positions, so it forces the geometric
   grid regardless of [graph_kind]. *)
let build_graph c =
  let size = max 4 c.size in
  let kind = if c.channel_kind = 2 then 4 else c.graph_kind in
  match kind with
  | 0 -> Builders.path size
  | 1 -> Builders.cycle size
  | 2 -> Builders.complete (min size 10)
  | 3 -> Builders.gnp (Rng.create ~seed:(c.seed + 1)) ~n:size ~p:0.25
  | _ ->
      Builders.geometric_grid ~cols:4 ~rows:(max 2 (size / 4)) ~radius:0.45

let jam_region =
  Bbox.make ~min_x:0.2 ~min_y:0.2 ~max_x:0.8 ~max_y:0.8

let build_channel c =
  match c.channel_kind with
  | 0 -> Channel.perfect
  | 1 -> Channel.bernoulli 0.7
  | 2 -> Channel.jammed ~tau:0.9 ~region:jam_region ~jam_tau:0.3
  | _ -> Channel.slotted ~slots:4

let build_scheduler c =
  match c.sched_kind with
  | 0 -> Scheduler.Synchronous
  | 1 -> Scheduler.Sequential
  | _ -> Scheduler.Random_order

(* Inapplicable events (joining an alive node, downing an already-downed
   link) are skipped by the engine, identically in both modes, so any
   triple is a valid plan entry. Link events must name base-graph edges
   ([Dynamic] rejects others), so the victim indexes the edge list. *)
let build_plan c graph =
  let n = Graph.node_count graph in
  let edges = Array.of_list (Graph.edges graph) in
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

let run_case c =
  let module P = Distributed.Make (struct
    let params =
      { Distributed.default_params with cache_ttl = 1 + (c.ttl mod 4) }
  end) in
  let module E = Engine.Make (P) in
  let graph = build_graph c in
  let channel = build_channel c in
  let scheduler = build_scheduler c in
  let churn = build_plan c graph in
  (* Both modes must hand the fault hook and the probe the same states
     every round (a probe also makes the run keep immutable snapshots).
     Each mode's trace digests every round's (round, liveness, outputs). *)
  let fault_round, fault_count = c.fault in
  let hooks () =
    if fault_count = 0 then (None, None, ref [])
    else
      let trace = ref [] in
      let probe ~round ~graph ~alive states =
        trace := (round, Invariants.digest ~graph ~alive states) :: !trace
      in
      let fault =
        Fault.hook
          (Fault.at_round ~round:fault_round ~count:fault_count
             ~corrupt:Distributed.corrupt)
      in
      (Some fault, Some probe, trace)
  in
  let exec mode =
    (* Fresh same-seeded generators: the base key and every sequential
       plan-evaluation draw (init, churn victims, corrupt scrambles)
       line up by construction; everything in-round is counter-keyed. *)
    let rng = Rng.create ~seed:c.seed in
    let fault, probe, trace = hooks () in
    let r =
      E.run ~mode ~scheduler ~channel ~max_rounds:40 ~quiet_rounds:2 ~churn
        ~corrupt:Distributed.corrupt ?fault ?probe rng graph
    in
    (r, !trace)
  in
  let dense, dense_trace = exec E.Dense in
  let sparse, sparse_trace =
    exec (E.Sparse { warm = Some Distributed.pending_expiry })
  in
  let states_agree =
    Array.for_all2
      (fun a b -> P.equal_state a b)
      dense.E.states sparse.E.states
  in
  states_agree
  && dense.E.rounds = sparse.E.rounds
  && dense.E.converged = sparse.E.converged
  && dense.E.last_change_round = sparse.E.last_change_round
  && dense.E.change_history = sparse.E.change_history
  && dense.E.alive = sparse.E.alive
  && dense.E.bursts = sparse.E.bursts
  && dense.E.faults = sparse.E.faults
  && dense.E.changed_at = sparse.E.changed_at
  && dense_trace = sparse_trace

let print_case c =
  Printf.sprintf
    "seed=%d graph=%d size=%d channel=%d sched=%d ttl=%d fault=(%d,%d) \
     plan=[%s]"
    c.seed c.graph_kind c.size c.channel_kind c.sched_kind c.ttl
    (fst c.fault) (snd c.fault)
    (String.concat "; "
       (List.map
          (fun (r, k, v) -> Printf.sprintf "(%d,%d,%d)" r k v)
          c.plan))

let gen_case =
  QCheck.Gen.(
    map
      (fun ((seed, graph_kind, size), (channel_kind, sched_kind, ttl), fault, plan)
         ->
        { seed; graph_kind; size; channel_kind; sched_kind; ttl; fault; plan })
      (quad
         (triple (int_range 0 999_999) (int_range 0 4) (int_range 4 20))
         (triple (int_range 0 3) (int_range 0 2) (int_range 0 3))
         (pair (int_range 1 12) (int_range 0 3))
         (list_size (int_range 0 10)
            (triple (int_range 0 11) (int_range 0 6) (int_range 0 999)))))

(* Shrinking drops plan entries first (the usual culprit), then shrinks
   the topology; channel/scheduler/ttl selectors stay fixed so the
   shrunk case still exercises the failing configuration. *)
let shrink_case c yield =
  QCheck.Shrink.list c.plan (fun plan -> yield { c with plan });
  if c.size > 4 then QCheck.Shrink.int c.size (fun size ->
      if size >= 4 then yield { c with size })

let arb_case = QCheck.make ~print:print_case ~shrink:shrink_case gen_case

let prop_sparse_equals_dense =
  QCheck.Test.make ~name:"sparse run = dense run (all observables)"
    ~count:500 arb_case run_case

(* A directed pin on the warm hook: with a TTL larger than one, a
   corrupted cache entry must age out through rounds in which nothing
   else changes — exactly the regime where a sparse executor that
   stopped ticking warm nodes would freeze early and diverge. *)
let test_ttl_expiry_equivalence () =
  List.iter
    (fun ttl ->
      let c =
        {
          seed = 4242;
          graph_kind = 4;
          size = 16;
          channel_kind = 0;
          sched_kind = 0;
          ttl = ttl - 1;
          fault = (0, 0);
          plan = [ (4, 6, 5); (4, 6, 9); (9, 0, 2); (10, 1, 2) ];
        }
      in
      Alcotest.(check bool)
        (Printf.sprintf "ttl=%d equivalence" ttl)
        true (run_case c))
    [ 1; 2; 3; 4 ]

(* The frame cache: sparse receivers read each sender's stored emission,
   so [emit] runs once per node at start, once per executed step, and
   once per state rewrite (Join re-init, churn Corrupt, fault victim) —
   never once per receiver. Dense mode keeps re-emitting every delivered
   frame, one [emit] per message handed to [handle], which is what keeps
   it an independent reference for the cache. *)
module Counting (P : Ss_engine.Protocol.S) = struct
  include P

  let emits = ref 0
  let steps = ref 0
  let received = ref 0

  let emit graph p st =
    incr emits;
    P.emit graph p st

  let handle rng graph p st msgs =
    incr steps;
    received := !received + List.length msgs;
    P.handle rng graph p st msgs
end

let emit_counts c =
  let module P = Counting (Distributed.Make (struct
    let params =
      { Distributed.default_params with cache_ttl = 1 + (c.ttl mod 4) }
  end)) in
  let module E = Engine.Make (P) in
  let graph = build_graph c in
  let fault =
    Ss_engine.Fault.hook
      (Ss_engine.Fault.at_round ~round:3 ~count:2
         ~corrupt:Distributed.corrupt)
  in
  let exec mode =
    P.emits := 0;
    P.steps := 0;
    P.received := 0;
    let rewrites = ref 0 in
    let on_event ~round:_ = function
      | Churn.Join _ -> incr rewrites
      | _ -> ()
    in
    let on_round (info : Engine.round_info) =
      rewrites := !rewrites + List.length info.Engine.corrupted
    in
    ignore
      (E.run ~mode ~scheduler:(build_scheduler c) ~channel:(build_channel c)
         ~max_rounds:40 ~quiet_rounds:2 ~churn:(build_plan c graph)
         ~corrupt:Distributed.corrupt ~fault ~on_event ~on_round
         (Rng.create ~seed:c.seed) graph);
    (!P.emits, !P.steps, !P.received, !rewrites)
  in
  let n = Graph.node_count graph in
  let d_emits, _, d_received, _ = exec E.Dense in
  let s_emits, s_steps, _, s_rewrites =
    exec (E.Sparse { warm = Some Distributed.pending_expiry })
  in
  (n, (d_emits, d_received), (s_emits, s_steps, s_rewrites))

let prop_sparse_emits_once_per_step =
  QCheck.Test.make ~name:"sparse emits once per step; dense once per frame"
    ~count:200 arb_case (fun c ->
      let n, (d_emits, d_received), (s_emits, s_steps, s_rewrites) =
        emit_counts c
      in
      d_emits = d_received && s_emits <= n + s_steps + s_rewrites)

(* Output-change stamps: without churn or faults a stamp moves only when
   a step changes the node's outputs, so after round r exactly
   [round_info.changed] nodes carry stamp r. Checked live through the
   workload hook's reader (the hook fires after [on_round] in the same
   round) and on the final [changed_at] array. [run ~on_round ~workload]
   executes one run with both hooks attached and returns its
   [changed_at]; the flat battery reuses this. *)
let stamps_track_changes run =
  let changed = ref 0 and ok = ref true and rounds = ref [] in
  let on_round (info : Engine.round_info) = changed := info.Engine.changed in
  let workload ~round ~graph ~alive:_ ~(read : _ Engine.reader) =
    let k = ref 0 in
    for p = 0 to Graph.node_count graph - 1 do
      let s = read.Engine.changed_at p in
      if s = round then incr k;
      if s > round then ok := false
    done;
    if !k <> !changed then ok := false;
    rounds := (round, !k) :: !rounds;
    false
  in
  let final = run ~on_round ~workload in
  let count r =
    Array.fold_left (fun acc s -> if s = r then acc + 1 else acc) 0 final
  in
  (* The final stamps are each node's latest change: a round's count there
     is at most its live count, and equals it for the last round that
     changed anything (newest first in [rounds]). *)
  !ok
  && List.for_all (fun (r, k) -> count r <= k) !rounds
  &&
  match List.find_opt (fun (_, k) -> k > 0) !rounds with
  | None -> Array.for_all (( = ) 0) final
  | Some (r, k) -> count r = k && Array.for_all (fun s -> s <= r) final

let prop_sparse_stamps_track_changes =
  QCheck.Test.make ~name:"stamps: per-round stamp count = changed (churn-free)"
    ~count:150 arb_case (fun c ->
      let module P = Distributed.Make (struct
        let params =
          { Distributed.default_params with cache_ttl = 1 + (c.ttl mod 4) }
      end) in
      let module E = Engine.Make (P) in
      let graph = build_graph c in
      let exec mode ~on_round ~workload =
        (E.run ~mode ~scheduler:(build_scheduler c)
           ~channel:(build_channel c) ~max_rounds:40 ~quiet_rounds:2
           ~on_round ~workload (Rng.create ~seed:c.seed) graph)
          .E.changed_at
      in
      stamps_track_changes (exec E.Dense)
      && stamps_track_changes
           (exec (E.Sparse { warm = Some Distributed.pending_expiry })))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_sparse_equals_dense;
      prop_sparse_emits_once_per_step;
      prop_sparse_stamps_track_changes;
    ]

let suite =
  Alcotest.test_case "sparse: ttl expiry equivalence" `Quick
    test_ttl_expiry_equivalence
  :: qcheck_cases
