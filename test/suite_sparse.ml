(* The sparse executor's proof obligation: a differential battery pitting
   [~mode:sparse] against the dense reference walk over random
   (graph x channel x scheduler x churn plan x corruption burst x cache
   TTL x warm start) cases from [Differential], on the full protocol
   stack. The two runs must agree on the whole run record — final states
   modulo [equal_state], every other field exactly — and, when a case
   carries a corruption burst, on a per-round probe trace. Counter-keyed
   in-round randomness makes the comparison bit-exact even on lossy and
   slotted channels; any frontier-rule bug (an under-marked node whose
   input changed behind the dirty-set's back) shows up as a divergence
   named by field and round or node, and QCheck shrinks the plan to a
   minimal counterexample. *)

module Graph = Ss_topology.Graph
module Churn = Ss_engine.Churn
module Engine = Ss_engine.Engine
module Invariants = Ss_cluster.Invariants
module D = Differential

(* [None] when dense and sparse agree on the whole run record and, for
   cases with a fault burst, on a per-round probe trace; else the first
   divergence. Both modes must hand the probe the same states every round
   (a probe also makes the run keep immutable snapshots); each mode's
   trace digests every round's (round, liveness, outputs). *)
let run_case c =
  let module P = (val D.protocol ~algo:c.D.algo c.D.ttl) in
  let module R = D.Run (P) (D.Distributed_hooks) in
  let w = D.static_world c in
  let states = R.initial w in
  let exec mode =
    let trace = ref [] in
    let probe ~round ~graph ~alive states =
      trace := (round, Invariants.digest ~graph ~alive states) :: !trace
    in
    let probe = if snd c.D.fault = 0 then None else Some probe in
    let r = R.typed mode ?states ?probe w in
    (r, List.rev !trace)
  in
  let dense, dense_trace = exec R.E.Dense in
  let sparse, sparse_trace = exec R.sparse_mode in
  D.first
    [
      (fun () -> R.diff ~left:"dense" ~right:"sparse" dense sparse);
      (fun () ->
        Option.map
          (fun (r, _, _) -> Printf.sprintf "probe digest: round %d" r)
          (D.first_by_round fst dense_trace sparse_trace));
    ]

let prop_sparse_equals_dense =
  QCheck.Test.make ~name:"sparse run = dense run (all observables)"
    ~count:500 (D.arb_case ()) (fun c -> D.holds (run_case c))

(* A directed pin on the warm hook: with a TTL larger than one, a
   corrupted cache entry must age out through rounds in which nothing
   else changes — exactly the regime where a sparse executor that
   stopped ticking warm nodes would freeze early and diverge. *)
let test_ttl_expiry_equivalence () =
  List.iter
    (fun ttl ->
      let c =
        {
          D.case0 with
          seed = 4242;
          graph_kind = 4;
          size = 16;
          ttl = ttl - 1;
          plan = [ (4, 6, 5); (4, 6, 9); (9, 0, 2); (10, 1, 2) ];
        }
      in
      Alcotest.(check (option string))
        (Printf.sprintf "ttl=%d equivalence" ttl)
        None (run_case c))
    [ 1; 2; 3; 4 ]

(* The frame cache: sparse receivers read each sender's stored emission,
   so [emit] runs once per node at start, once per executed step, and
   once per state rewrite (Join re-init, churn Corrupt) —
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

(* Every case carries a two-node corruption burst at round 3. *)
let emit_counts c =
  let module P = Counting ((val D.protocol ~algo:c.D.algo c.D.ttl)) in
  let module R = D.Run (P) (D.Distributed_hooks) in
  let c = { c with D.fault = (3, 2); warm = false } in
  let w = D.static_world c in
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
    ignore (R.typed mode ~on_event ~on_round w);
    (!P.emits, !P.steps, !P.received, !rewrites)
  in
  let n = Graph.node_count (D.build_graph c) in
  let d_emits, _, d_received, _ = exec R.E.Dense in
  let s_emits, s_steps, _, s_rewrites = exec R.sparse_mode in
  (n, (d_emits, d_received), (s_emits, s_steps, s_rewrites))

let prop_sparse_emits_once_per_step =
  QCheck.Test.make ~name:"sparse emits once per step; dense once per frame"
    ~count:200 (D.arb_case ()) (fun c ->
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
    ~count:150 (D.arb_case ()) (fun c ->
      let module P = (val D.protocol ~algo:c.D.algo c.D.ttl) in
      let module R = D.Run (P) (D.Distributed_hooks) in
      let w = { (D.static_world c) with churn = Churn.nothing } in
      let exec mode ~on_round ~workload =
        (R.typed mode ~on_round ~workload w).R.E.changed_at
      in
      stamps_track_changes (exec R.E.Dense)
      && stamps_track_changes (exec R.sparse_mode))

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
