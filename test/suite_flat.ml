(* The flat executor's proof obligations, as differential batteries.

   (a) Flat = dense: [Flat.Make(P).run] must agree with the typed dense
       and sparse executors on the whole run record (final states modulo
       [equal_state], [Differential]'s comparator names the first
       divergent field) over random (graph x channel x scheduler x churn
       x corruption burst x TTL x warm start) cases on the full protocol
       stack. Any mismatch in the packed merge/election arithmetic, the
       frontier rules or the draw discipline shows up here, and QCheck
       shrinks the plan.
   (b) Domain independence: on synchronous rounds, 4 domains must equal
       1 domain bit-for-bit (structural equality on the unpacked states,
       not just [equal_state]) — the phase-split determinism argument.
   (c) Flat = dense under motion, including a position-dependent channel
       where pure movement flips deliveries without any edge flip.
   (d) Repack: [Flat.pack] then [Flat.unpack] is the identity on every
       run-evolved and every [corrupt]-produced state, for every shipped
       algorithm config — the sentinel encodings lose nothing.
   (e) The hot-path allocation fixes hold: a quiet sparse round and a
       reuse-mode rebase both allocate O(frontier)/O(diff), not O(n).
   (f) Locality layout: the flat planes hold node p at its BFS slot, and
       on a deployment whose labels are scrambled (slot <> id almost
       everywhere) pack/unpack, step = handle, flat = dense and 4 = 1
       domains all still hold, through a motion rebase; and a run under
       motion, churn and loss leaves every graph it read unwritten.
   (g) Row arenas: [alloc] and [pack] allocate nothing per node, and rows
       that outgrow their arena slice, in [pack] or in a step's commit,
       move out without touching their neighbours' slices. *)

module Graph = Ss_topology.Graph
module Builders = Ss_topology.Builders
module Dynamic = Ss_topology.Dynamic
module Motion = Ss_topology.Motion
module Traversal = Ss_topology.Traversal
module Vec2 = Ss_geom.Vec2
module Bbox = Ss_geom.Bbox
module Channel = Ss_radio.Channel
module Model = Ss_mobility.Model
module Fleet = Ss_mobility.Fleet
module Scheduler = Ss_engine.Scheduler
module Churn = Ss_engine.Churn
module Engine = Ss_engine.Engine
module Flat = Ss_engine.Flat
module Distributed = Ss_cluster.Distributed
module Config = Ss_cluster.Config
module Rng = Ss_prng.Rng
module D = Differential

(* ------------------------------------------- (a)+(b): static-base battery *)

(* Warm cases deliberately share ONE array across every execution below:
   the executors must neither mutate the caller's snapshot (the dense run
   would otherwise hand the flat runs pre-converged states and the change
   histories would trivially "agree" at zero) nor diverge on the warm
   path itself. *)
let run_case c =
  let module P = (val D.protocol ~algo:c.D.algo c.D.ttl) in
  let module R = D.Run_flat (P) (D.Distributed_hooks) in
  let w = D.static_world c in
  let states = R.initial w in
  let pristine = Option.map Array.copy states in
  let dense = R.dense ?states w in
  let sparse = R.sparse ?states w in
  let f1 = R.flat ~domains:1 ?states w in
  D.first
    [
      (fun () ->
        if states = pristine then None
        else Some "warm start: a run mutated the caller's states");
      (fun () -> R.diff ~left:"dense" ~right:"flat" dense f1);
      (fun () -> R.diff ~left:"sparse" ~right:"flat" sparse f1);
      (fun () ->
        (* Sharding only touches synchronous rounds; there the 4-domain
           run must be bit-identical — structural equality, caches
           included. *)
        if w.D.scheduler <> Scheduler.Synchronous then None
        else
          R.diff ~exact:true ~left:"flat/1" ~right:"flat/4" f1
            (R.flat ~domains:4 ?states w));
    ]

let prop_flat_equals_dense =
  QCheck.Test.make
    ~name:"flat = dense; 4 domains = 1 domain (all observables)" ~count:400
    (D.arb_case ())
    (fun c -> D.holds (run_case c))

(* The flat core's stamps count changes exactly like the typed
   executors' (the check is [Suite_sparse.stamps_track_changes]): the
   serial mark pass stamps synchronous rounds, at 1 and 4 domains. *)
let prop_flat_stamps_track_changes =
  QCheck.Test.make
    ~name:"flat stamps: per-round stamp count = changed (churn-free)"
    ~count:150 (D.arb_case ()) (fun c ->
      let module P = (val D.protocol ~algo:c.D.algo c.D.ttl) in
      let module R = D.Run_flat (P) (D.Distributed_hooks) in
      let w = { (D.static_world c) with churn = Churn.nothing } in
      let exec domains ~on_round ~workload =
        (R.flat ~domains ~on_round ~workload w).R.E.changed_at
      in
      Suite_sparse.stamps_track_changes (exec 1)
      && Suite_sparse.stamps_track_changes (exec 4))

(* A rewrite stamps its round even when no step moves the outputs after
   it: a node joined and crashed in the same round never steps, an
   identity [Corrupt] leaves a converged node's outputs as they were.
   The random battery rarely hits these, since a rewritten node usually
   changes on its next step and stamps the same round anyway. *)
let test_rewrite_stamps () =
  let module P = Distributed.Make (struct
    let params = Distributed.default_params
  end) in
  let module E = Engine.Make (P) in
  let module F = Flat.Make (P) in
  let graph = Builders.path 6 in
  let churn =
    Churn.schedule
      [
        (3, [ Churn.Crash 2 ]);
        (12, [ Churn.Join 2; Churn.Crash 2 ]);
        (14, [ Churn.Corrupt 4 ]);
      ]
  in
  let corrupt _ _ st = st in
  let check label (changed_at : int array) =
    Alcotest.(check int) (label ^ ": joined and crashed") 12 changed_at.(2);
    Alcotest.(check int) (label ^ ": identity Corrupt") 14 changed_at.(4)
  in
  let typed mode =
    (E.run ~mode ~max_rounds:30 ~quiet_rounds:3 ~churn ~corrupt
       (Rng.create ~seed:5) graph)
      .E.changed_at
  in
  check "dense" (typed E.Dense);
  check "sparse" (typed (E.Sparse { warm = Some Distributed.pending_expiry }));
  check "flat"
    (F.run ~max_rounds:30 ~quiet_rounds:3 ~churn ~corrupt
       (Rng.create ~seed:5) graph)
      .F.changed_at

(* ------------------------------------------------- (c): motion battery *)

let run_sim_case c =
  let module P = (val D.protocol ~algo:c.D.s_algo c.D.s_ttl) in
  let module R = D.Run_flat (P) (D.Distributed_hooks) in
  let w = D.motion_world c in
  R.diff ~left:"dense" ~right:"flat" (R.dense w) (R.flat ~domains:1 w)

let prop_flat_equals_dense_motion =
  QCheck.Test.make ~name:"flat = dense under motion (all observables)"
    ~count:200 D.arb_sim (fun c -> D.holds (run_sim_case c))

(* ------------------------------------------------------------- directed *)

(* Slotted channels memoize per-round slot draws lazily; the 4-domain run
   pre-warms the memo before sharding. A pin on that path plus the
   jammed (position-dependent) one. *)
let test_channel_domain_pins () =
  List.iter
    (fun (label, channel_kind) ->
      let c =
        {
          D.case0 with
          seed = 37;
          graph_kind = 4;
          size = 28;
          channel_kind;
          ttl = 1;
          plan = [ (2, 0, 5); (3, 6, 7); (5, 1, 5); (7, 4, 0); (9, 5, 0) ];
        }
      in
      Alcotest.(check (option string)) label None (run_case c))
    [ ("slotted 4-domain identity", 3); ("jammed 4-domain identity", 2) ]

(* (d) pack then unpack is the identity — on states evolved through a
   churny run and on corrupt-scrambled ones, for every shipped config
   and for custom global ids. Structural equality, caches included. *)
let test_repack_roundtrip () =
  let params_of algo =
    { Distributed.default_params with algo; cache_ttl = 2 }
  in
  let cases =
    [
      ("basic", params_of Config.basic);
      ("with_dag", params_of Config.with_dag);
      ("improved", params_of Config.improved);
      ("improved_with_dag", params_of Config.improved_with_dag);
      ( "custom-ids",
        {
          Distributed.default_params with
          ids = Some (Array.init 24 (fun i -> 911 - (7 * i)));
          cache_ttl = 3;
        } );
    ]
  in
  List.iter
    (fun (label, params0) ->
      let module P = Distributed.Make (struct
        let params = params0
      end) in
      let module E = Engine.Make (P) in
      let graph = Builders.gnp (Rng.create ~seed:5) ~n:24 ~p:0.2 in
      let churn =
        Churn.schedule
          [
            (3, [ Churn.Corrupt 1 ]);
            (5, [ Churn.Crash 2 ]);
            (7, [ Churn.Corrupt 3; Churn.Join 2 ]);
          ]
      in
      let rng = Rng.create ~seed:9 in
      let res =
        E.run ~mode:E.Dense ~max_rounds:12 ~quiet_rounds:2 ~churn
          ~corrupt:Distributed.corrupt rng graph
      in
      let buffers = P.Flat.alloc graph in
      let check_states tag states =
        Array.iteri (fun p st -> P.Flat.pack buffers p st) states;
        Array.iteri
          (fun p st ->
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s node %d" label tag p)
              true
              (P.Flat.unpack buffers p = st))
          states
      in
      check_states "evolved" res.E.states;
      let rng = Rng.create ~seed:13 in
      check_states "corrupted"
        (Array.mapi (fun p st -> Distributed.corrupt rng p st) res.E.states))
    cases

(* (e) Quiet sparse rounds allocate O(frontier), not O(n): the round loop
   must not shadow-copy the whole state array. Hold a converged path
   network open with a far-future churn horizon and compare minor-heap
   words across the same quiet window at two sizes. *)
let quiet_window_alloc n =
  let module P = Distributed.Make (struct
    let params = Distributed.default_params
  end) in
  let module E = Engine.Make (P) in
  let graph = Builders.path n in
  let churn = Churn.schedule [ (85, [ Churn.Corrupt 0 ]) ] in
  let w_lo = ref 0.0 and w_hi = ref 0.0 in
  let on_round info =
    if info.Engine.round = 40 then w_lo := Gc.minor_words ()
    else if info.Engine.round = 80 then w_hi := Gc.minor_words ()
  in
  let rng = Rng.create ~seed:42 in
  ignore
    (E.run
       ~mode:(E.Sparse { warm = Some Distributed.pending_expiry })
       ~max_rounds:90 ~quiet_rounds:2 ~churn ~corrupt:Distributed.corrupt
       ~on_round rng graph);
  !w_hi -. !w_lo

let test_sparse_quiet_alloc () =
  let small = quiet_window_alloc 256 in
  let big = quiet_window_alloc 2048 in
  Alcotest.(check bool)
    (Printf.sprintf
       "quiet-round allocation size-independent (256: %.0f, 2048: %.0f)" small
       big)
    true
    (big < (2.0 *. small) +. 16384.0)

(* And a reuse-mode rebase+snapshot cycle allocates O(diff): patched rows
   only, never a fresh n-row snapshot. *)
let rebase_cycle_alloc n =
  let g0 = Builders.path n in
  let g1 = Graph.of_edges ~n ((0, 2) :: Graph.edges g0) in
  let dyn = Dynamic.create ~reuse_snapshots:true g0 in
  let before = Gc.minor_words () in
  for _ = 1 to 64 do
    Dynamic.rebase dyn ~base:g1 ~added:[ (0, 2) ] ~removed:[];
    ignore (Dynamic.snapshot dyn);
    Dynamic.rebase dyn ~base:g0 ~added:[] ~removed:[ (0, 2) ];
    ignore (Dynamic.snapshot dyn)
  done;
  Gc.minor_words () -. before

let test_reuse_rebase_alloc () =
  let small = rebase_cycle_alloc 256 in
  let big = rebase_cycle_alloc 4096 in
  Alcotest.(check bool)
    (Printf.sprintf
       "reuse-mode rebase allocation size-independent (256: %.0f, 4096: %.0f)"
       small big)
    true
    (big < (2.0 *. small) +. 8192.0)

(* (f) A flat step allocates nothing once scratch has grown, except the
   generator on the N1 re-pick's draw path. Converge a deployment, then
   drive [P.Flat.step] and [refresh_emit] by hand with perturbed inputs:
   every round each node misses one neighbor's frame (a rotating drop, so
   cache entries carry over and the far plane merges old and fresh) and
   three nodes are corrupted (names collide, elections move). The full
   merge path runs, not just the steady layout. Steps that re-picked a name
   are counted and excluded; everything else must read 0 words. *)
let step_alloc n =
  let module P = Distributed.Make (struct
    let params =
      { Distributed.default_params with algo = Config.improved_with_dag }
  end) in
  let module F = Flat.Make (P) in
  let radius = sqrt (8.0 /. (Float.pi *. float_of_int n)) in
  let graph =
    Builders.random_geometric_count (Rng.create ~seed:3) ~count:n ~radius
  in
  let n = Graph.node_count graph in
  let settled =
    F.run ~max_rounds:300 ~quiet_rounds:5 (Rng.create ~seed:4) graph
  in
  let b = P.Flat.alloc graph in
  let s = P.Flat.scratch b in
  Array.iteri (P.Flat.pack b) settled.F.states;
  for p = 0 to n - 1 do
    ignore (P.Flat.refresh_emit b s p)
  done;
  let senders = Array.init n (fun p -> Array.copy (Graph.neighbors graph p)) in
  let scramble = Rng.create ~seed:5 in
  let hkey = Rng.key ~seed:6 in
  let overhead =
    let w0 = Gc.minor_words () in
    let w1 = Gc.minor_words () in
    w1 -. w0
  in
  let words = ref 0.0 and steps = ref 0 and repicks = ref 0 in
  let changed = ref 0 in
  let round r ~measure =
    P.Flat.tick b;
    for k = 0 to 2 do
      let v = ((r * 31) + (k * 97)) mod n in
      P.Flat.pack b v (Distributed.corrupt scramble v (P.Flat.unpack b v))
    done;
    (* and one node takes the name of its highest neighbor, so its next
       step loses the name and re-picks *)
    let v = (r * 53) mod n in
    let nbrs = Graph.neighbors graph v in
    if Array.length nbrs > 0 then begin
      let q = nbrs.(Array.length nbrs - 1) in
      let st = P.Flat.unpack b v in
      P.Flat.pack b v { st with dag = (P.Flat.unpack b q).Distributed.dag }
    end;
    let key = Rng.subkey hkey r in
    for p = 0 to n - 1 do
      let nbrs = Graph.neighbors graph p in
      let drop = r mod (Array.length nbrs + 1) in
      let count = ref 0 in
      Array.iteri
        (fun i q ->
          if i <> drop then begin
            senders.(p).(!count) <- q;
            incr count
          end)
        nbrs;
      let count = !count in
      let before = P.Flat.unpack b p in
      let w0 = Gc.minor_words () in
      let moved = P.Flat.step b s key p ~senders:senders.(p) ~count in
      let w1 = Gc.minor_words () in
      let after = P.Flat.unpack b p in
      (* N1 draws iff some new cache entry holds the old name with a
         stronger (gid, index) claim — the typed resolve_dag's test. *)
      let drew =
        List.exists
          (fun (q, (e : Distributed.entry)) ->
            e.e_dag = before.Distributed.dag
            && (before.gid < e.e_gid || (before.gid = e.e_gid && p < q)))
          after.Distributed.cache
      in
      if measure then
        if drew then incr repicks
        else begin
          words := !words +. (w1 -. w0 -. overhead);
          incr steps;
          if moved then incr changed
        end
    done;
    for p = 0 to n - 1 do
      let w0 = Gc.minor_words () in
      ignore (P.Flat.refresh_emit b s p);
      let w1 = Gc.minor_words () in
      if measure then words := !words +. (w1 -. w0 -. overhead)
    done
  in
  for r = 1 to 4 do
    round r ~measure:false
  done;
  for r = 5 to 12 do
    round r ~measure:true
  done;
  (!words, !steps, !repicks, !changed)

let test_flat_step_alloc () =
  List.iter
    (fun n ->
      let words, steps, repicks, changed = step_alloc n in
      Alcotest.(check bool)
        (Printf.sprintf
           "n=%d: %.0f words over %d steps (%d changed, %d re-picks excluded)"
           n words steps changed repicks)
        true
        (words = 0.0 && steps > 0 && changed > 0))
    [ 200; 1600 ]

(* The stamp-plane far merge and density count against the typed
   [handle], on hand-built states the random battery rarely reaches:
   two senders relay the same 2-hop node with different summaries (the
   later sender's must win), the stepping node appears in a sender's
   summaries (it must be skipped), and cache keys and claims outside
   [0, n) — negative and >= n, as a packed arbitrary state may carry —
   reach both the far path and the density path. Node 2 steps with
   senders 1 and 3; with [collide] its name equals sender 3's and
   sender 3 holds the larger gid, so N1 must draw, identically. The
   same states then warm-start whole runs: flat at [domains] must equal
   the typed dense run on every observable. *)
let hand_built ~collide =
  let density l n = Some (Ss_cluster.Density.make ~links:l ~nodes:n) in
  let entry ?head heard dag d nbrs =
    {
      Distributed.e_heard = heard;
      e_gid = 40 + dag;
      e_dag = dag;
      e_density = d;
      e_head = head;
      e_nbrs = nbrs;
    }
  in
  let far heard d eff is_head =
    {
      Distributed.f_heard = heard;
      f_density = d;
      f_eff = eff;
      f_is_head = is_head;
    }
  in
  let node ~gid ~dag ~cache ~far =
    {
      Distributed.clock = 5;
      gamma = 12;
      gid;
      dag;
      density = density 3 2;
      parent = None;
      head = None;
      cache;
      far;
    }
  in
  let plain p = node ~gid:p ~dag:p ~cache:[] ~far:[] in
  let sender1 =
    node ~gid:11 ~dag:1
      ~cache:
        [
          (0, entry 5 0 (density 2 2) [| 1 |]);
          (2, entry 5 2 (density 3 2) [| 1; 3 |]);
          (5, entry 5 4 (density 1 1) [| 3 |]);
          (17, entry 5 0 (density 1 1) [||]);
        ]
      ~far:[]
  in
  let sender3 =
    node ~gid:33 ~dag:3
      ~cache:
        [
          (-4, entry 4 9 (density 6 3) [| 3 |]);
          (2, entry 5 2 (density 3 2) [| 1; 3 |]);
          (4, entry 5 8 (density 1 1) [| 3 |]);
          (5, entry ~head:5 5 6 (density 9 2) [| 3; 17 |]);
          (9, entry 5 10 None [| -7 |]);
          (17, entry 3 11 (density 5 5) [||]);
        ]
      ~far:[]
  in
  let receiver =
    node ~gid:2
      ~dag:(if collide then 3 else 7)
      ~cache:
        [
          (-7, entry 5 5 (density 2 1) [| -4; 9 |]);
          (-4, entry 4 9 (density 6 3) [| 9; 17; -7 |]);
          (1, entry 3 1 (density 4 2) [| 2 |]);
          (9, entry 5 10 (density 1 1) [| -7 |]);
        ]
      ~far:
        [
          (-4, far 5 (density 6 3) 9 false);
          (0, far 3 (density 2 2) 0 false);
          (5, far 5 (density 1 1) 4 false);
          (17, far 4 (density 5 5) 11 true);
        ]
  in
  [| plain 0; sender1; receiver; sender3; plain 4; plain 5 |]

let hand_graph () =
  Graph.of_edges ~n:6 [ (0, 1); (1, 2); (2, 3); (3, 4); (3, 5) ]

let test_hand_built_merge ~domains () =
  List.iter
    (fun (label, algo) ->
      let module P = Distributed.Make (struct
        let params = { Distributed.default_params with algo }
      end) in
      let module E = Engine.Make (P) in
      let module F = Flat.Make (P) in
      let graph = hand_graph () in
      List.iter
        (fun collide ->
          let states = hand_built ~collide in
          let tag = Printf.sprintf "%s collide=%b" label collide in
          (* One buffer set and one scratch across every key: the stamp
             plane's tokens must separate the uses. *)
          let b = P.Flat.alloc graph in
          let s = P.Flat.scratch b in
          let msgs =
            List.map (fun q -> (q, P.emit graph q states.(q))) [ 1; 3 ]
          in
          let renamed = ref false in
          for k = 0 to 7 do
            Array.iteri (P.Flat.pack b) states;
            Array.iteri (fun p _ -> ignore (P.Flat.refresh_emit b s p)) states;
            let hkey = Rng.key ~seed:(100 + k) in
            ignore (P.Flat.step b s hkey 2 ~senders:[| 1; 3 |] ~count:2);
            let typed =
              P.handle (Rng.of_key (Rng.subkey hkey 2)) graph 2 states.(2) msgs
            in
            let flat = P.Flat.unpack b 2 in
            if typed.Distributed.dag <> states.(2).Distributed.dag then
              renamed := true;
            Alcotest.(check bool)
              (Printf.sprintf "%s key %d: unpack (step) = handle" tag k)
              true (flat = typed)
          done;
          let use_dag = algo.Config.use_dag_names in
          Alcotest.(check bool)
            (tag ^ ": N1 drew exactly when the names collide")
            (collide && use_dag) !renamed;
          (* the later sender's summaries won, in and outside [0, n) *)
          let st =
            P.handle (Rng.of_key (Rng.key ~seed:1)) graph 2 states.(2) msgs
          in
          Alcotest.(check (list int))
            (tag ^ ": far keys")
            [ -4; 0; 4; 5; 9; 17 ]
            (List.map fst st.Distributed.far);
          List.iter
            (fun (v, dag) ->
              Alcotest.(check int)
                (Printf.sprintf "%s: node %d's relayed eff is sender 3's" tag v)
                (if use_dag then dag else 40 + dag)
                (List.assoc v st.Distributed.far).Distributed.f_eff)
            [ (5, 6); (17, 11) ];
          Alcotest.(check bool)
            (tag ^ ": density counts the out-of-range links")
            true
            (st.Distributed.density
            = Some (Ss_cluster.Density.make ~links:9 ~nodes:5));
          let dense =
            E.run ~mode:E.Dense ~max_rounds:30 ~quiet_rounds:3 ~states
              (Rng.create ~seed:9) graph
          in
          let flat =
            F.run ~max_rounds:30 ~quiet_rounds:3 ~domains ~states
              (Rng.create ~seed:9) graph
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s: flat (%d domains) = dense" tag domains)
            true
            (Array.for_all2 P.equal_state dense.E.states flat.F.states
            && dense.E.rounds = flat.F.rounds
            && dense.E.converged = flat.F.converged
            && dense.E.change_history = flat.F.change_history
            && dense.E.changed_at = flat.F.changed_at))
        [ false; true ])
    [
      ("basic", Config.basic);
      ("with_dag", Config.with_dag);
      ("improved", Config.improved);
      ("improved_with_dag", Config.improved_with_dag);
    ]

(* ------------------------------------------------ (g): the write stamp *)

(* [read.written_at] is the key the traffic workload caches route views
   on, so its contract is checked live, through a workload hook wrapping
   the reader, every round and every node: when a node's stamp equals its
   value at the previous read, the state read is structurally equal to
   that read's, caches and freshness stamps included; the stamp never
   trails [changed_at]. Returns the verdict, the rounds on which a stamp
   held still (a hit), and the per-round stamp planes. *)
let stamp_trace ~n run =
  let last_w = Array.make n (-1) and last_st = Array.make n None in
  let ok = ref true and hits = ref 0 and trace = ref [] in
  let workload ~round:_ ~graph:_ ~alive:_
      ~(read : Distributed.state Engine.reader) =
    let plane = Array.init n read.Engine.written_at in
    for p = 0 to n - 1 do
      let w = plane.(p) in
      if w < read.Engine.changed_at p then ok := false;
      let st = read.Engine.state p in
      (match last_st.(p) with
      | Some prev when last_w.(p) = w ->
          incr hits;
          if prev <> st then ok := false
      | Some _ | None -> ());
      last_w.(p) <- w;
      last_st.(p) <- Some st
    done;
    trace := plane :: !trace;
    false
  in
  run ~workload;
  (!ok, !hits, List.rev !trace)

(* Every case runs on a lossy channel with a moving fleet, and its plan
   carries a crash, a rejoin and a corruption on top of the random
   events. *)
let stamp_case (c : D.sim) =
  let v = c.s_seed mod max 4 c.s_n in
  {
    c with
    s_model = 1 + (c.s_model mod 4);
    s_channel = 1;
    s_plan = (2, 0, v) :: (6, 1, v) :: (4, 4, v + 1) :: c.s_plan;
  }

let run_stamp_case (c : D.sim) =
  let module P = (val D.protocol ~algo:c.s_algo c.s_ttl) in
  let module R = D.Run_flat (P) (D.Distributed_hooks) in
  let w = D.motion_world c in
  let typed mode ~workload = ignore (R.typed mode ~workload w) in
  let flat domains ~workload = ignore (R.flat ~domains ~workload w) in
  let n = max 4 c.s_n in
  let ok_d, _, _ = stamp_trace ~n (typed R.E.Dense) in
  let ok_s, hits_s, _ = stamp_trace ~n (typed R.sparse_mode) in
  let ok_1, hits_1, trace_1 = stamp_trace ~n (flat 1) in
  let ok_4, _, trace_4 = stamp_trace ~n (flat 4) in
  (ok_d && ok_s && ok_1 && ok_4 && trace_1 = trace_4, hits_s + hits_1)

let prop_written_at_contract =
  QCheck.Test.make
    ~name:"written_at: still stamp = same state; >= changed_at; 1 = 4 domains"
    ~count:100 D.arb_sim (fun c -> fst (run_stamp_case (stamp_case c)))

(* The contract is not vacuous: on a settling network the frontier
   executors leave stamps still while other nodes keep stepping. *)
let test_written_at_hits () =
  let c =
    stamp_case
      {
        D.s_seed = 41;
        s_n = 24;
        s_model = 0;
        s_channel = 0;
        s_sched = 0;
        s_ttl = 2;
        s_algo = 0;
        s_dt = 0;
        s_plan = [];
      }
  in
  let ok, hits = run_stamp_case c in
  Alcotest.(check bool) "contract holds" true ok;
  Alcotest.(check bool)
    (Printf.sprintf "sparse and flat reads under still stamps (%d)" hits)
    true (hits > 0)

(* ---------------------------------------------- (h): interned unpacks *)

module Pd = Distributed.Make (struct
  let params = Distributed.default_params
end)

module Fd = Flat.Make (Pd)

let converged_world ~count ~degree =
  let radius = sqrt (degree /. (Float.pi *. float_of_int count)) in
  let graph =
    Builders.random_geometric_count (Rng.create ~seed:21) ~count ~radius
  in
  let r = Fd.run ~max_rounds:300 ~quiet_rounds:5 (Rng.create ~seed:22) graph in
  Alcotest.(check bool) "run converged" true r.Fd.converged;
  (graph, r.Fd.states)

(* (a) A converged run's final states hold one claimed-neighborhood array
   per emitter: every cache entry with equal claims for the same emitter
   is the same physical array. *)
let test_interned_claims () =
  let graph, states = converged_world ~count:400 ~degree:10.0 in
  let seen = Array.make (Graph.node_count graph) [] in
  let shared = ref 0 and split = ref 0 in
  Array.iter
    (fun (st : Distributed.state) ->
      List.iter
        (fun (q, (e : Distributed.entry)) ->
          match List.find_opt (fun a -> a = e.e_nbrs) seen.(q) with
          | Some a -> if a == e.e_nbrs then incr shared else incr split
          | None -> seen.(q) <- e.e_nbrs :: seen.(q))
        st.Distributed.cache)
    states;
  Alcotest.(check int) "equal claims held in distinct arrays" 0 !split;
  Alcotest.(check bool)
    (Printf.sprintf "claims shared (%d entries)" !shared)
    true (!shared > 0)

(* (b) Keys outside [0, n) bypass the memo: cache and far keys, heads,
   parents and claims past either end round-trip through pack/unpack,
   with the memo cold and warm, and a rewrite of an emitter's claims is
   read back as written, not as the memo's older array. *)
let test_intern_out_of_range () =
  let graph = hand_graph () in
  let n = Graph.node_count graph in
  let states = hand_built ~collide:false in
  (* [hand_built] already carries cache keys -7, -4, 9 and 17, far keys
     -4 and 17, and claims -7 and -4; add a parent and a head past n. *)
  states.(2) <- { (states.(2)) with head = Some (n + 3); parent = Some n };
  let b = Pd.Flat.alloc graph in
  Array.iteri (Pd.Flat.pack b) states;
  List.iter
    (fun pass ->
      Array.iteri
        (fun p st ->
          Alcotest.(check bool)
            (Printf.sprintf "%s node %d" pass p)
            true
            (Pd.Flat.unpack b p = st))
        states)
    [ "cold memo"; "warm memo" ];
  let before = Pd.Flat.unpack b 2 in
  List.iter
    (fun claims ->
      let moved =
        {
          (states.(2)) with
          cache =
            List.map
              (fun (q, (e : Distributed.entry)) ->
                if q = 1 then (q, { e with e_nbrs = claims }) else (q, e))
              states.(2).Distributed.cache;
        }
      in
      Pd.Flat.pack b 2 moved;
      Alcotest.(check bool)
        (Printf.sprintf "rewritten claims (%d) read back" (Array.length claims))
        true
        (Pd.Flat.unpack b 2 = moved))
    [ [| 4 |]; [| 0; 2; 4 |] ];
  Alcotest.(check bool) "an earlier unpack is left as it was" true
    (before = states.(2))

(* (c) The final unpack's allocation: interned, at most 23% of the words
   per node of a reference that builds every sub-value fresh, as the
   unpack did before interning (Array.sub per claimed neighborhood, a
   [Some] and a density per entry, a pair and a record per entry). Both
   read the same converged states; the interned unpack starts from cold
   memo planes. What interning saves grows with the claimed
   neighborhoods and with the holders sharing an entry, so the ratio
   falls with the degree: 0.28 at degree 6, 0.24 at 9, 0.22 at 12 (the
   traffic deployments' degree, pinned here) and 0.20 at 16. Before the
   entry memos it was 0.62, 0.60, 0.58 and 0.56. *)
let fresh_copy (st : Distributed.state) =
  let dens = function
    | None -> None
    | Some d ->
        Some
          (Ss_cluster.Density.make
             ~links:(Ss_cluster.Density.links d)
             ~nodes:(Ss_cluster.Density.nodes d))
  in
  let opt = function None -> None | Some v -> Some (v + 0) in
  {
    st with
    density = dens st.Distributed.density;
    parent = opt st.Distributed.parent;
    head = opt st.Distributed.head;
    cache =
      List.map
        (fun (q, (e : Distributed.entry)) ->
          ( q,
            {
              e with
              e_density = dens e.e_density;
              e_head = opt e.e_head;
              e_nbrs = Array.sub e.e_nbrs 0 (Array.length e.e_nbrs);
            } ))
        st.Distributed.cache;
    far =
      List.map
        (fun (v, (f : Distributed.far_entry)) ->
          (v, { f with f_density = dens f.f_density }))
        st.Distributed.far;
  }

let test_unpack_alloc () =
  let graph, states = converged_world ~count:1500 ~degree:12.0 in
  let n = Graph.node_count graph in
  let out = Array.make n states.(0) in
  let words f =
    let w0 = Gc.minor_words () in
    for p = 0 to n - 1 do
      out.(p) <- f p
    done;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  let b = Pd.Flat.alloc graph in
  Array.iteri (Pd.Flat.pack b) states;
  let interned = words (Pd.Flat.unpack b) in
  Alcotest.(check bool) "interned unpack reads back" true (out = states);
  let fresh = words (fun p -> fresh_copy states.(p)) in
  Alcotest.(check bool) "reference copy reads back" true (out = states);
  Alcotest.(check bool)
    (Printf.sprintf "words per node: interned %.0f <= 23%% of fresh %.0f"
       interned fresh)
    true
    (interned <= 0.23 *. fresh)

(* (d) An exact round trip through the entry memos: [unpack] after
   [pack] is structurally [=] to what was packed (stricter than
   [equal_state], which ignores the caches' stamps), on cold and warm
   memos. The states share keys (a converged deployment), every key is
   heard at more distinct stamps across its holders than the memo has
   ways, some states are corrupted, and some carry cache and far keys
   outside [0, n). Equal cache entries do come back as one physical
   pair. *)
let test_entry_memo_roundtrip () =
  let graph, states = converged_world ~count:400 ~degree:10.0 in
  let n = Graph.node_count graph in
  let scramble = Rng.create ~seed:23 in
  let states =
    Array.mapi
      (fun p (st : Distributed.state) ->
        let st =
          if p mod 17 = 5 then Distributed.corrupt scramble p st else st
        in
        let cache =
          List.map
            (fun (q, (e : Distributed.entry)) ->
              (q, { e with e_heard = e.e_heard + (p mod 7) }))
            st.Distributed.cache
        and far =
          List.map
            (fun (v, (f : Distributed.far_entry)) ->
              (v, { f with f_heard = f.f_heard + (p mod 9) }))
            st.Distributed.far
        in
        if p mod 23 <> 3 then { st with cache; far }
        else
          let e =
            {
              Distributed.e_heard = 1;
              e_gid = 5;
              e_dag = 2;
              e_density = None;
              e_head = Some (n + 2);
              e_nbrs = [| -1; n |];
            }
          and f =
            {
              Distributed.f_heard = 1;
              f_density = None;
              f_eff = 3;
              f_is_head = true;
            }
          in
          {
            st with
            cache = ((-3, e) :: cache) @ [ (n + 5, e); (n + 5, e) ];
            far = ((-2, f) :: far) @ [ (n + 1, f) ];
          })
      states
  in
  let b = Pd.Flat.alloc graph in
  Array.iteri (Pd.Flat.pack b) states;
  List.iter
    (fun pass ->
      let shared = ref 0 in
      let firsts = Hashtbl.create 4096 in
      Array.iteri
        (fun p st ->
          let got = Pd.Flat.unpack b p in
          if got <> st then
            Alcotest.failf "%s memo: node %d reads back changed" pass p;
          List.iter
            (fun ((q, e) as pr) ->
              match Hashtbl.find_opt firsts (q, e) with
              | Some first -> if first == pr then incr shared
              | None -> Hashtbl.add firsts (q, e) pr)
            got.Distributed.cache)
        states;
      Alcotest.(check bool)
        (Printf.sprintf "%s memo: equal cache entries shared (%d)" pass !shared)
        true (!shared > 0))
    [ "cold"; "warm" ]

(* ------------------------- (i): allocation pins outside the protocol step *)

(* A channel plan's per-edge decision allocates nothing (a bursty one
   boxes its epoch key: 3 words), a routing decision allocates only the
   [Forward] it returns, and a round of the centralized [Algorithm.run]
   allocates nothing. [words_of] subtracts what reading the counter
   itself costs. *)
let words_of f =
  let w0 = Gc.minor_words () in
  f ();
  let w1 = Gc.minor_words () in
  let w2 = Gc.minor_words () in
  w1 -. w0 -. (w2 -. w1)

let test_channel_decision_alloc () =
  let graph =
    Builders.random_geometric_count (Rng.create ~seed:31) ~count:300
      ~radius:0.12
  in
  let n = Graph.node_count graph in
  List.iter
    (fun (name, ch, per_decision) ->
      let plan =
        Ss_radio.Channel.round_plan ch ~key:(Rng.key ~seed:32) ~round:3 ~graph
      in
      let hits = ref 0 in
      let w =
        words_of (fun () ->
            for src = 0 to n - 1 do
              for dst = 0 to n - 1 do
                if plan ~src ~dst then incr hits
              done
            done)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f words over %d decisions (%d delivered)" name
           w (n * n) !hits)
        true
        (w = per_decision *. float_of_int (n * n)))
    [
      ("bernoulli", Ss_radio.Channel.bernoulli 0.6, 0.0);
      ( "jammed",
        Ss_radio.Channel.jammed ~tau:0.9 ~jam_tau:0.3
          ~region:
            (Ss_geom.Bbox.make ~min_x:0.2 ~min_y:0.2 ~max_x:0.6 ~max_y:0.6),
        0.0 );
      ( "asymmetric",
        Ss_radio.Channel.asymmetric ~seed:33 ~tau_lo:0.3 ~tau_hi:0.95,
        0.0 );
      ( "bursty",
        Ss_radio.Channel.bursty ~seed:33 ~tau_good:0.95 ~tau_bad:0.2
          ~p_fade:0.05 ~p_recover:0.3,
        3.0 );
    ]

let test_next_hop_alloc () =
  let graph, states = converged_world ~count:1500 ~degree:12.0 in
  let n = Graph.node_count graph in
  let positions = Option.get (Graph.positions graph) in
  let views = Array.map Ss_traffic.Route.of_distributed states in
  (* Eight decisions per holder: destinations near and far, every other
     one carrying a waypoint, every third one with two bans. *)
  let calls = 8 * n in
  let dst = Array.init calls (fun i -> ((i / 8 * 7) + (i mod 8 * 193)) mod n) in
  let via =
    Array.init calls (fun i -> if i mod 2 = 1 then ((i / 8 * 13) + i) mod n else -1)
  in
  let banned =
    Array.init calls (fun i ->
        if i mod 3 = 2 then [ ((i / 8) + 1) mod n; dst.(i) ] else [])
  in
  let forwards = ref 0 and escapes = ref 0 in
  let w =
    words_of (fun () ->
        for i = 0 to calls - 1 do
          let cur = i / 8 in
          match
            Ss_traffic.Route.next_hop ~positions ~view:views.(cur) ~n ~cur
              ~dst:dst.(i) ~via:via.(i) ~prev:(-1) ~banned:banned.(i)
          with
          | Ss_traffic.Route.Forward { advance; _ } ->
              incr forwards;
              if not advance then incr escapes
          | Ss_traffic.Route.Stall -> ()
        done)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words over %d decisions (%d forwards, %d escapes)" w
       calls !forwards !escapes)
    true
    (w = 4.0 *. float_of_int !forwards)

let test_algorithm_round_alloc () =
  let graph =
    Builders.random_geometric_count (Rng.create ~seed:34) ~count:1500
      ~radius:(sqrt (10.0 /. (Float.pi *. 1500.0)))
  in
  let n = Graph.node_count graph in
  let ids = Array.init n (fun p -> (p * 7919) mod n) in
  List.iter
    (fun (name, config, scheduler) ->
      let topology = Ss_cluster.Algorithm.topology config graph in
      let run max_rounds =
        Ss_cluster.Algorithm.run ~scheduler ~max_rounds ~dag_names:ids
          ~topology (Rng.create ~seed:35) config graph ~ids
      in
      let full = run 10_000 in
      Alcotest.(check bool)
        (Printf.sprintf "%s converges in %d > 1 rounds" name full.rounds)
        true
        (full.converged && full.rounds > 1);
      let w1 = words_of (fun () -> ignore (run 1)) in
      let wr = words_of (fun () -> ignore (run 10_000)) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f more words over %d more rounds" name
           (wr -. w1) (full.rounds - 1))
        true (wr = w1))
    [
      ("basic, synchronous", Config.basic, Ss_cluster.Algorithm.Synchronous);
      ("basic, sequential", Config.basic, Ss_cluster.Algorithm.Sequential);
      ( "fusion + dag, synchronous",
        Config.improved_with_dag,
        Ss_cluster.Algorithm.Synchronous );
    ]

(* A warmed lossy [Flat.run] round allocates the same at any n: the
   delivery-diff replay, the gathers and the audience marks walk their
   rows through non-allocating accessors, and the basic stack's steps
   draw nothing. Words over rounds 40-80 of a Bernoulli 0.999 run, at
   500 and 4,000 nodes: what remains is per round (the phase closures,
   the channel plan, the round record), not per node. *)
let lossy_round_alloc n =
  let radius = sqrt (9.0 /. (Float.pi *. float_of_int n)) in
  let graph =
    Builders.random_geometric_count (Rng.create ~seed:36) ~count:n ~radius
  in
  let w_lo = ref 0.0 and w_hi = ref 0.0 in
  let on_round info =
    if info.Engine.round = 40 then w_lo := Gc.minor_words ()
    else if info.Engine.round = 80 then w_hi := Gc.minor_words ()
  in
  let r =
    Fd.run ~channel:(Ss_radio.Channel.bernoulli 0.999) ~max_rounds:90
      ~quiet_rounds:90 ~on_round (Rng.create ~seed:37) graph
  in
  Alcotest.(check int) (Printf.sprintf "n=%d: full horizon" n) 90 r.Fd.rounds;
  (!w_hi -. !w_lo) /. 40.0

let test_lossy_round_alloc () =
  let small = lossy_round_alloc 500 in
  let big = lossy_round_alloc 4000 in
  Alcotest.(check bool)
    (Printf.sprintf "words per round constant in n (500: %.1f, 4000: %.1f)"
       small big)
    true
    (big = small && big < 200.0)

(* ------------------------------------------ (j): the steady-layout step *)

(* [step]'s two write targets against the typed [handle], one directed
   case per branch, on a converged 7x7 king's-move lattice whose centre
   node [lattice_hub] steps. Each case rewrites the converged states (the
   hub's stamps and planes, or a sender's cache), then checks, for
   several round keys, that [unpack] after [step] is structurally the
   typed [handle]'s state and that [warm] agrees with [pending_expiry];
   the rewritten states then warm-start whole runs, flat at [domains]
   against the typed dense run. Cases that keep every key and claim count
   and leave every unrefreshed entry live take the steady path (rows
   written in place); the others take the scratch merge. A last case
   steps the hub twice in a row on its own rows, every entry fresh. *)
let lattice_hub = 24

let lattice_cases (graph : Graph.t) (states : Distributed.state array) =
  let n = Graph.node_count graph in
  let hub = states.(lattice_hub) in
  let clock' = hub.Distributed.clock + 1 in
  let ttl = Distributed.default_params.cache_ttl in
  let nbrs = Array.to_list (Graph.neighbors graph lattice_hub) in
  (* [drop]'s relayed keys are all relayed by other senders too, so
     dropping its frame leaves its cache entry the only stale one; the
     keys only [edge] relays go unrefreshed without it *)
  let drop = List.nth nbrs 1 and edge = List.nth nbrs 2 in
  let heard_one q h (st : Distributed.state) =
    {
      st with
      cache =
        List.map
          (fun (k, (e : Distributed.entry)) ->
            (k, if k = q then { e with e_heard = h } else e))
          st.Distributed.cache;
    }
  in
  let far_heard h (st : Distributed.state) =
    {
      st with
      far =
        List.map
          (fun (k, (f : Distributed.far_entry)) -> (k, { f with f_heard = h }))
          st.Distributed.far;
    }
  in
  let with_node v f =
    let a = Array.copy states in
    a.(v) <- f a.(v);
    a
  in
  let with_hub = with_node lattice_hub in
  let all = nbrs and but_drop = List.filter (fun q -> q <> drop) nbrs in
  let but_edge = List.filter (fun q -> q <> edge) nbrs in
  (* two senders relaying one key: the later one's summary must win *)
  let v, s1, s2 =
    let pick = ref None in
    for v = n - 1 downto 0 do
      if v <> lattice_hub then
        match
          List.filter (fun q -> Array.mem v (Graph.neighbors graph q)) nbrs
        with
        | s1 :: s2 :: _ -> pick := Some (v, s1, s2)
        | [ _ ] | [] -> ()
    done;
    Option.get !pick
  in
  let density l = Some (Ss_cluster.Density.make ~links:l ~nodes:1) in
  let relay_density l (st : Distributed.state) =
    {
      st with
      cache =
        List.map
          (fun (k, (e : Distributed.entry)) ->
            (k, if k = v then { e with e_density = density l } else e))
          st.Distributed.cache;
    }
  in
  let both_relays =
    let a = with_node s1 (relay_density 5) in
    a.(s2) <- relay_density 99 a.(s2);
    a
  in
  let far_entry h =
    {
      Distributed.f_heard = h;
      f_density = density 2;
      f_eff = 7;
      f_is_head = true;
    }
  in
  (* key 0, three hops from the hub, is relayed by no sender *)
  let far_extra k h (st : Distributed.state) =
    let far = st.Distributed.far in
    {
      st with
      far =
        List.filter (fun (j, _) -> j < k) far
        @ [ (k, far_entry h) ]
        @ List.filter (fun (j, _) -> j > k) far;
    }
  in
  let far_map f (st : Distributed.state) =
    { st with far = f st.Distributed.far }
  in
  [
    ( "dropped frame, stale entry stays",
      with_hub (heard_one drop (clock' - 2)),
      but_drop );
    ( "dropped entry at the TTL edge stays",
      with_hub (heard_one drop (clock' - ttl)),
      but_drop );
    ( "dropped entry past the TTL edge expires",
      with_hub (heard_one drop (clock' - ttl - 1)),
      but_drop );
    ( "unrelayed far entries at the TTL edge stay",
      with_hub (far_heard (clock' - ttl)),
      but_edge );
    ( "unrelayed far entries past the TTL edge leave",
      with_hub (far_heard (clock' - ttl - 1)),
      but_edge );
    ( "a sender's claim count shrank",
      with_node (List.nth nbrs 0) (fun st ->
          {
            st with
            cache = List.filteri (fun i _ -> i > 0) st.Distributed.cache;
          }),
      all );
    ( "a far key enters",
      with_hub (far_map (List.filter (fun (k, _) -> k <> v))),
      all );
    ("an unrelayed far key stays", with_hub (far_extra 0 (clock' - 1)), all);
    ( "an unrelayed far key leaves",
      with_hub (far_extra 0 (clock' - ttl - 1)),
      all );
    ("two senders relay one key: the later wins", both_relays, all);
    ("far plane packed unsorted", with_hub (far_map List.rev), but_drop);
    ( "far plane packed with a duplicate key",
      with_hub (far_map (function [] -> [] | x :: rest -> x :: x :: rest)),
      all );
    ( "far plane packed with a negative key",
      with_hub (far_map (fun far -> (-3, far_entry clock') :: far)),
      but_drop );
    ( "far plane packed with a key past n",
      with_hub
        (far_map (fun far -> far @ [ (n + 2, far_entry (clock' - 1)) ])),
      all );
  ]

let test_steady_layout ~domains () =
  List.iter
    (fun (cfg, algo) ->
      let module P = Distributed.Make (struct
        let params = { Distributed.default_params with algo }
      end) in
      let module E = Engine.Make (P) in
      let module F = Flat.Make (P) in
      let graph = Builders.grid_lattice ~cols:7 ~rows:7 ~diagonals:true in
      let settled =
        F.run ~max_rounds:200 ~quiet_rounds:5 (Rng.create ~seed:61) graph
      in
      Alcotest.(check bool)
        (cfg ^ ": lattice converged")
        true settled.F.converged;
      let b = P.Flat.alloc graph in
      let s = P.Flat.scratch b in
      (* a whole run warm-started from [states], flat against dense *)
      let flat_is_dense tag states =
        let dense =
          E.run ~mode:E.Dense ~max_rounds:30 ~quiet_rounds:3 ~states
            (Rng.create ~seed:62) graph
        in
        let flat =
          F.run ~max_rounds:30 ~quiet_rounds:3 ~domains ~states
            (Rng.create ~seed:62) graph
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s: flat (%d domains) = dense" tag domains)
          true
          (Array.for_all2 P.equal_state dense.E.states flat.F.states
          && dense.E.rounds = flat.F.rounds
          && dense.E.converged = flat.F.converged
          && dense.E.change_history = flat.F.change_history
          && dense.E.changed_at = flat.F.changed_at)
      in
      List.iter
        (fun (case, states, senders) ->
          let tag = Printf.sprintf "%s, %s" cfg case in
          let msgs =
            List.map (fun q -> (q, P.emit graph q states.(q))) senders
          in
          let senders = Array.of_list senders in
          for k = 0 to 3 do
            Array.iteri (P.Flat.pack b) states;
            Array.iteri (fun p _ -> ignore (P.Flat.refresh_emit b s p)) states;
            let hkey = Rng.key ~seed:(200 + k) in
            ignore
              (P.Flat.step b s hkey lattice_hub ~senders
                 ~count:(Array.length senders));
            let typed =
              P.handle
                (Rng.of_key (Rng.subkey hkey lattice_hub))
                graph lattice_hub states.(lattice_hub) msgs
            in
            Alcotest.(check bool)
              (Printf.sprintf "%s key %d: unpack (step) = handle" tag k)
              true
              (P.Flat.unpack b lattice_hub = typed);
            Alcotest.(check bool)
              (Printf.sprintf "%s key %d: warm = pending_expiry" tag k)
              (Distributed.pending_expiry typed)
              (P.Flat.warm b lattice_hub)
          done;
          flat_is_dense tag states)
        (lattice_cases graph settled.F.states);
      (* Two steps in a row: the hub steps, every emission is refreshed,
         and the hub steps again on the same senders with no [pack] in
         between, so the second step reads the rows the first one wrote.
         The executor's round order (tick, steps, emissions) is kept. *)
      let states = settled.F.states in
      let senders = Graph.neighbors graph lattice_hub in
      let msgs =
        Array.to_list
          (Array.map (fun q -> (q, P.emit graph q states.(q))) senders)
      in
      Array.iteri (P.Flat.pack b) states;
      Array.iteri (fun p _ -> ignore (P.Flat.refresh_emit b s p)) states;
      let typed = ref states.(lattice_hub) in
      for k = 0 to 1 do
        P.Flat.tick b;
        let hkey = Rng.key ~seed:(210 + k) in
        ignore
          (P.Flat.step b s hkey lattice_hub ~senders
             ~count:(Array.length senders));
        typed :=
          P.handle
            (Rng.of_key (Rng.subkey hkey lattice_hub))
            graph lattice_hub !typed msgs;
        Alcotest.(check bool)
          (Printf.sprintf "%s, step %d in a row: unpack (step) = handle" cfg k)
          true
          (P.Flat.unpack b lattice_hub = !typed);
        Alcotest.(check bool)
          (Printf.sprintf "%s, step %d in a row: warm = pending_expiry" cfg k)
          (Distributed.pending_expiry !typed)
          (P.Flat.warm b lattice_hub);
        Array.iteri (fun p _ -> ignore (P.Flat.refresh_emit b s p)) states
      done;
      let states = Array.copy states in
      states.(lattice_hub) <- !typed;
      flat_is_dense (cfg ^ ", two steps in a row") states)
    [ ("basic", Config.basic); ("improved_with_dag", Config.improved_with_dag) ]

(* ------------------------------------------- (f): scrambled labels *)

(* A 12x10 jittered grid whose labels are a random permutation of the
   row-major ones: neighbours in space get unrelated ids, so the BFS
   slots the flat planes use differ from the ids almost everywhere. *)
let scrambled_start () =
  let rng = Rng.create ~seed:70 in
  let cols = 12 and rows = 10 in
  let perm = Rng.permutation rng (cols * rows) in
  let start = Array.make (cols * rows) Vec2.zero in
  for i = 0 to (cols * rows) - 1 do
    let jitter () = 0.3 *. (Rng.float rng 1.0 -. 0.5) in
    let x = (float_of_int (i mod cols) +. 0.5 +. jitter ()) /. float_of_int cols in
    let y = (float_of_int (i / cols) +. 0.5 +. jitter ()) /. float_of_int rows in
    start.(perm.(i)) <- Vec2.v x y
  done;
  start

(* The run world on that deployment: a crash, a rejoin and two
   corruptions, on a lossy channel unless [channel] says otherwise, and
   with [flips] a slow random walk whose rebases add up the flipped edges
   there. *)
let scrambled_world ?(channel = Channel.bernoulli 0.8) ?flips () =
  let setup () =
    let rng = Rng.create ~seed:71 in
    let start = scrambled_start () in
    let motion = Motion.create ~radius:0.15 start in
    let hook =
      Option.map
        (fun flips ->
          let model = Model.random_walk ~speed_min:0.002 ~speed_max:0.01 () in
          let fleet = Fleet.create rng ~model ~box:Bbox.unit_square start in
          fun ~round:_ ->
            let moved =
              Fleet.step_moved fleet 2.0 (fun i p -> Motion.move motion i p)
            in
            if moved = 0 then None
            else begin
              let diff = Motion.flush motion in
              flips := !flips + diff.Motion.n_added + diff.Motion.n_removed;
              Some (Motion.graph motion, diff)
            end)
        flips
    in
    (rng, Motion.graph motion, hook)
  in
  {
    D.setup;
    channel;
    scheduler = Scheduler.Synchronous;
    churn =
      Churn.schedule
        [
          (3, [ Churn.Crash 5 ]);
          (4, [ Churn.Corrupt 17 ]);
          (6, [ Churn.Join 5; Churn.Corrupt 90 ]);
        ];
    max_rounds = 30;
    quiet_rounds = 3;
    warm_seed = None;
  }

let test_scrambled_labels () =
  let module P = Distributed.Make (struct
    let params =
      {
        Distributed.default_params with
        algo = Config.improved_with_dag;
        cache_ttl = 2;
      }
  end) in
  let module R = D.Run_flat (P) (D.Distributed_hooks) in
  let module E = R.E in
  let _, graph, _ = (scrambled_world ()).D.setup () in
  let n = Graph.node_count graph in
  let order = Traversal.bfs_order graph in
  let moved = ref 0 in
  Array.iteri (fun r p -> if r <> p then incr moved) order;
  Alcotest.(check bool) "slot <> id for at least 90% of the nodes" true
    (10 * !moved >= 9 * n);
  let b = P.Flat.alloc graph in
  let s = P.Flat.scratch b in
  (* pack -> unpack on mid-run, converged and corrupted states *)
  let snapshot rounds =
    (E.run ~mode:E.Dense ~max_rounds:rounds ~quiet_rounds:3
       (Rng.create ~seed:72) graph)
      .E.states
  in
  let scramble = Rng.create ~seed:73 in
  let sets =
    [ ("round 2", snapshot 2); ("round 5", snapshot 5); ("settled", snapshot 60) ]
  in
  let sets =
    sets
    @ List.map
        (fun (tag, st) ->
          (tag ^ ", corrupted", Array.mapi (Distributed.corrupt scramble) st))
        sets
  in
  List.iter
    (fun (tag, states) ->
      Array.iteri (P.Flat.pack b) states;
      Alcotest.(check bool) (tag ^ ": unpack (pack st) = st") true
        (Array.for_all Fun.id
           (Array.mapi (fun p st -> P.Flat.unpack b p = st) states)))
    sets;
  (* step = handle over two rounds: every node steps hearing all its
     neighbours but one, then the emission planes are re-derived, so the
     second round reads frames the first round's steps wrote at their
     slots *)
  List.iter
    (fun (tag, states) ->
      Array.iteri (P.Flat.pack b) states;
      Array.iteri (fun p _ -> ignore (P.Flat.refresh_emit b s p)) states;
      let typed = Array.copy states in
      for r = 0 to 1 do
        P.Flat.tick b;
        let hkey = Rng.key ~seed:(300 + r) in
        let next =
          Array.init n (fun p ->
              let nb = Graph.neighbors graph p in
              let drop = (p + r) mod (Array.length nb + 1) in
              let senders =
                Array.of_list
                  (List.filteri (fun i _ -> i <> drop) (Array.to_list nb))
              in
              let msgs =
                Array.to_list
                  (Array.map (fun q -> (q, P.emit graph q typed.(q))) senders)
              in
              ignore
                (P.Flat.step b s hkey p ~senders ~count:(Array.length senders));
              P.handle (Rng.of_key (Rng.subkey hkey p)) graph p typed.(p) msgs)
        in
        Array.iteri
          (fun p st ->
            Alcotest.(check bool)
              (Printf.sprintf "%s, round %d, node %d: unpack (step) = handle"
                 tag r p)
              true
              (P.Flat.unpack b p = st);
            Alcotest.(check bool)
              (Printf.sprintf "%s, round %d, node %d: warm" tag r p)
              (Distributed.pending_expiry st) (P.Flat.warm b p))
          next;
        Array.iteri (fun p _ -> ignore (P.Flat.refresh_emit b s p)) next;
        Array.blit next 0 typed 0 n
      done)
    sets;
  (* whole runs: flat = dense, 4 domains = 1, static and moving; on the
     perfect channel every frame arrives, so converged steps take the
     steady layout *)
  let flips = ref 0 in
  List.iter
    (fun (tag, w) ->
      let f1 = R.flat ~domains:1 w in
      Alcotest.(check (option string)) (tag ^ ": flat = dense") None
        (R.diff ~left:"dense" ~right:"flat" (R.dense w) f1);
      Alcotest.(check (option string)) (tag ^ ": 4 domains = 1") None
        (R.diff ~exact:true ~left:"flat/1" ~right:"flat/4" f1
           (R.flat ~domains:4 w)))
    [
      ("static", scrambled_world ());
      ("static, perfect channel", scrambled_world ~channel:Channel.perfect ());
      ("moving", scrambled_world ~flips ());
    ];
  Alcotest.(check bool) "the walk flipped edges" true (!flips > 0)

(* The frontier adopts the graphs' adjacency rows without copying them:
   a run under motion, churn and a lossy channel must leave the creation
   graph and every rebased graph the motion hook handed over as they
   were, at 1 and 2 domains. The references are deep copies taken before
   the run saw each graph. *)
let deep_copy g =
  Graph.of_sorted_adjacency ?positions:(Graph.positions g)
    (Array.init (Graph.node_count g) (fun p -> Array.copy (Graph.neighbors g p)))

let test_graphs_untouched () =
  let module P = Distributed.Make (struct
    let params = { Distributed.default_params with cache_ttl = 2 }
  end) in
  let module R = D.Run_flat (P) (D.Distributed_hooks) in
  List.iter
    (fun domains ->
      let flips = ref 0 in
      let w = scrambled_world ~flips () in
      let seen = ref [] in
      let keep g = seen := (g, deep_copy g) :: !seen in
      let setup () =
        let rng, graph, hook = w.D.setup () in
        keep graph;
        let hook =
          Option.map
            (fun hook ~round ->
              let rebased = hook ~round in
              Option.iter (fun (g, _) -> keep g) rebased;
              rebased)
            hook
        in
        (rng, graph, hook)
      in
      let run = R.flat ~domains { w with D.setup } in
      let tag = Printf.sprintf "%d domains" domains in
      Alcotest.(check bool) (tag ^ ": the walk flipped edges") true (!flips > 0);
      Alcotest.(check bool) (tag ^ ": rebased graphs were handed over") true
        (List.length !seen > 1);
      List.iter
        (fun (g, copy) ->
          Alcotest.(check bool) (tag ^ ": graph unchanged") true
            (Graph.equal g copy))
        !seen;
      Alcotest.(check (option string)) (tag ^ ": flat = dense") None
        (R.diff ~left:"dense" ~right:"flat" (R.dense w) run))
    [ 1; 2 ]

(* ------------------------------------------------- (g): row arenas *)

(* [alloc] lays every row out in one arena per plane, so its minor-heap
   words are a small constant: the buffers record and, below 2,048
   nodes, the BFS's seen bytes. Rows allocated one by one cost about
   320 words per node. *)
let test_alloc_words () =
  List.iter
    (fun count ->
      let radius = sqrt (9.0 /. (Float.pi *. float_of_int count)) in
      let graph =
        Builders.random_geometric_count (Rng.create ~seed:81) ~count ~radius
      in
      let b = ref None in
      let w = words_of (fun () -> b := Some (Pd.Flat.alloc graph)) in
      Alcotest.(check bool)
        (Printf.sprintf "%d nodes: alloc takes %.0f minor words" count w)
        true (w <= 512.0))
    [ 1_500; 6_000 ]

(* [pack] writes a typed state straight into its slot's slices: packing
   a converged deployment's states, first into fresh buffers and then
   back into their own slots, allocates nothing. *)
let test_pack_words () =
  let graph, states = converged_world ~count:400 ~degree:10.0 in
  let b = Pd.Flat.alloc graph in
  let pack_all () =
    for p = 0 to Array.length states - 1 do
      Pd.Flat.pack b p states.(p)
    done
  in
  let cold = words_of pack_all in
  let again = words_of pack_all in
  Alcotest.(check bool)
    (Printf.sprintf "pack allocates nothing (cold %.0f, again %.0f words)" cold
       again)
    true
    (cold = 0.0 && again = 0.0);
  Alcotest.(check bool) "packed states read back" true
    (Array.for_all Fun.id
       (Array.mapi (fun p st -> Pd.Flat.unpack b p = st) states))

module Pi = Distributed.Make (struct
  let params =
    { Distributed.default_params with algo = Config.improved_with_dag }
end)

module Fi = Flat.Make (Pi)

(* The ints [alloc] sets aside for p's cache row and its far entries:
   one entry per neighbour carrying that neighbour's neighbour list, and
   one far entry per distinct node within two hops. *)
let cache_estimate graph p =
  Array.fold_left
    (fun acc q -> acc + 8 + Array.length (Graph.neighbors graph q))
    0 (Graph.neighbors graph p)

let far_estimate graph p =
  let seen = Hashtbl.create 64 in
  Array.iter
    (fun q ->
      Array.iter
        (fun r -> if r <> p then Hashtbl.replace seen r ())
        (Graph.neighbors graph q))
    (Graph.neighbors graph p);
  Hashtbl.length seen

let cache_ints (st : Distributed.state) =
  List.fold_left
    (fun acc (_, (e : Distributed.entry)) -> acc + 8 + Array.length e.e_nbrs)
    0 st.Distributed.cache

(* A converged state with [extra] more cache entries and [extra] more
   far entries, all fresh, keyed by nodes that are not p's neighbours:
   they outlive two steps under the TTL, and p relays them in its frame,
   so its neighbours' rows grow too. *)
let oversized graph ~extra p (st : Distributed.state) =
  let n = Graph.node_count graph in
  let nb = Graph.neighbors graph p in
  let by_key (a, _) (b, _) = Int.compare a b in
  let keys pick taken =
    List.filteri
      (fun i _ -> i < extra)
      (List.filter
         (fun v -> v <> p && pick v && not (List.mem v taken))
         (List.init n Fun.id))
  in
  let dens v = Some (Ss_cluster.Density.make ~links:(v mod 5) ~nodes:1) in
  let cache =
    List.map
      (fun v ->
        ( v,
          {
            Distributed.e_heard = st.clock;
            e_gid = v;
            e_dag = v mod st.gamma;
            e_density = dens v;
            e_head = Some v;
            e_nbrs = [| v; (v + 1) mod n |];
          } ))
      (keys (fun v -> (v + p) mod 7 = 0) (Array.to_list nb))
  and far =
    List.map
      (fun v ->
        ( v,
          {
            Distributed.f_heard = st.clock;
            f_density = dens v;
            f_eff = v;
            f_is_head = v mod 3 = 0;
          } ))
      (keys (fun v -> (v + p) mod 5 = 1) (List.map fst st.Distributed.far))
  in
  {
    st with
    cache = List.merge by_key st.Distributed.cache cache;
    far = List.merge by_key st.Distributed.far far;
  }

(* Every node steps hearing all its neighbours, on [domains] domains,
   each taking a contiguous range of slots, so adjacent slices are
   written from different domains. *)
let step_all b scratches hkey graph order ~domains =
  let n = Graph.node_count graph in
  let work d () =
    for sp = d * n / domains to ((d + 1) * n / domains) - 1 do
      let p = order.(sp) in
      let senders = Graph.neighbors graph p in
      ignore
        (Pi.Flat.step b scratches.(d) hkey p ~senders
           ~count:(Array.length senders))
    done
  in
  if domains = 1 then work 0 ()
  else Array.iter Domain.join (Array.init domains (fun d -> Domain.spawn (work d)))

(* Rows that outgrow their slice move out. Every other slot of a
   converged deployment is packed with an oversized state, so [pack]
   moves those rows out; their frames then carry the extra entries, so
   the other slots' steps commit rows larger than their slices and move
   out too. Two synchronous steps of every node, at 1 and at 4 domains,
   must each read back as the typed [handle]. A row written past its
   slice would land in the slice of the next slot but one, still in
   use, and show up there as a mismatch. *)
let test_rows_outgrow ~domains () =
  let radius = sqrt (9.0 /. (Float.pi *. 400.0)) in
  let graph =
    Builders.random_geometric_count (Rng.create ~seed:83) ~count:400 ~radius
  in
  let n = Graph.node_count graph in
  let settled =
    Fi.run ~max_rounds:300 ~quiet_rounds:5 (Rng.create ~seed:84) graph
  in
  Alcotest.(check bool) "run converged" true settled.Fi.converged;
  let order = Traversal.bfs_order graph in
  let states = Array.copy settled.Fi.states in
  Array.iteri
    (fun sp p ->
      if sp mod 2 = 0 then states.(p) <- oversized graph ~extra:40 p states.(p))
    order;
  Array.iteri
    (fun sp p ->
      if sp mod 2 = 0 && Graph.degree graph p > 0 then begin
        Alcotest.(check bool)
          (Printf.sprintf "node %d: cache exceeds its slice" p)
          true
          (cache_ints states.(p) > cache_estimate graph p);
        Alcotest.(check bool)
          (Printf.sprintf "node %d: far exceeds its slice" p)
          true
          (List.length states.(p).Distributed.far > far_estimate graph p)
      end)
    order;
  let b = Pi.Flat.alloc graph in
  let scratches = Array.init domains (fun _ -> Pi.Flat.scratch b) in
  Array.iteri (Pi.Flat.pack b) states;
  Array.iteri
    (fun p st ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d: unpack (pack st) = st" p)
        true
        (Pi.Flat.unpack b p = st))
    states;
  Array.iteri (fun p _ -> ignore (Pi.Flat.refresh_emit b scratches.(0) p)) states;
  let typed = Array.copy states in
  for r = 0 to 1 do
    Pi.Flat.tick b;
    let hkey = Rng.key ~seed:(400 + r) in
    step_all b scratches hkey graph order ~domains;
    let next =
      Array.init n (fun p ->
          let msgs =
            Array.to_list
              (Array.map
                 (fun q -> (q, Pi.emit graph q typed.(q)))
                 (Graph.neighbors graph p))
          in
          Pi.handle (Rng.of_key (Rng.subkey hkey p)) graph p typed.(p) msgs)
    in
    Array.iteri
      (fun p st ->
        Alcotest.(check bool)
          (Printf.sprintf "round %d, node %d: unpack (step) = handle" r p)
          true
          (Pi.Flat.unpack b p = st))
      next;
    if r = 0 then begin
      let grown = ref 0 in
      Array.iteri
        (fun sp p ->
          if sp mod 2 = 1 && cache_ints next.(p) > cache_estimate graph p then
            incr grown)
        order;
      Alcotest.(check bool)
        (Printf.sprintf "%d plain rows outgrew their slices in a step" !grown)
        true
        (10 * !grown >= n / 2)
    end;
    Array.iteri (fun p _ -> ignore (Pi.Flat.refresh_emit b scratches.(0) p)) next;
    Array.blit next 0 typed 0 n
  done

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_flat_equals_dense;
      prop_flat_equals_dense_motion;
      prop_flat_stamps_track_changes;
      prop_written_at_contract;
    ]

let suite =
  [
    Alcotest.test_case "channel memo pins: 4 domains = 1" `Quick
      test_channel_domain_pins;
    Alcotest.test_case "pack/unpack round-trip, all configs" `Quick
      test_repack_roundtrip;
    Alcotest.test_case "sparse quiet rounds allocate O(frontier)" `Quick
      test_sparse_quiet_alloc;
    Alcotest.test_case "reuse-mode rebase allocates O(diff)" `Quick
      test_reuse_rebase_alloc;
  ]
  @ qcheck_cases
  @ [
      Alcotest.test_case "rewrites stamp their round" `Quick
        test_rewrite_stamps;
      Alcotest.test_case "flat steps allocate nothing but re-pick draws"
        `Quick test_flat_step_alloc;
      Alcotest.test_case "stamp-plane merge = handle (1 domain)" `Quick
        (test_hand_built_merge ~domains:1);
      Alcotest.test_case "stamp-plane merge = handle (4 domains)" `Quick
        (test_hand_built_merge ~domains:4);
      Alcotest.test_case "written_at holds still while states do" `Quick
        test_written_at_hits;
      Alcotest.test_case "unpack: one claims array per emitter" `Quick
        test_interned_claims;
      Alcotest.test_case "unpack: out-of-range keys bypass the memo" `Quick
        test_intern_out_of_range;
      Alcotest.test_case "unpack: interned words <= 23% of fresh" `Quick
        test_unpack_alloc;
      Alcotest.test_case "unpack: entry memos round-trip exactly" `Quick
        test_entry_memo_roundtrip;
      Alcotest.test_case "channel decisions allocate nothing" `Quick
        test_channel_decision_alloc;
      Alcotest.test_case "next_hop allocates only its decision" `Quick
        test_next_hop_alloc;
      Alcotest.test_case "Algorithm.run rounds allocate nothing" `Quick
        test_algorithm_round_alloc;
      Alcotest.test_case "lossy flat rounds allocate O(1) in n" `Quick
        test_lossy_round_alloc;
      Alcotest.test_case "steady-layout step = handle (1 domain)" `Quick
        (test_steady_layout ~domains:1);
      Alcotest.test_case "steady-layout step = handle (4 domains)" `Quick
        (test_steady_layout ~domains:4);
      Alcotest.test_case "scrambled labels: slot-indexed planes" `Quick
        test_scrambled_labels;
      Alcotest.test_case "a flat run never writes its graphs" `Quick
        test_graphs_untouched;
      Alcotest.test_case "alloc: minor words constant in n" `Quick
        test_alloc_words;
      Alcotest.test_case "pack into its own slot allocates nothing" `Quick
        test_pack_words;
      Alcotest.test_case "rows outgrow their slice (1 domain)" `Quick
        (test_rows_outgrow ~domains:1);
      Alcotest.test_case "rows outgrow their slice (4 domains)" `Quick
        (test_rows_outgrow ~domains:4);
    ]
