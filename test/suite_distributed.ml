module Graph = Ss_topology.Graph
module Builders = Ss_topology.Builders
module Channel = Ss_radio.Channel
module Engine = Ss_engine.Engine
module Cluster = Ss_cluster
module Config = Ss_cluster.Config
module Algorithm = Ss_cluster.Algorithm
module Assignment = Ss_cluster.Assignment
module Distributed = Ss_cluster.Distributed
module Rng = Ss_prng.Rng

module P_basic = Distributed.Make (struct
  let params = Distributed.default_params
end)

module E_basic = Engine.Make (P_basic)

module P_improved = Distributed.Make (struct
  let params =
    { Distributed.default_params with Distributed.algo = Config.improved }
end)

module E_improved = Engine.Make (P_improved)

module P_dag = Distributed.Make (struct
  let params =
    { Distributed.default_params with Distributed.algo = Config.with_dag }
end)

module E_dag = Engine.Make (P_dag)

let quiet = Distributed.default_params.Distributed.cache_ttl + 2

let random_graph ?(n = 60) ?(p = 0.08) seed =
  let rng = Rng.create ~seed in
  (Builders.gnp rng ~n ~p, rng)

let test_matches_oracle_on_perfect_channel () =
  for seed = 0 to 9 do
    let graph, rng = random_graph seed in
    let result = E_basic.run ~quiet_rounds:quiet rng graph in
    Alcotest.(check bool) "converged" true result.E_basic.converged;
    let distributed = Distributed.to_assignment result.E_basic.states in
    let n = Graph.node_count graph in
    let oracle =
      Algorithm.cluster (Rng.create ~seed:999) Config.basic graph
        ~ids:(Array.init n Fun.id)
    in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d matches oracle" seed)
      true
      (Assignment.equal distributed oracle)
  done

let test_densities_match_oracle () =
  let graph, rng = random_graph 42 in
  let result = E_basic.run ~quiet_rounds:quiet rng graph in
  let oracle = Cluster.Density.compute_all graph in
  Array.iteri
    (fun p st ->
      match st.Distributed.density with
      | Some d ->
          Alcotest.(check bool)
            (Printf.sprintf "density of %d" p)
            true
            (Cluster.Density.equal d oracle.(p))
      | None -> Alcotest.fail "density missing after convergence")
    result.E_basic.states

let test_improved_config_valid_and_separated () =
  let rng = Rng.create ~seed:7 in
  let graph = Builders.random_geometric rng ~intensity:150.0 ~radius:0.12 in
  let result = E_improved.run ~quiet_rounds:quiet ~max_rounds:3000 rng graph in
  Alcotest.(check bool) "converged" true result.E_improved.converged;
  let a = Distributed.to_assignment result.E_improved.states in
  (match Assignment.validate graph a with
  | Ok () -> ()
  | Error ps ->
      Alcotest.failf "invalid: %a"
        Fmt.(list ~sep:comma Assignment.pp_problem)
        ps);
  match Cluster.Metrics.min_head_separation graph a with
  | Some s -> Alcotest.(check bool) "separation >= 3" true (s >= 3)
  | None -> ()

let test_dag_names_locally_unique_after_convergence () =
  let graph, rng = random_graph ~n:50 ~p:0.12 17 in
  let result = E_dag.run ~quiet_rounds:quiet rng graph in
  Alcotest.(check bool) "converged" true result.E_dag.converged;
  let names = Array.map (fun st -> st.Distributed.dag) result.E_dag.states in
  Alcotest.(check bool) "locally unique" true
    (Ss_topology.Dag.locally_unique graph names)

let test_recovery_reaches_same_fixpoint () =
  (* The self-stabilization contract: arbitrary corruption of any subset of
     nodes, then re-convergence to the same legitimate clustering. *)
  for seed = 0 to 4 do
    let graph, rng = random_graph seed in
    let first = E_basic.run ~quiet_rounds:quiet rng graph in
    let before = Distributed.to_assignment first.E_basic.states in
    let n = Graph.node_count graph in
    let victims = Rng.permutation rng n in
    for i = 0 to (n / 2) - 1 do
      let p = victims.(i) in
      first.E_basic.states.(p) <-
        Distributed.corrupt rng p first.E_basic.states.(p)
    done;
    let second =
      E_basic.run ~states:first.E_basic.states ~quiet_rounds:quiet rng graph
    in
    Alcotest.(check bool) "re-converged" true second.E_basic.converged;
    let after = Distributed.to_assignment second.E_basic.states in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d same fixpoint" seed)
      true
      (Assignment.equal before after)
  done

let test_total_corruption_recovers () =
  let graph, rng = random_graph 23 in
  let first = E_basic.run ~quiet_rounds:quiet rng graph in
  let before = Distributed.to_assignment first.E_basic.states in
  Array.iteri
    (fun p st ->
      first.E_basic.states.(p) <- Distributed.corrupt rng p st)
    first.E_basic.states;
  let second =
    E_basic.run ~states:first.E_basic.states ~quiet_rounds:quiet rng graph
  in
  Alcotest.(check bool) "recovered" true
    (Assignment.equal before (Distributed.to_assignment second.E_basic.states))

let test_lossy_channel_converges_to_oracle () =
  (* tau = 0.9 with the default TTL of 3: spurious cache expiry needs three
     consecutive losses (probability 0.1%), so quiet windows are common and
     the reached fixpoint must still be the oracle clustering. *)
  let graph, rng = random_graph ~n:30 33 in
  let result =
    E_basic.run ~channel:(Channel.bernoulli 0.9) ~quiet_rounds:quiet
      ~max_rounds:5000 rng graph
  in
  Alcotest.(check bool) "converged" true result.E_basic.converged;
  let n = Graph.node_count graph in
  let oracle =
    Algorithm.cluster (Rng.create ~seed:1) Config.basic graph
      ~ids:(Array.init n Fun.id)
  in
  Alcotest.(check bool) "oracle fixpoint" true
    (Assignment.equal (Distributed.to_assignment result.E_basic.states) oracle)

let test_knowledge_schedule_small () =
  (* Table 2 at miniature scale: neighbors at round 1, true density by
     round 2 on a clean start with perfect delivery. *)
  let graph = Builders.complete 4 in
  let rng = Rng.create ~seed:3 in
  let states = E_basic.init_states rng graph in
  let snapshots = ref [] in
  (* [run] copies [~states] at entry (warm-start runs never mutate the
     caller's array), so per-round observation goes through [probe]. *)
  let _ =
    E_basic.run ~states
      ~probe:(fun ~round:_ ~graph:_ ~alive:_ sts ->
        snapshots := Array.copy sts :: !snapshots)
      rng graph
  in
  let rounds = Array.of_list (List.rev !snapshots) in
  let oracle = Cluster.Density.compute_all graph in
  Array.iteri
    (fun p st ->
      ignore p;
      Alcotest.(check int) "knows 3 neighbors after round 1" 3
        (List.length st.Distributed.cache))
    rounds.(0);
  Array.iteri
    (fun p st ->
      match st.Distributed.density with
      | Some d ->
          Alcotest.(check bool) "true density after round 2" true
            (Cluster.Density.equal d oracle.(p))
      | None -> Alcotest.fail "density missing")
    rounds.(1)

let test_corrupt_changes_state () =
  let graph, rng = random_graph 44 in
  let result = E_basic.run ~quiet_rounds:quiet rng graph in
  let st = result.E_basic.states.(0) in
  let changed = ref false in
  (* Corruption is randomized; over 20 draws at least one must differ. *)
  for _ = 1 to 20 do
    if not (P_basic.equal_state st (Distributed.corrupt rng 0 st)) then
      changed := true
  done;
  Alcotest.(check bool) "corruption perturbs state" true !changed

let test_to_assignment_defaults () =
  let rng = Rng.create ~seed:55 in
  let graph = Builders.path 3 in
  let states = E_basic.init_states rng graph in
  (* Fresh states elected nothing: everyone reads as their own head. *)
  let a = Distributed.to_assignment states in
  for p = 0 to 2 do
    Alcotest.(check bool) "self head" true (Assignment.is_head a p)
  done

let test_isolated_node_elects_itself () =
  let graph = Graph.of_edges ~n:2 [] in
  let rng = Rng.create ~seed:66 in
  let result = E_basic.run ~quiet_rounds:quiet rng graph in
  let a = Distributed.to_assignment result.E_basic.states in
  Alcotest.(check bool) "node 0 self-heads" true (Assignment.is_head a 0);
  Alcotest.(check bool) "node 1 self-heads" true (Assignment.is_head a 1)

let test_random_order_scheduler_reaches_oracle () =
  (* The randomized daemon (the paper's asynchronous model) reaches the
     same unique fixpoint as lockstep execution for the basic config. *)
  let graph, rng = random_graph ~n:40 77 in
  let result =
    E_basic.run ~scheduler:Ss_engine.Scheduler.Random_order
      ~quiet_rounds:quiet rng graph
  in
  Alcotest.(check bool) "converged" true result.E_basic.converged;
  let n = Graph.node_count graph in
  let oracle =
    Algorithm.cluster (Rng.create ~seed:1) Config.basic graph
      ~ids:(Array.init n Fun.id)
  in
  Alcotest.(check bool) "oracle fixpoint" true
    (Assignment.equal (Distributed.to_assignment result.E_basic.states) oracle)

let test_slotted_contention_converges () =
  (* Real receiver-side collisions instead of the Bernoulli abstraction:
     the stack still stabilizes to the oracle clustering. *)
  let rng = Rng.create ~seed:88 in
  let graph = Builders.random_geometric rng ~intensity:80.0 ~radius:0.15 in
  let slots = 4 * (1 + Graph.max_degree graph) in
  let result =
    E_basic.run
      ~channel:(Channel.slotted ~slots)
      ~quiet_rounds:quiet ~max_rounds:5000 rng graph
  in
  Alcotest.(check bool) "converged" true result.E_basic.converged;
  let n = Graph.node_count graph in
  let oracle =
    Algorithm.cluster (Rng.create ~seed:1) Config.basic graph
      ~ids:(Array.init n Fun.id)
  in
  Alcotest.(check bool) "oracle fixpoint" true
    (Assignment.equal (Distributed.to_assignment result.E_basic.states) oracle)

(* Heavy loss (a jammed quadrant at 50% delivery) needs caches that ride
   out loss bursts: with TTL t, a spurious expiry needs t consecutive
   losses, so t = 20 makes churn negligible even at jam_tau = 0.5. *)
module P_long_ttl = Distributed.Make (struct
  let params = { Distributed.default_params with Distributed.cache_ttl = 20 }
end)

module E_long_ttl = Engine.Make (P_long_ttl)

let test_jammed_region_delays_but_converges () =
  let rng = Rng.create ~seed:89 in
  let graph = Builders.random_geometric rng ~intensity:80.0 ~radius:0.15 in
  let region =
    Ss_geom.Bbox.make ~min_x:0.0 ~min_y:0.0 ~max_x:0.5 ~max_y:0.5
  in
  let channel = Channel.jammed ~tau:1.0 ~region ~jam_tau:0.5 in
  let result =
    E_long_ttl.run ~channel ~quiet_rounds:25 ~max_rounds:5000 rng graph
  in
  Alcotest.(check bool) "converged" true result.E_long_ttl.converged;
  let n = Graph.node_count graph in
  let oracle =
    Algorithm.cluster (Rng.create ~seed:1) Config.basic graph
      ~ids:(Array.init n Fun.id)
  in
  Alcotest.(check bool) "oracle fixpoint" true
    (Assignment.equal (Distributed.to_assignment result.E_long_ttl.states) oracle)

let test_custom_ids_respected () =
  (* Supplying explicit global ids changes tie-breaks exactly as in the
     oracle. *)
  let graph = Builders.cycle 6 in
  let ids = [| 5; 4; 3; 2; 1; 0 |] in
  let module P_ids = Distributed.Make (struct
    let params = { Distributed.default_params with Distributed.ids = Some ids }
  end) in
  let module E_ids = Ss_engine.Engine.Make (P_ids) in
  let rng = Rng.create ~seed:90 in
  let result = E_ids.run ~quiet_rounds:quiet rng graph in
  let a = Distributed.to_assignment result.E_ids.states in
  let oracle = Algorithm.cluster (Rng.create ~seed:1) Config.basic graph ~ids in
  Alcotest.(check bool) "converged" true result.E_ids.converged;
  Alcotest.(check bool) "ids drive the election" true
    (Assignment.equal a oracle);
  (* On an all-ties cycle the smallest id (node 5) must head. *)
  Alcotest.(check bool) "node with id 0 heads" true (Assignment.is_head a 5)

(* --------------------------------------------------------------- qcheck *)

let prop_recovery_legitimate =
  (* Arbitrary topology, arbitrary corruption fraction: after recovery the
     assignment satisfies the structural legitimacy predicate. *)
  QCheck.Test.make ~name:"corruption recovery reaches a legitimate state"
    ~count:40
    (QCheck.make
       ~print:(fun (n, p, seed, frac) ->
         Printf.sprintf "n=%d p=%.2f seed=%d frac=%.2f" n p seed frac)
       QCheck.Gen.(
         quad (int_range 2 40) (float_range 0.02 0.25) (int_range 0 9999)
           (float_range 0.0 1.0)))
    (fun (n, p, seed, frac) ->
      let rng = Rng.create ~seed in
      let graph = Builders.gnp rng ~n ~p in
      let first = E_basic.run ~quiet_rounds:quiet rng graph in
      let count = int_of_float (frac *. float_of_int n) in
      let victims = Rng.permutation rng n in
      for i = 0 to count - 1 do
        let v = victims.(i) in
        first.E_basic.states.(v) <-
          Distributed.corrupt rng v first.E_basic.states.(v)
      done;
      let second =
        E_basic.run ~states:first.E_basic.states ~quiet_rounds:quiet
          ~max_rounds:2000 rng graph
      in
      second.E_basic.converged
      && Assignment.validate graph
           (Distributed.to_assignment second.E_basic.states)
         = Ok ())

(* The typed [handle]'s cache refresh against its reference semantics,
   kept here as the oracle: a left fold of sorted-list inserts over the
   received frames (a later put replaces an equal key; the receiver's own
   relayed summary is never inserted), then the TTL filter. Inputs go
   beyond what an engine delivers — unsorted frame lists, duplicate
   senders, unsorted relay arrays with repeated and self entries — and
   heard stamps straddle the TTL edge. *)
let assoc_put key value l =
  let rec go = function
    | [] -> [ (key, value) ]
    | ((k, _) as pair) :: rest ->
        if k < key then pair :: go rest
        else if k = key then (key, value) :: rest
        else (key, value) :: pair :: rest
  in
  go l

let fold_refresh ~ttl ~self clock (st : Distributed.state) msgs =
  let cache =
    List.fold_left
      (fun cache (q, (m : Distributed.message)) ->
        assoc_put q
          {
            Distributed.e_heard = clock;
            e_gid = m.m_gid;
            e_dag = m.m_dag;
            e_density = m.m_density;
            e_head = m.m_head;
            e_nbrs = Array.map (fun s -> s.Distributed.s_node) m.m_nbrs;
          }
          cache)
      st.cache msgs
  in
  let far =
    List.fold_left
      (fun far (_, (m : Distributed.message)) ->
        Array.fold_left
          (fun far (s : Distributed.summary) ->
            if s.s_node = self then far
            else
              assoc_put s.s_node
                {
                  Distributed.f_heard = clock;
                  f_density = s.s_density;
                  f_eff = s.s_eff;
                  f_is_head = s.s_is_head;
                }
                far)
          far m.m_nbrs)
      st.far msgs
  in
  ( List.filter (fun (_, e) -> clock - e.Distributed.e_heard <= ttl) cache,
    List.filter (fun (_, f) -> clock - f.Distributed.f_heard <= ttl) far )

type refresh_case = {
  r_ttl : int;
  r_self : int;
  r_state : Distributed.state;
  r_msgs : (int * Distributed.message) list;
}

(* Keys are drawn from [0, 11], and in a quarter of the cases also from
   the ends of the int range, with more empty frames: a key equal to a
   sentinel the merge might use for an exhausted frame must still be read
   as a key. *)
let gen_refresh_case =
  let open QCheck.Gen in
  let* wide = frequencyl [ (3, false); (1, true) ] in
  let key =
    if wide then
      frequency
        [
          (2, int_range 0 11);
          (1, oneofl [ min_int; -1; max_int - 1; max_int ]);
        ]
    else int_range 0 11
  in
  let density =
    opt
      (map2
         (fun links nodes -> Cluster.Density.make ~links ~nodes)
         (int_range 0 12) (int_range 1 6))
  in
  let canonical entry =
    map
      (List.sort_uniq (fun (a, _) (b, _) -> Int.compare a b))
      (list_size (int_range 0 8) (pair key entry))
  in
  let* r_ttl = int_range 0 4 in
  let* r_self = key in
  let* clock = int_range (r_ttl + 2) 20 in
  (* [clock - ttl] is the oldest stamp the filter keeps *)
  let heard = int_range (clock - r_ttl - 2) (clock - 1) in
  let* cache =
    canonical
      (let+ e_heard = heard
       and+ e_gid = key
       and+ e_dag = int_range 0 7
       and+ e_density = density
       and+ e_head = opt key
       and+ e_nbrs = array_size (int_range 0 4) key in
       { Distributed.e_heard; e_gid; e_dag; e_density; e_head; e_nbrs })
  in
  let* far =
    canonical
      (let+ f_heard = heard
       and+ f_density = density
       and+ f_eff = int_range 0 7
       and+ f_is_head = bool in
       { Distributed.f_heard; f_density; f_eff; f_is_head })
  in
  let summary =
    let+ s_node = key
    and+ s_density = density
    and+ s_eff = int_range 0 7
    and+ s_is_head = bool in
    { Distributed.s_node; s_density; s_eff; s_is_head }
  in
  let+ r_msgs =
    list_size (int_range 0 8)
      (let* q = key in
       let+ m_gid = key
       and+ m_dag = int_range 0 7
       and+ m_density = density
       and+ m_head = opt key
       and+ m_nbrs =
         if wide then
           frequency
             [ (2, array_size (int_range 0 6) summary); (1, return [||]) ]
         else array_size (int_range 0 6) summary
       in
       (q, { Distributed.m_node = q; m_gid; m_dag; m_density; m_head; m_nbrs }))
  in
  let r_state =
    {
      Distributed.clock = clock - 1;
      gamma = 8;
      gid = r_self;
      dag = 0;
      density = None;
      parent = None;
      head = None;
      cache;
      far;
    }
  in
  { r_ttl; r_self; r_state; r_msgs }

let print_refresh_case c =
  let keys heard l =
    String.concat ","
      (List.map (fun (k, e) -> Printf.sprintf "%d@%d" k (heard e)) l)
  in
  Printf.sprintf "ttl=%d self=%d clock=%d cache=[%s] far=[%s] msgs=[%s]"
    c.r_ttl c.r_self (c.r_state.clock + 1)
    (keys (fun e -> e.Distributed.e_heard) c.r_state.cache)
    (keys (fun f -> f.Distributed.f_heard) c.r_state.far)
    (String.concat "; "
       (List.map
          (fun (q, (m : Distributed.message)) ->
            Printf.sprintf "%d:{%s}" q
              (String.concat ","
                 (Array.to_list
                    (Array.map
                       (fun s -> string_of_int s.Distributed.s_node)
                       m.m_nbrs))))
          c.r_msgs))

let prop_refresh_matches_fold =
  QCheck.Test.make ~name:"handle's cache refresh = the assoc_put fold"
    ~count:1000
    (QCheck.make ~print:print_refresh_case gen_refresh_case)
    (fun c ->
      let module P = Distributed.Make (struct
        let params =
          { Distributed.default_params with cache_ttl = c.r_ttl }
      end) in
      let clock = c.r_state.clock + 1 in
      let st =
        P.handle (Rng.create ~seed:0) (Builders.path 2) c.r_self c.r_state
          c.r_msgs
      in
      let cache, far =
        fold_refresh ~ttl:c.r_ttl ~self:c.r_self clock c.r_state c.r_msgs
      in
      st.cache = cache && st.far = far)


(* The far refresh as it was first written, kept here as an oracle:
   every frame's relayed summaries concatenated in reception order,
   stable-sorted by key (so the last of each run of equal keys is the
   latest claim received), then merged over the old list with the
   receiver's own key skipped and the TTL filter last. *)
let concat_refresh_far ~ttl ~self clock far msgs =
  let fresh =
    Array.concat
      (List.map (fun (_, (m : Distributed.message)) -> m.m_nbrs) msgs)
  in
  Array.stable_sort
    (fun (a : Distributed.summary) b -> Int.compare a.s_node b.s_node)
    fresh;
  let keep (f : Distributed.far_entry) = clock - f.f_heard <= ttl in
  let n = Array.length fresh in
  let rec go i old =
    if i >= n then List.filter (fun (_, f) -> keep f) old
    else begin
      let k = fresh.(i).Distributed.s_node in
      let j = ref i in
      while !j + 1 < n && fresh.(!j + 1).Distributed.s_node = k do
        incr j
      done;
      if k = self then go (!j + 1) old else put k fresh.(!j) (!j + 1) old
    end
  and put k (s : Distributed.summary) next old =
    match old with
    | ((ok, oe) as pair) :: rest when ok < k ->
        if keep oe then pair :: put k s next rest else put k s next rest
    | (ok, _) :: rest when ok = k -> add k s next rest
    | _ -> add k s next old
  and add k s next old =
    let f =
      {
        Distributed.f_heard = clock;
        f_density = s.s_density;
        f_eff = s.s_eff;
        f_is_head = s.s_is_head;
      }
    in
    if keep f then (k, f) :: go next old else go next old
  in
  go 0 far

(* [gen_refresh_case] with each frame's summaries sorted by key in half of
   the frames (the order every emission has, duplicates kept in place by a
   stable sort) and the senders sorted in half of the cases, so the
   in-place merge and the normaliser for out-of-order frames both run. *)
let gen_far_case =
  let open QCheck.Gen in
  let* c = gen_refresh_case in
  let* sorted_senders = bool in
  let* flags = list_repeat (List.length c.r_msgs) bool in
  let by_node (a : Distributed.summary) (b : Distributed.summary) =
    Int.compare a.s_node b.s_node
  in
  let msgs =
    List.map2
      (fun sort (q, (m : Distributed.message)) ->
        if sort then begin
          let a = Array.copy m.m_nbrs in
          Array.stable_sort by_node a;
          (q, { m with m_nbrs = a })
        end
        else (q, m))
      flags c.r_msgs
  in
  let msgs =
    if sorted_senders then
      List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) msgs
    else msgs
  in
  return { c with r_msgs = msgs }

let prop_far_refresh_matches_concat =
  QCheck.Test.make
    ~name:"handle's far refresh = the concat + stable-sort oracle"
    ~count:1000
    (QCheck.make ~print:print_refresh_case gen_far_case)
    (fun c ->
      let module P = Distributed.Make (struct
        let params =
          { Distributed.default_params with cache_ttl = c.r_ttl }
      end) in
      let frozen =
        List.map
          (fun (_, (m : Distributed.message)) -> Array.copy m.m_nbrs)
          c.r_msgs
      in
      let st =
        P.handle (Rng.create ~seed:0) (Builders.path 2) c.r_self c.r_state
          c.r_msgs
      in
      st.far
      = concat_refresh_far ~ttl:c.r_ttl ~self:c.r_self (c.r_state.clock + 1)
          c.r_state.far c.r_msgs
      (* the received frames are never reordered in place *)
      && List.for_all2
           (fun a (_, (m : Distributed.message)) -> a = m.m_nbrs)
           frozen c.r_msgs)

(* The density [handle] computes equals [Density.of_local_view] over the
   refreshed cache, whatever order the cache is in: hand-built states may
   carry unsorted or repeated keys, keys outside any node range, and
   unsorted claims. With no frames and a wide TTL the refreshed cache is
   the given one. *)
let gen_density_cache =
  let open QCheck.Gen in
  let key = oneof [ int_range 0 9; int_range (-3) 12; oneofl [ -100; 4096 ] ] in
  let claims =
    let* a = array_size (int_range 0 6) key in
    let+ sort = bool in
    if sort then Array.sort Int.compare a;
    a
  in
  let entry =
    let+ q = key and+ e_nbrs = claims in
    ( q,
      {
        Distributed.e_heard = 1;
        e_gid = 0;
        e_dag = 0;
        e_density = None;
        e_head = None;
        e_nbrs;
      } )
  in
  let* cache = list_size (int_range 0 8) entry in
  let+ order = int_range 0 2 in
  match order with
  | 0 -> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) cache
  | 1 -> List.sort_uniq (fun (a, _) (b, _) -> Int.compare a b) cache
  | _ -> cache

let prop_density_matches_local_view =
  QCheck.Test.make ~name:"handle's density = Density.of_local_view" ~count:1000
    (QCheck.make
       ~print:(fun cache ->
         String.concat "; "
           (List.map
              (fun (q, e) ->
                Printf.sprintf "%d:[%s]" q
                  (String.concat ","
                     (Array.to_list
                        (Array.map string_of_int e.Distributed.e_nbrs))))
              cache))
       gen_density_cache)
    (fun cache ->
      let st =
        P_long_ttl.handle (Rng.create ~seed:0) (Builders.path 2) 0
          {
            Distributed.clock = 1;
            gamma = 8;
            gid = 0;
            dag = 0;
            density = None;
            parent = None;
            head = None;
            cache;
            far = [];
          }
          []
      in
      st.cache = cache
      && st.density
         = Some
             (Cluster.Density.of_local_view
                ~neighbors:(Array.of_list (List.map fst cache))
                ~tables:
                  (List.map (fun (q, e) -> (q, e.Distributed.e_nbrs)) cache)))

(* A converged deployment and, per node, the frames it hears from its
   neighbors' final states, as an executor delivers them (senders
   ascending). *)
let converged_frames (module P : Ss_engine.Protocol.S
      with type state = Distributed.state
       and type message = Distributed.message) graph states =
  Array.init (Graph.node_count graph) (fun p ->
      Array.to_list
        (Array.map
           (fun q -> (q, P.emit graph q states.(q)))
           (Graph.neighbors graph p)))

(* A steady neighbor's entry keeps its claims array: on a converged
   deployment every refreshed entry shares [e_nbrs] with the entry it
   replaces, and the state is still structurally what the fold oracle
   builds from scratch. *)
let test_claims_reused () =
  let graph, rng = random_graph ~n:50 ~p:0.12 5 in
  let result = E_improved.run ~quiet_rounds:quiet rng graph in
  let states = result.E_improved.states in
  let frames = converged_frames (module P_improved) graph states in
  Array.iteri
    (fun p (st : Distributed.state) ->
      let st' = P_improved.handle rng graph p st frames.(p) in
      let cache, far =
        fold_refresh ~ttl:Distributed.default_params.cache_ttl ~self:p
          (st.clock + 1) st frames.(p)
      in
      Alcotest.(check bool) (Printf.sprintf "node %d cache = fresh build" p)
        true (st'.cache = cache && st'.far = far);
      Alcotest.(check bool) (Printf.sprintf "node %d outputs kept" p) true
        (P_improved.equal_state st st');
      List.iter2
        (fun (_, (e : Distributed.entry)) (_, (e' : Distributed.entry)) ->
          Alcotest.(check bool) (Printf.sprintf "node %d claims shared" p) true
            (e.e_nbrs == e'.e_nbrs))
        st.cache st'.cache)
    states

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* A negative TTL would expire every entry the round it is heard: each
   node would read as an isolated self-head. The functor rejects it. *)
let test_negative_ttl_rejected () =
  let apply cache_ttl =
    let module P = Distributed.Make (struct
      let params = { Distributed.default_params with cache_ttl }
    end) in
    ignore P.handle
  in
  apply 0;
  match apply (-2) with
  | () -> Alcotest.fail "cache_ttl = -2 accepted"
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        (Printf.sprintf "message names the value: %S" msg)
        true
        (contains msg "-2")

(* Words allocated per typed [handle] call on a converged 9x9 jittered
   grid (mean degree about 9, the byzantine benchmark's shape), each node
   fed its neighbors' final frames. *)
let handle_words_per_call () =
  let module P = Distributed.Make (struct
    let params =
      { Distributed.default_params with algo = Config.improved_with_dag }
  end) in
  let module E = Engine.Make (P) in
  let rng = Rng.create ~seed:9 in
  let side = 9 in
  let n = side * side in
  let graph =
    Graph.unit_disk
      ~radius:(sqrt (9.0 /. (Float.pi *. float_of_int n)))
      (Ss_geom.Point_process.jittered_grid rng ~cols:side ~rows:side
         ~box:Ss_geom.Bbox.unit_square ~jitter:0.4)
  in
  let result = E.run ~quiet_rounds:quiet rng graph in
  Alcotest.(check bool) "converged" true result.E.converged;
  let states = result.E.states in
  let frames = converged_frames (module P) graph states in
  let reps = 20 in
  let before = Gc.minor_words () in
  for _ = 1 to reps do
    for p = 0 to n - 1 do
      ignore (Sys.opaque_identity (P.handle rng graph p states.(p) frames.(p)))
    done
  done;
  (Gc.minor_words () -. before) /. float_of_int (reps * n)

(* A call reads 444 words on this deployment (the concat + sort refresh
   allocated 1,171); the pin allows 5 % (22 words) over that, so a
   regression the size of the last one, 344 to 436 words, fails. *)
let handle_words_bound = 1.05 *. 444.0

let test_handle_alloc_pinned () =
  let words = handle_words_per_call () in
  Alcotest.(check bool)
    (Printf.sprintf "handle words per call %.0f <= %.0f" words
       handle_words_bound)
    true
    (words <= handle_words_bound)

(* Under every rule set, a [Distributed] fixpoint reached on a perfect
   channel under a randomised daemon is a fixpoint of [Algorithm]'s
   rules, judged with the names the states settled on. A run that never
   goes quiet fails. *)
let test_fixpoint_is_algorithm_fixpoint () =
  Array.iter
    (fun (name, algo) ->
      let module P = Distributed.Make (struct
        let params = { Distributed.default_params with algo }
      end) in
      let module E = Engine.Make (P) in
      for seed = 0 to 4 do
        let rng = Rng.create ~seed:(300 + seed) in
        let graph =
          Builders.random_geometric rng ~intensity:100.0 ~radius:0.15
        in
        let n = Graph.node_count graph in
        let result =
          E.run ~scheduler:Ss_engine.Scheduler.Random_order
            ~channel:Channel.perfect ~quiet_rounds:quiet ~max_rounds:2000 rng
            graph
        in
        if not result.E.converged then
          Alcotest.failf "%s, seed %d: not quiet after %d rounds" name seed
            result.E.rounds;
        let states = result.E.states in
        match
          Cluster.Legitimacy.check
            ~dag_names:(Array.map (fun (st : Distributed.state) -> st.dag) states)
            algo graph ~ids:(Array.init n Fun.id)
            (Distributed.to_assignment states)
        with
        | Ok () -> ()
        | Error vs ->
            Alcotest.failf "%s, seed %d (%d nodes): %a" name seed n
              Fmt.(list ~sep:comma Cluster.Legitimacy.pp_violation)
              vs
      done)
    Differential.configs

(* The 5-node fusion livelock of [Suite_algorithm], run as the protocol.
   Caches are warmed on the graph first and then rewritten, with the
   states, to the witness's names and heads, so the first election reads
   the configuration [Algorithm] starts from. Lockstep rounds on a
   perfect channel then cycle like the rules do, with the same two head
   vectors, and the monitor says so; the central daemon converges. From
   cold caches (heads and names set, caches empty) the same run converges
   instead, so the cycle needs the caches to agree with the heads. *)
let test_livelock_witness_oscillates () =
  let module P = Distributed.Make (struct
    let params =
      {
        Distributed.default_params with
        Distributed.algo = Config.improved_with_dag;
      }
  end) in
  let module E = Engine.Make (P) in
  let graph = Suite_algorithm.livelock_graph in
  let names = Suite_algorithm.livelock_names
  and heads = Suite_algorithm.livelock_heads in
  let init = Rng.create ~seed:1 in
  let warmed =
    E.run ~mode:E.Dense ~max_rounds:30 ~quiet_rounds:quiet
      ~states:(Array.init 5 (fun p -> P.init init graph p))
      (Rng.create ~seed:2) graph
  in
  let states =
    Array.mapi
      (fun p (st : Distributed.state) ->
        {
          st with
          dag = names.(p);
          head = Some heads.(p);
          parent = Some heads.(p);
          cache =
            List.map
              (fun (q, (e : Distributed.entry)) ->
                (q, { e with e_dag = names.(q); e_head = Some heads.(q) }))
              st.cache;
          far =
            List.map
              (fun (v, (f : Distributed.far_entry)) ->
                (v, { f with f_eff = names.(v); f_is_head = heads.(v) = v }))
              st.far;
        })
      warmed.E.states
  in
  let heads_of (r : E.run) =
    Array.map
      (fun (st : Distributed.state) -> Option.value st.head ~default:(-1))
      r.E.states
  in
  List.iter
    (fun (tag, mode) ->
      let m =
        Cluster.Invariants.monitor ~config:Config.improved_with_dag
          ~ids:(Array.init 5 Fun.id) ()
      in
      let r =
        E.run ~mode ~scheduler:Ss_engine.Scheduler.Synchronous
          ~channel:Channel.perfect ~max_rounds:100 ~quiet_rounds:quiet
          ~probe:(Ss_engine.Monitor.probe m)
          ~on_round:(Ss_engine.Monitor.on_round m) ~states (Rng.create ~seed:3)
          graph
      in
      Alcotest.(check bool) (tag ^ ": synchronous run not converged") false
        r.E.converged;
      let h = heads_of r in
      Alcotest.(check bool)
        (tag ^ ": heads on the 2-cycle")
        true
        (h = [| 3; 3; 3; 3; 0 |] || h = [| 0; 3; 3; 3; 3 |]);
      match
        (Ss_engine.Monitor.report m ~converged:r.E.converged)
          .Ss_engine.Monitor.classification
      with
      | Ss_engine.Monitor.Oscillating { period = 2; _ } -> ()
      | c ->
          Alcotest.failf "%s: monitor reads %a, not period 2" tag
            Ss_engine.Monitor.pp_classification c)
    [
      ("dense", E.Dense);
      ("sparse", E.Sparse { warm = Some Distributed.pending_expiry });
    ];
  let run ?(states = states) scheduler =
    E.run ~mode:E.Dense ~scheduler ~channel:Channel.perfect ~max_rounds:100
      ~quiet_rounds:quiet ~states (Rng.create ~seed:3) graph
  in
  Alcotest.(check bool) "sequential converges" true
    (run Ss_engine.Scheduler.Sequential).E.converged;
  let cold =
    Array.init 5 (fun p ->
        {
          (P.init init graph p) with
          dag = names.(p);
          head = Some heads.(p);
          parent = Some heads.(p);
        })
  in
  Alcotest.(check bool) "synchronous from cold caches converges" true
    (run ~states:cold Ss_engine.Scheduler.Synchronous).E.converged

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_recovery_legitimate; prop_refresh_matches_fold ]

let suite =
  [
    Alcotest.test_case "matches the oracle on a perfect channel" `Quick
      test_matches_oracle_on_perfect_channel;
    Alcotest.test_case "fusion livelock witness oscillates (period 2)" `Quick
      test_livelock_witness_oscillates;
    Alcotest.test_case "densities match the oracle" `Quick
      test_densities_match_oracle;
    Alcotest.test_case "improved config validates with separation" `Quick
      test_improved_config_valid_and_separated;
    Alcotest.test_case "DAG names locally unique" `Quick
      test_dag_names_locally_unique_after_convergence;
    Alcotest.test_case "recovery reaches the same fixpoint" `Quick
      test_recovery_reaches_same_fixpoint;
    Alcotest.test_case "total corruption recovers" `Quick
      test_total_corruption_recovers;
    Alcotest.test_case "lossy channel reaches the oracle fixpoint" `Quick
      test_lossy_channel_converges_to_oracle;
    Alcotest.test_case "knowledge schedule (miniature Table 2)" `Quick
      test_knowledge_schedule_small;
    Alcotest.test_case "corrupt perturbs state" `Quick test_corrupt_changes_state;
    Alcotest.test_case "to_assignment defaults to self-heads" `Quick
      test_to_assignment_defaults;
    Alcotest.test_case "isolated nodes elect themselves" `Quick
      test_isolated_node_elects_itself;
    Alcotest.test_case "random-order scheduler reaches the oracle" `Quick
      test_random_order_scheduler_reaches_oracle;
    Alcotest.test_case "slotted contention converges to the oracle" `Quick
      test_slotted_contention_converges;
    Alcotest.test_case "jammed region delays but converges" `Quick
      test_jammed_region_delays_but_converges;
    Alcotest.test_case "custom global ids respected" `Quick
      test_custom_ids_respected;
  ]
  @ qcheck_cases
  @ [
      QCheck_alcotest.to_alcotest prop_far_refresh_matches_concat;
      QCheck_alcotest.to_alcotest prop_density_matches_local_view;
      Alcotest.test_case "steady claims are shared, states unchanged" `Quick
        test_claims_reused;
      Alcotest.test_case "a negative cache TTL is rejected" `Quick
        test_negative_ttl_rejected;
      Alcotest.test_case "a fixpoint is an Algorithm fixpoint (every preset)"
        `Quick test_fixpoint_is_algorithm_fixpoint;
      Alcotest.test_case "typed handle allocation pinned" `Quick
        test_handle_alloc_pinned;
    ]
