module Graph = Ss_topology.Graph
module Dynamic = Ss_topology.Dynamic
module Motion = Ss_topology.Motion
module Channel = Ss_radio.Channel
module Pool = Ss_stats.Pool
module Rng = Ss_prng.Rng

type fault_report = { fault_round : int; corrupted : int list }

type motion_hook = round:int -> (Graph.t * Motion.diff) option

type round_info = {
  round : int;
  changed : int;
  events : int;
  corrupted : int list;
}

type burst = {
  burst_start : int;
  burst_end : int;
  burst_events : int;
  recovery_rounds : int option;
}

type 's reader = {
  state : int -> 's;
  changed_at : int -> int;
  written_at : int -> int;
}

(* Fold per-round (round, applied-event-count) pairs into maximal runs of
   consecutive event rounds, then read each burst's recovery time off the
   change history: the last round with activity before the next burst (or
   the end of the run). A final burst the run never settled after reads as
   None. *)
let finalize_bursts ~event_rounds ~history ~rounds ~converged =
  let changed = Array.of_list history in
  let merged =
    List.fold_left
      (fun acc (r, k) ->
        match acc with
        | (s, e, n) :: rest when r = e + 1 -> (s, r, n + k) :: rest
        | _ -> (r, r, k) :: acc)
      [] event_rounds
    |> List.rev
  in
  let rec annotate = function
    | [] -> []
    | (s, e, n) :: rest ->
        let window_end =
          match rest with (s', _, _) :: _ -> s' - 1 | [] -> rounds
        in
        let last_active = ref e in
        for r = e to min window_end rounds do
          if r >= 1 && r <= Array.length changed && changed.(r - 1) > 0 then
            last_active := r
        done;
        let settled = (match rest with [] -> converged | _ :: _ -> true) in
        {
          burst_start = s;
          burst_end = e;
          burst_events = n;
          recovery_rounds = (if settled then Some (!last_active - e) else None);
        }
        :: annotate rest
  in
  annotate merged

(* Key lanes under the run's base key: round -> {channel, permutation,
   per-node handle} streams. Every random decision of a round except churn
   is a pure function of its lane, so executing a subset of the nodes
   cannot shift anyone else's draws — the property the frontier's
   equivalence to the dense walk rests on. The main sequential generator
   is reserved for the per-round plan evaluation (churn events, Join
   re-inits, Corrupt scrambles), which every executor performs
   identically. *)
let lane_channel rk = Rng.subkey rk 0
let lane_perm rk = Rng.subkey rk 1
let lane_handle rk = Rng.subkey rk 2

module Make (P : Protocol.S) = struct
  type run = {
    states : P.state array;
    rounds : int; (* rounds actually executed *)
    converged : bool;
    last_change_round : int; (* 0 if nothing ever changed *)
    change_history : int list; (* per-round changed-node counts, oldest first *)
    alive : bool array;
    graph : Graph.t;
    bursts : burst list;
    faults : fault_report list; (* rounds with corrupted nodes, oldest first *)
    changed_at : int array; (* round of each node's last output change, or 0 *)
  }

  type mode = Dense | Sparse of { warm : (P.state -> bool) option }

  type 'sc planes = {
    pack : int -> P.state -> unit;
    unpack : int -> P.state;
    step : Graph.t -> 'sc -> Rng.key -> int -> int array -> int -> bool;
    refresh : 'sc -> int -> bool;
    warm : int -> bool;
    scratches : 'sc array;
    pool : Pool.t option;
  }

  type 'sc exec = Walk of P.state array | Frontier of 'sc planes

  type settings = {
    who : string;
    base_key : Rng.key;
    scheduler : Scheduler.t;
    channel : Channel.t;
    max_rounds : int;
    quiet_rounds : int;
  }

  (* ------------------------------------------- the dense reference walk *)

  (* Frames received by node p this step: one per snapshot neighbor, each
     surviving the round's channel plan, re-emitted by [frame q] from the
     pre-round snapshot or the live array. The walk never reads a cached
     frame, which keeps it an independent check of the frontier's. *)
  let gather_messages deliver graph frame p =
    let acc = ref [] in
    let nbrs = Graph.neighbors graph p in
    for i = Array.length nbrs - 1 downto 0 do
      let q = nbrs.(i) in
      if deliver ~src:q ~dst:p then acc := (q, frame q) :: !acc
    done;
    !acc

  let node_rng hkey p = Rng.of_key (Rng.subkey hkey p)

  let step_round ~rk ~round ~scratch ~changed_at ~written_at graph live
      channel scheduler states =
    let n = Array.length states in
    let changed = ref 0 in
    (* One delivery plan per round: slotted channels memoize their slot
       assignment per plan, so all receivers of the round see consistent
       collisions. *)
    let deliver =
      Channel.round_plan channel ~key:(lane_channel rk) ~round ~graph
    in
    let hkey = lane_handle rk in
    let update_node read p =
      if live.(p) then begin
        let msgs =
          gather_messages deliver graph (fun q -> P.emit graph q (read q)) p
        in
        let next = P.handle (node_rng hkey p) graph p states.(p) msgs in
        if not (P.equal_state next states.(p)) then begin
          incr changed;
          changed_at.(p) <- round
        end;
        states.(p) <- next;
        written_at.(p) <- round
      end
    in
    (match scheduler with
    | Scheduler.Synchronous ->
        (* Everyone broadcasts from the pre-round snapshot, held in a
           run-lifetime scratch buffer instead of a per-round copy. *)
        Array.blit states 0 scratch 0 n;
        let read q = scratch.(q) in
        for p = 0 to n - 1 do
          update_node read p
        done
    | Scheduler.Sequential ->
        let read q = states.(q) in
        for p = 0 to n - 1 do
          update_node read p
        done
    | Scheduler.Random_order ->
        let order = Rng.permutation (Rng.of_key (lane_perm rk)) n in
        let read q = states.(q) in
        Array.iter (fun p -> update_node read p) order);
    !changed

  let init_states rng graph =
    Array.init (Graph.node_count graph) (fun p -> P.init rng graph p)

  (* ---------------------------------------------------- the boxed adapter *)

  (* Sparse mode's planes: a Protocol.FLAT view of P over the typed states
     array, so Flat_core runs any protocol. The emission plane is
     [last_msg], P.emit of each node's current state: every receiver gets
     that one value (the contract forbids [handle] from mutating it) and
     [refresh] detects a change by structural comparison (the contract
     keeps messages plain data). [emit] ignores its graph argument by
     contract, so the deployment graph serves every call. *)
  let boxed ~warm graph states =
    let warm = Option.value warm ~default:(fun _ -> false) in
    let last_msg = Array.mapi (fun p st -> P.emit graph p st) states in
    {
      pack = (fun p st -> states.(p) <- st);
      unpack = (fun p -> states.(p));
      step =
        (fun g () hkey p senders count ->
          let msgs = ref [] in
          for i = count - 1 downto 0 do
            let q = senders.(i) in
            msgs := (q, last_msg.(q)) :: !msgs
          done;
          let next = P.handle (node_rng hkey p) g p states.(p) !msgs in
          let changed = not (P.equal_state next states.(p)) in
          states.(p) <- next;
          changed);
      refresh =
        (fun () p ->
          let msg = P.emit graph p states.(p) in
          if msg = last_msg.(p) then false
          else begin
            last_msg.(p) <- msg;
            true
          end);
      warm = (fun p -> warm states.(p));
      scratches = [| () |];
      pool = None;
    }

  (* ------------------------------------------------------- the run loop *)

  let enter ~who ?(scheduler = Scheduler.Synchronous)
      ?(channel = Channel.perfect) ?(max_rounds = 10_000) ?(quiet_rounds = 1)
      ?states rng graph =
    if max_rounds < 0 then invalid_arg (who ^ ": negative round budget");
    if quiet_rounds < 1 then invalid_arg (who ^ ": quiet_rounds must be >= 1");
    (* A warm-start array of the wrong length would otherwise surface as an
       out-of-bounds access deep in the round loop; fail fast with the
       mismatch spelled out. *)
    (match states with
    | Some s when Array.length s <> Graph.node_count graph ->
        invalid_arg
          (Printf.sprintf "%s: ~states has %d entries but the graph has %d nodes"
             who (Array.length s) (Graph.node_count graph))
    | _ -> ());
    (* The base key is drawn first, so the keyed lanes are a pure function
       of the generator's state at entry — identical for every executor. *)
    let base_key = Rng.key_of rng in
    { who; base_key; scheduler; channel; max_rounds; quiet_rounds }

  let loop settings ~exec ?churn ?corrupt ?motion ?on_round ?on_event ?probe
      ?workload rng graph =
    let { who; base_key; scheduler; channel; max_rounds; quiet_rounds } =
      settings
    in
    let n = Graph.node_count graph in
    let get, set =
      match exec with
      | Walk states -> ((fun p -> states.(p)), fun p st -> states.(p) <- st)
      | Frontier f -> (f.unpack, f.pack)
    in
    (* Reuse-mode snapshots are patched in place and only valid within
       their round — safe for the loop's own consumers, but a [probe]
       hands the graph to arbitrary instrumentation that may legitimately
       hold it across rounds, so probed runs keep immutable snapshots. *)
    let dyn = Dynamic.create ~reuse_snapshots:(Option.is_none probe) graph in
    let live = Array.make n true in
    (* The round in which each node's outputs last changed: an
       [equal_state]-visible step or a state rewrite (Join, Corrupt). The
       workload reader exposes it, so a hook can skip re-reading nodes
       whose outputs it has already seen. *)
    let changed_at = Array.make n 0 in
    (* The round in which each node's state was last written: any step,
       even one that left the outputs equal, or a rewrite. While it stays
       put, [get p] returns a state structurally equal to the last one,
       so a hook can cache anything it derives from the whole state. *)
    let written_at = Array.make n 0 in
    (* The two executors differ only in how a round steps, and in the
       frontier bookkeeping the dense walk has no use for. *)
    let core, step =
      match exec with
      | Walk states ->
          (* Dense synchronous rounds broadcast from a pre-round snapshot
             held in one run-lifetime buffer. *)
          let scratch = Array.copy states in
          ( None,
            fun ~round ~rk g ->
              step_round ~rk ~round ~scratch ~changed_at ~written_at g live
                channel scheduler states )
      | Frontier f ->
          (* Protocol steps see the round's snapshot, as [handle] does in
             the dense walk. *)
          let snap = ref graph in
          let ops =
            {
              Flat_core.step =
                (fun sc hkey p senders count ->
                  f.step !snap sc hkey p senders count);
              refresh = f.refresh;
              warm = f.warm;
            }
          in
          let c =
            Flat_core.create ?pool:f.pool ~ops ~scratches:f.scratches ~live
              ~changed_at ~written_at graph
          in
          (* Round 1 steps everyone: initial states are arbitrary. *)
          Flat_core.mark_all c;
          let deterministic = Channel.deterministic channel in
          let edge_down p q = Dynamic.is_link_down dyn p q in
          ( Some (f, c),
            fun ~round ~rk g ->
              snap := g;
              let deliver =
                Channel.round_plan channel ~key:(lane_channel rk) ~round
                  ~graph:g
              in
              (* Channel closures may memoize lazily (slotted channels
                 cache slot assignments); force the per-node draws before
                 the parallel phase so worker domains only ever read the
                 memo. A self-addressed query computes exactly the node's
                 own slot. *)
              if Option.is_some f.pool && not deterministic then
                for p = 0 to n - 1 do
                  ignore (deliver ~src:p ~dst:p)
                done;
              (* The previous round's plan, rebuilt from its key, lets the
                 core re-step nodes whose incident deliveries flipped. *)
              let prev =
                if round > 1 && not deterministic then
                  Some
                    (Channel.round_plan channel
                       ~key:(lane_channel (Rng.subkey base_key (round - 1)))
                       ~round:(round - 1) ~graph:g)
                else None
              in
              let perm =
                match scheduler with
                | Scheduler.Random_order ->
                    Some (Rng.permutation (Rng.of_key (lane_perm rk)) n)
                | Scheduler.Synchronous | Scheduler.Sequential -> None
              in
              Flat_core.step_round c ~round ~scheduler ~deliver ~prev
                ~hkey:(lane_handle rk) ~perm
                ~has_down:(Dynamic.down_count dyn > 0)
                ~edge_down )
    in
    let mark p =
      match core with Some (_, c) -> Flat_core.mark_now c p | None -> ()
    in
    (* A churn event dirties exactly the nodes whose step input it can
       change: the victim itself and every node that can hear it.
       Base-graph neighborhoods are a superset of any snapshot's, so
       marking them is always safe. *)
    let mark_with_nbrs p =
      if Option.is_some core then begin
        mark p;
        Array.iter mark (Graph.neighbors (Dynamic.base dyn) p)
      end
    in
    (* A state rewritten outside a step (Join, Corrupt):
       stamp it, and re-derive its frame so receivers read [emit] of the
       current state. *)
    let rewritten ~round p =
      changed_at.(p) <- round;
      written_at.(p) <- round;
      (match core with
      | Some (f, _) -> ignore (f.refresh f.scratches.(0) p)
      | None -> ());
      mark_with_nbrs p
    in
    (* Keep the run alive through quiescence while a bounded plan still has
       events scheduled, so post-convergence storms always fire. *)
    let horizon =
      match churn with
      | None -> 0
      | Some plan -> (
          match Churn.horizon plan with
          | Some h -> min h max_rounds
          | None -> 0)
    in
    let reader =
      {
        state = get;
        changed_at = (fun p -> changed_at.(p));
        written_at = (fun p -> written_at.(p));
      }
    in
    let quiet = ref 0 in
    let round = ref 0 in
    let last_change = ref 0 in
    let history = ref [] in
    let event_rounds = ref [] in
    let faults = ref [] in
    (* A workload (data-plane traffic riding on the protocol's structure)
       keeps the run alive through protocol quiescence exactly like a
       bounded churn horizon: messages still in flight need rounds to
       drain even when no state changes. It does not touch the quiescence
       counter — stabilization metrics stay comparable with and without
       traffic. *)
    let wl_active = ref (Option.is_some workload) in
    while
      (!quiet < quiet_rounds || !round < horizon || !wl_active)
      && !round < max_rounds
    do
      incr round;
      let round = !round in
      (* Motion first: nodes drift, the base graph is rebased to the new
         unit-disk topology, and churn below applies to the rewired links.
         A round whose fleet moved without flipping any edge leaves the
         base untouched (positions are live-aliased by the snapshots).
         Edge flips count as topology disturbance for the quiescence test
         but not as churn events — they are the environment, not a burst
         to attribute recovery to. *)
      let moved_links = ref 0 in
      (match motion with
      | None -> ()
      | Some hook -> (
          match hook ~round with
          | None -> ()
          | Some (base', diff) ->
              moved_links := diff.Motion.n_added + diff.Motion.n_removed;
              if !moved_links > 0 then begin
                Dynamic.rebase dyn ~base:base' ~added:diff.Motion.added
                  ~removed:diff.Motion.removed;
                (* Every flipped edge disturbs both endpoints' inputs, and
                   the frontier adopts their rebased rows. *)
                match core with
                | None -> ()
                | Some (_, c) ->
                    let patch (p, q) =
                      Flat_core.set_row c p (Graph.neighbors base' p);
                      Flat_core.set_row c q (Graph.neighbors base' q);
                      mark p;
                      mark q
                    in
                    List.iter patch diff.Motion.added;
                    List.iter patch diff.Motion.removed
              end;
              (* On a position-dependent channel a node can be disturbed
                 by pure movement (it drifted across the jam boundary), so
                 moved nodes and their audiences join the frontier too —
                 this also keeps the previous-plan replay honest. *)
              if Channel.position_dependent channel then
                List.iter mark_with_nbrs diff.Motion.moved));
      let churn_corrupted = ref [] in
      let applied =
        match churn with
        | None -> 0
        | Some plan ->
            List.fold_left
              (fun acc ev ->
                let did =
                  match ev with
                  | Churn.Crash p -> Dynamic.crash dyn p
                  | Churn.Sleep p -> Dynamic.sleep dyn p
                  | Churn.Wake p -> Dynamic.wake dyn p
                  | Churn.Link_down (p, q) -> Dynamic.link_down dyn p q
                  | Churn.Link_up (p, q) -> Dynamic.link_up dyn p q
                  | Churn.Join p ->
                      (* A crash lost the state; rejoin as a factory-fresh
                         node. Gamma and other deployment-wide constants
                         come from the base graph, matching the initial
                         deployment. *)
                      Dynamic.join dyn p
                      && (set p (P.init rng (Dynamic.base dyn) p);
                          true)
                  | Churn.Corrupt p -> (
                      Dynamic.is_alive dyn p
                      &&
                      match corrupt with
                      | None ->
                          invalid_arg
                            (who
                           ^ ": churn plan emits Corrupt but no ~corrupt given"
                            )
                      | Some f ->
                          set p (f rng p (get p));
                          true)
                in
                if did then begin
                  (match ev with
                  | Churn.Crash p | Churn.Sleep p | Churn.Wake p ->
                      mark_with_nbrs p
                  | Churn.Link_down (p, q) | Churn.Link_up (p, q) ->
                      mark p;
                      mark q
                  | Churn.Join p -> rewritten ~round p
                  | Churn.Corrupt p ->
                      rewritten ~round p;
                      churn_corrupted := p :: !churn_corrupted);
                  (match on_event with None -> () | Some f -> f ~round ev);
                  acc + 1
                end
                else acc)
              0
              (Churn.events_at plan ~round dyn rng)
      in
      if applied > 0 then
        for p = 0 to n - 1 do
          live.(p) <- Dynamic.status dyn p = Dynamic.Alive
        done;
      (* Every corrupted node this round, in plan order. *)
      let corrupted = List.rev !churn_corrupted in
      if applied > 0 then event_rounds := (round, applied) :: !event_rounds;
      if corrupted <> [] then
        faults := { fault_round = round; corrupted } :: !faults;
      (* Incremental: on event-free rounds this returns the cached graph;
         after a burst it patches only the rows the events touched. *)
      let g = Dynamic.snapshot dyn in
      let changed = step ~round ~rk:(Rng.subkey base_key round) g in
      history := changed :: !history;
      (match on_round with
      | None -> ()
      | Some f -> f { round; changed; events = applied; corrupted });
      (match probe with None -> () | Some f -> f ~round ~graph:g ~alive:live);
      (match workload with
      | None -> ()
      | Some tickf -> wl_active := tickf ~round ~graph:g ~alive:live ~read:reader);
      if changed > 0 || applied > 0 || !moved_links > 0 then begin
        quiet := 0;
        last_change := round
      end
      else incr quiet
    done;
    let converged = !quiet >= quiet_rounds in
    (* Unpack in the core's locality order: a flat protocol's planes and
       rows lie in that order, so the final read walks memory forward. *)
    let states =
      match core with
      | Some (_, c) when n > 0 ->
          let order = Flat_core.order c in
          let states = Array.make n (get order.(0)) in
          for r = 1 to n - 1 do
            let p = order.(r) in
            states.(p) <- get p
          done;
          states
      | Some _ | None -> Array.init n get
    in
    {
      states;
      rounds = !round;
      converged;
      last_change_round = !last_change;
      change_history = List.rev !history;
      alive = Array.copy live;
      graph = Dynamic.snapshot dyn;
      bursts =
        finalize_bursts
          ~event_rounds:(List.rev !event_rounds)
          ~history:(List.rev !history) ~rounds:!round ~converged;
      faults = List.rev !faults;
      changed_at;
    }

  let run ?(mode = Dense) ?scheduler ?channel ?max_rounds ?quiet_rounds ?churn
      ?corrupt ?motion ?on_round ?on_event ?probe ?workload ?states rng graph =
    let settings =
      enter ~who:"Engine.run" ?scheduler ?channel ?max_rounds ?quiet_rounds
        ?states rng graph
    in
    let states =
      (* The round loop updates states in place; copying the warm-start
         array keeps the caller's snapshot intact, so one evolved array can
         seed several runs (e.g. a dense reference and a sparse replay)
         without the first run silently converging the others' input. *)
      match states with Some s -> Array.copy s | None -> init_states rng graph
    in
    let exec =
      match mode with
      | Dense -> Walk states
      | Sparse { warm } -> Frontier (boxed ~warm graph states)
    in
    loop settings ~exec ?churn ?corrupt ?motion ?on_round ?on_event
      ?probe:
        (Option.map (fun f ~round ~graph ~alive -> f ~round ~graph ~alive states) probe)
      ?workload rng graph
end
