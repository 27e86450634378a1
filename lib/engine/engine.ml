module Graph = Ss_topology.Graph
module Dynamic = Ss_topology.Dynamic
module Motion = Ss_topology.Motion
module Channel = Ss_radio.Channel
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

type 's reader = { state : int -> 's; changed_at : int -> int }

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
   and fault injection is a pure function of its lane, so executing a
   subset of the nodes cannot shift anyone else's draws — the property the
   sparse executor's equivalence proof rests on. The main sequential
   generator is reserved for the per-round plan evaluation (churn events,
   fault hooks, Join re-inits, Corrupt scrambles), which both executors
   perform identically. *)
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

  let sparse = Sparse { warm = None }

  (* Frames received by node p this step: one per neighbor, each surviving
     the round's channel plan. [frame q] supplies the frame neighbor q
     broadcasts — re-emitted from the pre-round snapshot or the live array
     in dense mode, read from the stored emission in sparse mode. *)
  let gather_messages deliver graph frame p =
    let acc = ref [] in
    let nbrs = Graph.neighbors graph p in
    for i = Array.length nbrs - 1 downto 0 do
      let q = nbrs.(i) in
      if deliver ~src:q ~dst:p then acc := (q, frame q) :: !acc
    done;
    !acc

  let node_rng hkey p = Rng.of_key (Rng.subkey hkey p)

  let step_round ~rk ~round ~scratch ~changed_at graph live channel scheduler
      states =
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
        states.(p) <- next
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

  (* ------------------------------------------------------- sparse mode *)

  (* The dirty frontier. [cur] holds the nodes to step this round, [nxt]
     accumulates next round's; bits back the worklists so marking is
     idempotent and clearing costs O(|marked|). *)
  type sparse_ctx = {
    mutable cur : bool array;
    mutable cur_list : int list;
    mutable nxt : bool array;
    mutable nxt_list : int list;
    last_msg : P.message array;
        (* emission of each node's current state: the frame every
           receiver reads, and the reference an emission change is
           detected against *)
    warm : P.state -> bool;
  }

  let mark_now ctx p =
    if not ctx.cur.(p) then begin
      ctx.cur.(p) <- true;
      ctx.cur_list <- p :: ctx.cur_list
    end

  let mark_nxt ctx p =
    if not ctx.nxt.(p) then begin
      ctx.nxt.(p) <- true;
      ctx.nxt_list <- p :: ctx.nxt_list
    end

  let advance_frontier ctx =
    List.iter (fun p -> ctx.cur.(p) <- false) ctx.cur_list;
    let spent = ctx.cur in
    ctx.cur <- ctx.nxt;
    ctx.cur_list <- ctx.nxt_list;
    ctx.nxt <- spent;
    ctx.nxt_list <- []

  let make_ctx ~warm graph states =
    let n = Array.length states in
    {
      (* Round 1 steps everyone: initial states are arbitrary. *)
      cur = Array.make n true;
      cur_list = List.init n Fun.id;
      nxt = Array.make n false;
      nxt_list = [];
      last_msg = Array.init n (fun p -> P.emit graph p states.(p));
      warm;
    }

  (* A churn event or fault dirties exactly the nodes whose step input it
     can change: the victim itself and — when its frames appear or vanish
     or its emission is rewritten — every node that can hear it. Base-graph
     neighborhoods are a superset of any snapshot's, so marking them is
     always safe. State-rewriting events also rebase the stored emission,
     so [last_msg.(p)] is always [P.emit] of [states.(p)]: receivers read
     it as p's frame, and the next step compares against it. *)
  let touch_event ctx base states ev =
    let mark_with_nbrs p =
      mark_now ctx p;
      Array.iter (mark_now ctx) (Graph.neighbors base p)
    in
    match ev with
    | Churn.Crash p | Churn.Sleep p | Churn.Wake p -> mark_with_nbrs p
    | Churn.Join p | Churn.Corrupt p ->
        ctx.last_msg.(p) <- P.emit base p states.(p);
        mark_with_nbrs p
    | Churn.Link_down (p, q) | Churn.Link_up (p, q) ->
        mark_now ctx p;
        mark_now ctx q

  let touch_fault ctx base states v =
    ctx.last_msg.(v) <- P.emit base v states.(v);
    mark_now ctx v;
    Array.iter (mark_now ctx) (Graph.neighbors base v)

  (* One sparse round: step only the frontier. [prev_rk] keys the previous
     round's channel plan — counter-keyed sampling makes it reconstructible,
     so delivery diffs need no storage. *)
  let step_round_sparse ctx ~rk ~prev_rk ~round ~changed_at graph live channel
      scheduler states =
    let n = Array.length states in
    let changed = ref 0 in
    let deliver =
      Channel.round_plan channel ~key:(lane_channel rk) ~round ~graph
    in
    let hkey = lane_handle rk in
    (* A lossy channel changes a node's inputs whenever an incident
       delivery decision flips between rounds, even with every state
       quiet; mark receivers whose pattern moved. Deterministic channels
       skip this entirely. *)
    (match prev_rk with
    | Some prk when not (Channel.deterministic channel) ->
        let prev =
          Channel.round_plan channel ~key:(lane_channel prk) ~round:(round - 1)
            ~graph
        in
        for p = 0 to n - 1 do
          if live.(p) && not ctx.cur.(p) then begin
            let nbrs = Graph.neighbors graph p in
            let k = Array.length nbrs in
            let i = ref 0 in
            let flipped = ref false in
            while (not !flipped) && !i < k do
              let q = nbrs.(!i) in
              if deliver ~src:q ~dst:p <> prev ~src:q ~dst:p then
                flipped := true;
              incr i
            done;
            if !flipped then mark_now ctx p
          end
        done
    | _ -> ());
    (* Stepping a node: identical to the dense path, plus frontier
       bookkeeping. Neighbors' frames are read from [last_msg] — each
       node's emission is computed once per executed step, not once per
       receiver. An output change re-arms the node itself. *)
    let frame q = ctx.last_msg.(q) in
    let step_node p =
      let msgs = gather_messages deliver graph frame p in
      let next = P.handle (node_rng hkey p) graph p states.(p) msgs in
      if not (P.equal_state next states.(p)) then begin
        incr changed;
        changed_at.(p) <- round;
        mark_nxt ctx p
      end;
      states.(p) <- next
    in
    (* Publishing a stepped node's new emission: a change disturbs its
       audience (this round for daemons that still have the neighbor
       ahead in the order, next round otherwise — the conservative union
       is safe because stepping a node whose input did not change is
       output-stable by the protocol contract); a warm state (pending
       time-based behavior, e.g. cache expiry) keeps the node stepping
       until it drains. *)
    let publish ~in_round p =
      let next = states.(p) in
      let msg = P.emit graph p next in
      if msg <> ctx.last_msg.(p) then begin
        ctx.last_msg.(p) <- msg;
        Array.iter
          (fun q ->
            if in_round then mark_now ctx q;
            mark_nxt ctx q)
          (Graph.neighbors graph p)
      end;
      if ctx.warm next then mark_nxt ctx p
    in
    let update_node p =
      if live.(p) then begin
        step_node p;
        publish ~in_round:true p
      end
    in
    (match scheduler with
    | Scheduler.Synchronous ->
        (* Frontier order is irrelevant: every step reads the pre-round
           frames and its own key lane. All frontier nodes step before
           any publishes, so [last_msg] holds exactly the pre-round
           emissions throughout the first walk — no snapshot needed. The
           frontier cannot grow mid-round ([in_round:false]). *)
        List.iter (fun p -> if live.(p) then step_node p) ctx.cur_list;
        List.iter
          (fun p -> if live.(p) then publish ~in_round:false p)
          ctx.cur_list
    | Scheduler.Sequential ->
        (* Scan in daemon order so an emission change reaches the nodes
           behind it in the same round, exactly as in the dense walk. *)
        for p = 0 to n - 1 do
          if ctx.cur.(p) then update_node p
        done
    | Scheduler.Random_order ->
        let order = Rng.permutation (Rng.of_key (lane_perm rk)) n in
        Array.iter (fun p -> if ctx.cur.(p) then update_node p) order);
    advance_frontier ctx;
    !changed

  let init_states rng graph =
    Array.init (Graph.node_count graph) (fun p -> P.init rng graph p)

  let apply_event dyn states corrupt rng = function
    | Churn.Crash p -> Dynamic.crash dyn p
    | Churn.Join p ->
        if Dynamic.join dyn p then begin
          (* A crash lost the state; rejoin as a factory-fresh node. Gamma
             and other deployment-wide constants come from the base graph,
             matching the initial deployment. *)
          states.(p) <- P.init rng (Dynamic.base dyn) p;
          true
        end
        else false
    | Churn.Sleep p -> Dynamic.sleep dyn p
    | Churn.Wake p -> Dynamic.wake dyn p
    | Churn.Link_down (p, q) -> Dynamic.link_down dyn p q
    | Churn.Link_up (p, q) -> Dynamic.link_up dyn p q
    | Churn.Corrupt p ->
        if not (Dynamic.is_alive dyn p) then false
        else begin
          match corrupt with
          | None ->
              invalid_arg
                "Engine.run: churn plan emits Corrupt but no ~corrupt given"
          | Some f ->
              states.(p) <- f rng p states.(p);
              true
        end

  let run ?(mode = Dense) ?(scheduler = Scheduler.Synchronous)
      ?(channel = Channel.perfect) ?(max_rounds = 10_000) ?(quiet_rounds = 1)
      ?fault ?churn ?corrupt ?motion ?on_round ?on_event ?probe ?workload
      ?states rng graph =
    if max_rounds < 0 then invalid_arg "Engine.run: negative round budget";
    if quiet_rounds < 1 then invalid_arg "Engine.run: quiet_rounds must be >= 1";
    (* The base key is drawn first, so the keyed lanes are a pure function
       of the generator's state at entry — identical for both executors. *)
    let base_key = Rng.key_of rng in
    let states =
      (* The round loop updates states in place; copying the warm-start
         array keeps the caller's snapshot intact, so one evolved array can
         seed several runs (e.g. a dense reference and a sparse replay)
         without the first run silently converging the others' input. *)
      match states with Some s -> Array.copy s | None -> init_states rng graph
    in
    (* A warm-start array of the wrong length would otherwise surface as an
       out-of-bounds access deep in the round loop (live/frontier arrays
       are sized from it); fail fast with the mismatch spelled out. *)
    if Array.length states <> Graph.node_count graph then
      invalid_arg
        (Printf.sprintf
           "Engine.run: ~states has %d entries but the graph has %d nodes"
           (Array.length states) (Graph.node_count graph));
    (* Reuse-mode snapshots are patched in place and only valid within
       their round — safe for the engine's own consumers, but a [probe]
       hands the graph to arbitrary instrumentation that may legitimately
       hold it across rounds, so probed runs keep immutable snapshots. *)
    let dyn = Dynamic.create ~reuse_snapshots:(Option.is_none probe) graph in
    let ctx =
      match mode with
      | Dense -> None
      | Sparse { warm } ->
          let warm = match warm with Some f -> f | None -> fun _ -> false in
          Some (make_ctx ~warm graph states)
    in
    (* Dense synchronous rounds broadcast from a pre-round snapshot; one
       run-lifetime buffer replaces the former per-round [Array.copy]. *)
    let scratch =
      match mode with Dense -> Array.copy states | Sparse _ -> [||]
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
    let live = Array.make (Array.length states) true in
    (* The round in which each node's outputs last changed: an
       [equal_state]-visible step or a state rewrite (Join, Corrupt, fault
       victim). The workload reader exposes it, so a hook can skip
       re-reading nodes whose outputs it has already seen. *)
    let changed_at = Array.make (Array.length states) 0 in
    let reader =
      { state = (fun p -> states.(p)); changed_at = (fun p -> changed_at.(p)) }
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
    let wl_active = ref (workload <> None) in
    while
      (!quiet < quiet_rounds || !round < horizon || !wl_active)
      && !round < max_rounds
    do
      incr round;
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
          match hook ~round:!round with
          | None -> ()
          | Some (base', diff) ->
              moved_links := diff.Motion.n_added + diff.Motion.n_removed;
              if !moved_links > 0 then
                Dynamic.rebase dyn ~base:base' ~added:diff.Motion.added
                  ~removed:diff.Motion.removed;
              (match ctx with
              | None -> ()
              | Some c ->
                  (* Every flipped edge disturbs both endpoints' inputs.
                     On a position-dependent channel a node can be
                     disturbed by pure movement (it drifted across the jam
                     boundary), so moved nodes and their audiences join
                     the frontier too — this also keeps the previous-plan
                     replay honest: every unmarked node provably has both
                     an unchanged row and unchanged relevant positions. *)
                  let mark_edge (p, q) =
                    mark_now c p;
                    mark_now c q
                  in
                  List.iter mark_edge diff.Motion.added;
                  List.iter mark_edge diff.Motion.removed;
                  if Channel.position_dependent channel then
                    let b = Dynamic.base dyn in
                    List.iter
                      (fun p ->
                        mark_now c p;
                        Array.iter (mark_now c) (Graph.neighbors b p))
                      diff.Motion.moved)));
      let churn_corrupted = ref [] in
      let applied =
        match churn with
        | None -> 0
        | Some plan ->
            List.fold_left
              (fun acc ev ->
                if apply_event dyn states corrupt rng ev then begin
                  (match ev with
                  | Churn.Corrupt p ->
                      churn_corrupted := p :: !churn_corrupted;
                      changed_at.(p) <- !round
                  | Churn.Join p -> changed_at.(p) <- !round
                  | _ -> ());
                  (match ctx with
                  | Some c -> touch_event c (Dynamic.base dyn) states ev
                  | None -> ());
                  (match on_event with
                  | None -> ()
                  | Some f -> f ~round:!round ev);
                  acc + 1
                end
                else acc)
              0
              (Churn.events_at plan ~round:!round dyn rng)
      in
      if applied > 0 then
        for p = 0 to Array.length live - 1 do
          live.(p) <- Dynamic.status dyn p = Dynamic.Alive
        done;
      let victims =
        match fault with
        | None -> []
        | Some inject -> inject ~round:!round ~states rng
      in
      List.iter (fun v -> changed_at.(v) <- !round) victims;
      (match ctx with
      | Some c -> List.iter (touch_fault c (Dynamic.base dyn) states) victims
      | None -> ());
      (* Every corrupted node this round: churn [Corrupt] events in plan
         order, then the fault hook's victims. A fault round counts as a
         disturbance for burst/recovery attribution even without churn. *)
      let corrupted = List.rev !churn_corrupted @ victims in
      let disturbance = applied + List.length victims in
      if disturbance > 0 then
        event_rounds := (!round, disturbance) :: !event_rounds;
      if corrupted <> [] then
        faults := { fault_round = !round; corrupted } :: !faults;
      (* Incremental: on event-free rounds this returns the cached graph;
         after a burst it patches only the rows the events touched. *)
      let g = Dynamic.snapshot dyn in
      let rk = Rng.subkey base_key !round in
      let changed =
        match ctx with
        | None ->
            step_round ~rk ~round:!round ~scratch ~changed_at g live channel
              scheduler states
        | Some c ->
            let prev_rk =
              if !round > 1 then Some (Rng.subkey base_key (!round - 1))
              else None
            in
            step_round_sparse c ~rk ~prev_rk ~round:!round ~changed_at g live
              channel scheduler states
      in
      history := changed :: !history;
      (match on_round with
      | None -> ()
      | Some f -> f { round = !round; changed; events = applied; corrupted });
      (match probe with
      | None -> ()
      | Some f -> f ~round:!round ~graph:g ~alive:live states);
      (match workload with
      | None -> ()
      | Some tickf ->
          wl_active := tickf ~round:!round ~graph:g ~alive:live ~read:reader);
      if changed > 0 || victims <> [] || applied > 0 || !moved_links > 0
      then begin
        quiet := 0;
        last_change := !round
      end
      else incr quiet
    done;
    let converged = !quiet >= quiet_rounds in
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
  end
