(* The flat-memory executor: Engine.run's orchestration re-targeted at a
   Protocol.FLAT's struct-of-arrays planes, with the round loop in
   Flat_core. Same observables as Engine's sparse/dense modes — states
   (modulo equal_state), rounds, change history, bursts, faults — for
   protocols honoring the flat contract, which the differential battery
   in test/suite_flat.ml enforces; determinism across ?domains is
   Flat_core's phase-split argument. *)

module Graph = Ss_topology.Graph
module Dynamic = Ss_topology.Dynamic
module Motion = Ss_topology.Motion
module Channel = Ss_radio.Channel
module Pool = Ss_stats.Pool
module Rng = Ss_prng.Rng

module Make (P : Protocol.FLAT) = struct
  type run = {
    states : P.state array;
    rounds : int;
    converged : bool;
    last_change_round : int;
    change_history : int list;
    alive : bool array;
    graph : Graph.t;
    bursts : Engine.burst list;
    faults : Engine.fault_report list;
    changed_at : int array;
  }

  let run ?(scheduler = Scheduler.Synchronous) ?(channel = Channel.perfect)
      ?(max_rounds = 10_000) ?(quiet_rounds = 1) ?churn ?corrupt ?motion
      ?on_round ?on_event ?workload ?(domains = 1) ?states rng graph =
    if max_rounds < 0 then invalid_arg "Flat.run: negative round budget";
    if quiet_rounds < 1 then invalid_arg "Flat.run: quiet_rounds must be >= 1";
    if domains < 1 then invalid_arg "Flat.run: domains must be >= 1";
    let n = Graph.node_count graph in
    (* Base key first: the keyed lanes are a pure function of the
       generator's state at entry, identical across executors. *)
    let base_key = Rng.key_of rng in
    let buffers = P.Flat.alloc graph in
    (match states with
    | Some s ->
        if Array.length s <> n then
          invalid_arg
            (Printf.sprintf
               "Flat.run: ~states has %d entries but the graph has %d nodes"
               (Array.length s) n);
        Array.iteri (fun p st -> P.Flat.pack buffers p st) s
    | None -> P.Flat.init_all buffers rng graph);
    let dyn = Dynamic.create ~reuse_snapshots:true graph in
    let pool = if domains > 1 then Some (Pool.create ~domains) else None in
    Fun.protect ~finally:(fun () -> Option.iter Pool.shutdown pool)
    @@ fun () ->
    let scratches = Array.init domains (fun _ -> P.Flat.scratch buffers) in
    let ops =
      {
        Flat_core.step =
          (fun sc hkey p senders count ->
            P.Flat.step buffers sc hkey p ~senders ~count);
        refresh = (fun sc p -> P.Flat.refresh_emit buffers sc p);
        warm = (fun p -> P.Flat.warm buffers p);
      }
    in
    let live = Array.make n true in
    (* Last output-change round per node: the core stamps protocol steps,
       the churn handler below stamps Join and Corrupt rewrites. *)
    let changed_at = Array.make n 0 in
    let core = Flat_core.create ?pool ~ops ~scratches ~live ~changed_at graph in
    (* Establish the emission planes (the flat last_msg) before round 1;
       round 1 then steps everyone, initial states being arbitrary. *)
    for p = 0 to n - 1 do
      ignore (P.Flat.refresh_emit buffers scratches.(0) p)
    done;
    Flat_core.mark_all core;
    let mark_with_nbrs p =
      Flat_core.mark_now core p;
      Array.iter (Flat_core.mark_now core) (Graph.neighbors (Dynamic.base dyn) p)
    in
    let horizon =
      match churn with
      | None -> 0
      | Some plan -> (
          match Churn.horizon plan with
          | Some h -> min h max_rounds
          | None -> 0)
    in
    let edge_down p q = Dynamic.is_link_down dyn p q in
    let deterministic = Channel.deterministic channel in
    let quiet = ref 0 in
    let round = ref 0 in
    let last_change = ref 0 in
    let history = ref [] in
    let event_rounds = ref [] in
    let faults = ref [] in
    (* As in Engine.run: an active workload keeps the run alive through
       protocol quiescence without resetting the quiescence counter. The
       hook reads states through unpack-on-demand and can skip nodes whose
       stamps have not moved, so its cost scales with the traffic it
       carries and the nodes that changed, not the network. *)
    let reader =
      {
        Engine.state = P.Flat.unpack buffers;
        changed_at = (fun p -> changed_at.(p));
      }
    in
    let wl_active = ref (workload <> None) in
    while
      (!quiet < quiet_rounds || !round < horizon || !wl_active)
      && !round < max_rounds
    do
      incr round;
      P.Flat.tick buffers;
      (* Motion first, as in Engine.run: rebase the dynamic base, patch
         the flipped endpoints' potential rows in the core, and disturb
         the frontier accordingly. *)
      let moved_links = ref 0 in
      (match motion with
      | None -> ()
      | Some hook -> (
          match hook ~round:!round with
          | None -> ()
          | Some (base', diff) ->
              moved_links := diff.Motion.n_added + diff.Motion.n_removed;
              if !moved_links > 0 then begin
                Dynamic.rebase dyn ~base:base' ~added:diff.Motion.added
                  ~removed:diff.Motion.removed;
                let patch (p, q) =
                  Flat_core.set_row core p (Graph.neighbors base' p);
                  Flat_core.set_row core q (Graph.neighbors base' q);
                  Flat_core.mark_now core p;
                  Flat_core.mark_now core q
                in
                List.iter patch diff.Motion.added;
                List.iter patch diff.Motion.removed
              end;
              if Channel.position_dependent channel then
                let b = Dynamic.base dyn in
                List.iter
                  (fun p ->
                    Flat_core.mark_now core p;
                    Array.iter (Flat_core.mark_now core) (Graph.neighbors b p))
                  diff.Motion.moved));
      let churn_corrupted = ref [] in
      let applied =
        match churn with
        | None -> 0
        | Some plan ->
            List.fold_left
              (fun acc ev ->
                let did =
                  match ev with
                  | Churn.Crash p ->
                      if Dynamic.crash dyn p then begin
                        mark_with_nbrs p;
                        true
                      end
                      else false
                  | Churn.Join p ->
                      if Dynamic.join dyn p then begin
                        P.Flat.pack buffers p
                          (P.init rng (Dynamic.base dyn) p);
                        changed_at.(p) <- !round;
                        ignore (P.Flat.refresh_emit buffers scratches.(0) p);
                        mark_with_nbrs p;
                        true
                      end
                      else false
                  | Churn.Sleep p ->
                      if Dynamic.sleep dyn p then begin
                        mark_with_nbrs p;
                        true
                      end
                      else false
                  | Churn.Wake p ->
                      if Dynamic.wake dyn p then begin
                        mark_with_nbrs p;
                        true
                      end
                      else false
                  | Churn.Link_down (p, q) ->
                      if Dynamic.link_down dyn p q then begin
                        Flat_core.mark_now core p;
                        Flat_core.mark_now core q;
                        true
                      end
                      else false
                  | Churn.Link_up (p, q) ->
                      if Dynamic.link_up dyn p q then begin
                        Flat_core.mark_now core p;
                        Flat_core.mark_now core q;
                        true
                      end
                      else false
                  | Churn.Corrupt p ->
                      if not (Dynamic.is_alive dyn p) then false
                      else begin
                        match corrupt with
                        | None ->
                            invalid_arg
                              "Flat.run: churn plan emits Corrupt but no \
                               ~corrupt given"
                        | Some f ->
                            P.Flat.pack buffers p
                              (f rng p (P.Flat.unpack buffers p));
                            changed_at.(p) <- !round;
                            ignore
                              (P.Flat.refresh_emit buffers scratches.(0) p);
                            mark_with_nbrs p;
                            churn_corrupted := p :: !churn_corrupted;
                            true
                      end
                in
                if did then begin
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
        for p = 0 to n - 1 do
          live.(p) <- Dynamic.status dyn p = Dynamic.Alive
        done;
      let corrupted = List.rev !churn_corrupted in
      if applied > 0 then event_rounds := (!round, applied) :: !event_rounds;
      if corrupted <> [] then
        faults := { Engine.fault_round = !round; corrupted } :: !faults;
      let g = Dynamic.snapshot dyn in
      let rk = Rng.subkey base_key !round in
      let deliver =
        Channel.round_plan channel ~key:(Engine.lane_channel rk) ~round:!round
          ~graph:g
      in
      (* Channel closures may memoize lazily (slotted channels cache slot
         assignments); force the per-node draws before the parallel phase
         so worker domains only ever read the memo. A self-addressed
         query computes exactly the node's own slot. *)
      if pool <> None && not deterministic then
        for p = 0 to n - 1 do
          ignore (deliver ~src:p ~dst:p)
        done;
      let prev =
        if !round > 1 && not deterministic then
          Some
            (Channel.round_plan channel
               ~key:(Engine.lane_channel (Rng.subkey base_key (!round - 1)))
               ~round:(!round - 1) ~graph:g)
        else None
      in
      let perm =
        match scheduler with
        | Scheduler.Random_order ->
            Some (Rng.permutation (Rng.of_key (Engine.lane_perm rk)) n)
        | Scheduler.Synchronous | Scheduler.Sequential -> None
      in
      let changed =
        Flat_core.step_round core ~round:!round ~scheduler ~deliver ~prev
          ~hkey:(Engine.lane_handle rk) ~perm
          ~has_down:(Dynamic.down_count dyn > 0)
          ~edge_down
      in
      history := changed :: !history;
      (match on_round with
      | None -> ()
      | Some f ->
          f { Engine.round = !round; changed; events = applied; corrupted });
      (match workload with
      | None -> ()
      | Some tickf ->
          wl_active := tickf ~round:!round ~graph:g ~alive:live ~read:reader);
      if changed > 0 || applied > 0 || !moved_links > 0 then begin
        quiet := 0;
        last_change := !round
      end
      else incr quiet
    done;
    let converged = !quiet >= quiet_rounds in
    {
      states = Array.init n (P.Flat.unpack buffers);
      rounds = !round;
      converged;
      last_change_round = !last_change;
      change_history = List.rev !history;
      alive = Array.copy live;
      graph = Dynamic.snapshot dyn;
      bursts =
        Engine.finalize_bursts
          ~event_rounds:(List.rev !event_rounds)
          ~history:(List.rev !history) ~rounds:!round ~converged;
      faults = List.rev !faults;
      changed_at;
    }
end
