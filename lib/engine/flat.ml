(* The flat-memory executor: Engine's run loop over a Protocol.FLAT's
   struct-of-arrays planes, the frontier in Flat_core. Same observables
   as Engine's sparse/dense modes — the whole run record, states modulo
   equal_state — for protocols honoring the flat contract, which the
   differential battery in test/suite_flat.ml enforces; determinism
   across ?domains is Flat_core's phase-split argument. *)

module Pool = Ss_stats.Pool

module Make (P : Protocol.FLAT) = struct
  module E = Engine.Make (P)

  type run = E.run = {
    states : P.state array;
    rounds : int;
    converged : bool;
    last_change_round : int;
    change_history : int list;
    alive : bool array;
    graph : Ss_topology.Graph.t;
    bursts : Engine.burst list;
    faults : Engine.fault_report list;
    changed_at : int array;
  }

  let run ?scheduler ?channel ?max_rounds ?quiet_rounds ?churn ?corrupt ?motion
      ?on_round ?on_event ?workload ?(domains = 1) ?states rng graph =
    let settings =
      E.enter ~who:"Flat.run" ?scheduler ?channel ?max_rounds ?quiet_rounds
        ?states rng graph
    in
    if domains < 1 then invalid_arg "Flat.run: domains must be >= 1";
    let buffers = P.Flat.alloc graph in
    (match states with
    | Some s -> Array.iteri (P.Flat.pack buffers) s
    | None -> P.Flat.init_all buffers rng graph);
    let scratches = Array.init domains (fun _ -> P.Flat.scratch buffers) in
    (* Establish the emission planes before round 1. *)
    for p = 0 to Ss_topology.Graph.node_count graph - 1 do
      ignore (P.Flat.refresh_emit buffers scratches.(0) p)
    done;
    let pool = if domains > 1 then Some (Pool.create ~domains) else None in
    Fun.protect ~finally:(fun () -> Option.iter Pool.shutdown pool)
    @@ fun () ->
    let planes =
      {
        E.pack = P.Flat.pack buffers;
        unpack = P.Flat.unpack buffers;
        step =
          (fun _ sc hkey p senders count ->
            P.Flat.step buffers sc hkey p ~senders ~count);
        refresh = P.Flat.refresh_emit buffers;
        warm = P.Flat.warm buffers;
        scratches;
        pool;
      }
    in
    (* The workload reader unpacks on demand, so a hook that skips nodes
       whose stamps have not moved pays for the traffic it carries and the
       nodes that changed, not the network. *)
    E.loop settings ~exec:(E.Frontier planes) ?churn ?corrupt ?motion ?on_round
      ?on_event ?workload rng graph
end
