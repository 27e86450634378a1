(* Pass-through protocol functors that time every call into a layer.

   [Timed.Flat (P)] is [P] with every [Flat.{init_all, step,
   refresh_emit, warm, pack, unpack}] call and every typed [init],
   [handle] and [emit] call recorded as a {!Tracer} span; [Timed.Typed]
   does the same for a typed-only protocol (the [Adversary.Wrap] layer).
   Results, draws and allocation are exactly the wrapped protocol's, so
   a traced run is the untraced run plus timer reads. *)

module Protocol = Ss_engine.Protocol

module type LAYERS = sig
  val init : Tracer.layer
  val handle : Tracer.layer
  val emit : Tracer.layer

  val steps : bool
  (** whether [handle] is the executor's per-node protocol step *)
end

module Distributed_layers = struct
  let init = Tracer.d_init
  let handle = Tracer.d_handle
  let emit = Tracer.d_emit
  let steps = true
end

module Adversary_layers = struct
  let init = Tracer.a_init
  let handle = Tracer.a_handle
  let emit = Tracer.a_emit
  let steps = false
end

module Typed (L : LAYERS) (P : Protocol.S) :
  Protocol.S with type state = P.state and type message = P.message = struct
  type state = P.state
  type message = P.message

  let init rng graph p =
    Tracer.enter L.init;
    match P.init rng graph p with
    | s ->
        Tracer.leave L.init;
        s
    | exception e ->
        Tracer.leave L.init;
        raise e

  let emit graph p s =
    Tracer.enter L.emit;
    match P.emit graph p s with
    | m ->
        Tracer.leave L.emit;
        m
    | exception e ->
        Tracer.leave L.emit;
        raise e

  let handle rng graph p s msgs =
    if L.steps then Tracer.stepped ();
    Tracer.enter L.handle;
    match P.handle rng graph p s msgs with
    | s ->
        Tracer.leave L.handle;
        s
    | exception e ->
        Tracer.leave L.handle;
        raise e

  let equal_state = P.equal_state
end

module Flat (P : Protocol.FLAT) :
  Protocol.FLAT with type state = P.state and type message = P.message = struct
  include Typed (Distributed_layers) (P)

  module Flat = struct
    type buffers = P.Flat.buffers
    type scratch = P.Flat.scratch

    let alloc = P.Flat.alloc
    let scratch = P.Flat.scratch
    let tick = P.Flat.tick

    let init_all b rng graph =
      Tracer.enter Tracer.d_init;
      match P.Flat.init_all b rng graph with
      | () -> Tracer.leave Tracer.d_init
      | exception e ->
          Tracer.leave Tracer.d_init;
          raise e

    let pack b p s =
      Tracer.enter Tracer.d_pack;
      match P.Flat.pack b p s with
      | () -> Tracer.leave Tracer.d_pack
      | exception e ->
          Tracer.leave Tracer.d_pack;
          raise e

    let unpack b p =
      Tracer.enter Tracer.d_unpack;
      match P.Flat.unpack b p with
      | s ->
          Tracer.leave Tracer.d_unpack;
          s
      | exception e ->
          Tracer.leave Tracer.d_unpack;
          raise e

    let refresh_emit b sc p =
      Tracer.enter Tracer.d_refresh;
      match P.Flat.refresh_emit b sc p with
      | changed ->
          Tracer.leave Tracer.d_refresh;
          if changed then Tracer.bump Tracer.c_refresh_changed;
          changed
      | exception e ->
          Tracer.leave Tracer.d_refresh;
          raise e

    let step b sc key p ~senders ~count =
      Tracer.stepped ();
      Tracer.enter Tracer.d_step;
      match P.Flat.step b sc key p ~senders ~count with
      | changed ->
          Tracer.leave Tracer.d_step;
          if changed then Tracer.bump Tracer.c_step_changed;
          changed
      | exception e ->
          Tracer.leave Tracer.d_step;
          raise e

    let warm b p =
      Tracer.enter Tracer.d_warm;
      match P.Flat.warm b p with
      | w ->
          Tracer.leave Tracer.d_warm;
          w
      | exception e ->
          Tracer.leave Tracer.d_warm;
          raise e
  end
end

(* Hook wrappers. [closes] marks the last hook an executor calls in a
   round (on_round, then probe, then workload, whichever are present):
   the round span ends there. *)

let on_round ~closes user (info : Ss_engine.Engine.round_info) =
  (match user with Some f -> f info | None -> ());
  if closes then Tracer.end_round ~round:info.Ss_engine.Engine.round

let probe ~closes f ~round ~graph ~alive states =
  let t0 = Sys.time () in
  Tracer.enter Tracer.mon_probe;
  (match f ~round ~graph ~alive states with
  | () -> Tracer.leave Tracer.mon_probe
  | exception e ->
      Tracer.leave Tracer.mon_probe;
      raise e);
  Tracer.probe_ms := (1000.0 *. (Sys.time () -. t0)) :: !Tracer.probe_ms;
  if closes then Tracer.end_round ~round

let workload ~closes f ~round ~graph ~alive ~read =
  Tracer.enter Tracer.wl_tick;
  let active =
    match f ~round ~graph ~alive ~read with
    | a ->
        Tracer.leave Tracer.wl_tick;
        a
    | exception e ->
        Tracer.leave Tracer.wl_tick;
        raise e
  in
  if closes then Tracer.end_round ~round;
  active

(* The churn plan, re-expressed as a generator over the same plan so each
   round's [events_at] is one span; the horizon is carried over, so the
   executor keeps the run alive exactly as long. *)
let churn plan =
  let module Churn = Ss_engine.Churn in
  Churn.generator ?horizon:(Churn.horizon plan) (fun ~round dyn rng ->
      Tracer.enter Tracer.churn_plan;
      match Churn.events_at plan ~round dyn rng with
      | evs ->
          Tracer.leave Tracer.churn_plan;
          Tracer.add Tracer.c_churn_events (List.length evs);
          evs
      | exception e ->
          Tracer.leave Tracer.churn_plan;
          raise e)

(* [span traced layer f] times [f ()] as one span when [traced]. *)
let span traced layer f =
  if not traced then f ()
  else begin
    Tracer.enter layer;
    match f () with
    | v ->
        Tracer.leave layer;
        v
    | exception e ->
        Tracer.leave layer;
        raise e
  end
