(* Permanent Byzantine adversary as a protocol transformer.

   The paper's self-stabilization argument covers *transient* faults: any
   corruption eventually stops, and the proof shows legitimacy is
   recovered. A Byzantine node never stops — it follows the protocol's
   state machine internally (or not; we don't care) but *broadcasts
   whatever it wants*, forever. Wrapping rather than patching the
   protocol keeps that distinction exact: [Wrap (P) (A)] leaves P's state
   transitions untouched and rewrites only the designated nodes'
   emissions, so any protocol implementing {!Protocol.S} gets the same
   adversary for free, and containment is measured against the honest
   semantics, not a mutated protocol.

   Keying discipline: every adversarial choice made in-round (which lie,
   which oscillation phase) is a pure function of (adversary key, node,
   executed-step counter) through Rng.subkey lanes — never a sequential
   draw. The step counter advances only when the engine actually steps
   the node, and the wrapper's warm hook forces stepping exactly while an
   emission can still depend on it (before activation, and forever for
   Liar/Oscillator whose frames move each step), so sparse and dense
   executions see bit-identical adversarial traffic. Mute and Stuck
   emissions are constant after activation, which is what lets the
   sparse executor put their neighborhoods to sleep.

   Activation: behaviors switch on at engine round [from_round]. A node's
   emission at round r reflects the state after r - 1 executed steps, so
   activation is the predicate [steps >= from_round - 1]; the honest
   emission computed at step [from_round - 1] is the one Stuck replays
   and Oscillator perturbs ("frozen at the corruption round"). A node
   that re-joins after a crash restarts its counter and re-runs the
   activation delay — a fresh radio coming up clean before the implant
   kicks back in. *)

module Graph = Ss_topology.Graph
module Traversal = Ss_topology.Traversal
module Rng = Ss_prng.Rng

type behavior = Mute | Stuck | Liar | Oscillator

let behaviors = [ Mute; Stuck; Liar; Oscillator ]

let behavior_to_string = function
  | Mute -> "mute"
  | Stuck -> "stuck"
  | Liar -> "liar"
  | Oscillator -> "oscillator"

let behavior_of_string s =
  match String.lowercase_ascii s with
  | "mute" -> Some Mute
  | "stuck" -> Some Stuck
  | "liar" -> Some Liar
  | "oscillator" -> Some Oscillator
  | _ -> None

let pp_behavior ppf b = Fmt.string ppf (behavior_to_string b)

type role = Honest | Byzantine of behavior

type ('s, 'm) node_state = {
  inner : 's;  (* the wrapped protocol's state, evolving honestly *)
  steps : int;  (* executed handle count, the adversary's step clock *)
  role : role;
  base : 'm option;
      (* honest emission as of the last pre-activation step; [Some] for
         every Byzantine node from init on, [None] for honest nodes *)
}

(* Hop distance from every node to the nearest of [sources] (multi-source
   BFS on the full graph); [Traversal.unreachable] where no source is
   reachable. The containment metrics precompute this once per run on the
   base deployment. *)
let distances graph sources =
  let n = Graph.node_count graph in
  let dist = Array.make n Traversal.unreachable in
  let q = Queue.create () in
  List.iter
    (fun s ->
      if s < 0 || s >= n then
        invalid_arg
          (Printf.sprintf "Adversary.distances: node %d outside graph (%d nodes)"
             s n);
      if dist.(s) <> 0 then begin
        dist.(s) <- 0;
        Queue.add s q
      end)
    sources;
  while not (Queue.is_empty q) do
    let p = Queue.pop q in
    let d = dist.(p) + 1 in
    Array.iter
      (fun r ->
        if dist.(r) = Traversal.unreachable then begin
          dist.(r) <- d;
          Queue.add r q
        end)
      (Graph.neighbors graph p)
  done;
  dist

module type CONFIG = sig
  type message

  val key : Rng.key
  val roles : (int * behavior) list
  val from_round : int
  val forge : Rng.key -> int -> message -> message
end

module Wrap
    (P : Protocol.S)
    (A : CONFIG with type message = P.message) =
struct
  type state = (P.state, P.message) node_state
  type message = P.message option

  let () =
    if A.from_round < 1 then
      invalid_arg "Adversary.Wrap: from_round must be >= 1";
    let seen = Hashtbl.create 8 in
    List.iter
      (fun (p, _) ->
        if Hashtbl.mem seen p then
          invalid_arg
            (Printf.sprintf "Adversary.Wrap: node %d listed twice in roles" p);
        Hashtbl.add seen p ())
      A.roles

  let byzantine = List.map fst A.roles

  let role p =
    let rec find = function
      | [] -> Honest
      | (q, b) :: rest -> if Int.equal q p then Byzantine b else find rest
    in
    find A.roles

  let active st = st.steps >= A.from_round - 1
  let project st = st.inner

  (* Key lanes, all rooted at (adversary key, node): lane 0 feeds Liar's
     per-step forgery keys, lane 1 Oscillator's two fixed forgeries and
     its phase. Disjoint from every engine lane because A.key is the
     caller's own, never a descendant of the run's base key. *)
  let node_key p = Rng.subkey A.key p
  let liar_key p steps = Rng.subkey (Rng.subkey (node_key p) 0) steps
  let osc_lane p = Rng.subkey (node_key p) 1

  let init rng graph p =
    List.iter
      (fun (q, _) ->
        if q < 0 || q >= Graph.node_count graph then
          invalid_arg
            (Printf.sprintf
               "Adversary.Wrap: Byzantine node %d outside graph (%d nodes)" q
               (Graph.node_count graph)))
      A.roles;
    let inner = P.init rng graph p in
    let role = role p in
    let base =
      match role with
      | Honest -> None
      | Byzantine _ -> Some (P.emit graph p inner)
    in
    { inner; steps = 0; role; base }

  let emit graph p st =
    match st.role with
    | Honest -> Some (P.emit graph p st.inner)
    | Byzantine _ when not (active st) -> Some (P.emit graph p st.inner)
    | Byzantine b -> (
        match b with
        | Mute -> None
        | Stuck -> st.base
        | Liar ->
            (* A fresh forgery of the *current* honest emission each
               executed step: the lie tracks the node's real view, so it
               stays plausible, but the forged fields re-key every step. *)
            Some (A.forge (liar_key p st.steps) p (P.emit graph p st.inner))
        | Oscillator ->
            (* Two fixed forgeries of the frozen emission, alternated with
               a keyed phase — the flip-flopping neighbor that never lets
               the neighborhood settle. *)
            let ok = osc_lane p in
            let phase = Rng.key_int (Rng.subkey ok 2) 2 in
            let which = (st.steps + phase) mod 2 in
            let base =
              match st.base with
              | Some m -> m
              | None -> P.emit graph p st.inner
            in
            Some (A.forge (Rng.subkey ok which) p base))

  (* The frames actually sent, in delivery order: a mute neighbor's
     [None] is dropped before the wrapped protocol sees it, so to P a
     silenced node is indistinguishable from one whose frames the channel
     lost. Plain recursion: one pair and one cell per frame. *)
  let rec heard = function
    | [] -> []
    | (q, Some m) :: rest -> (q, m) :: heard rest
    | (_, None) :: rest -> heard rest

  let handle rng graph p st msgs =
    let inner = P.handle rng graph p st.inner (heard msgs) in
    let steps = st.steps + 1 in
    let base =
      match st.role with
      | Honest -> None
      | Byzantine _ ->
          (* Track the honest emission until activation; the value frozen
             at step [from_round - 1] is the corruption-round emission. *)
          if steps <= A.from_round - 1 then Some (P.emit graph p inner)
          else st.base
    in
    { inner; steps; role = st.role; base }

  (* [steps] and [base] are bookkeeping whose observable effect is
     declared through [warm]; [role] is static per node. Fixpoint
     detection therefore sees exactly the wrapped protocol's notion of
     change. *)
  let equal_state a b = P.equal_state a.inner b.inner

  (* The wrapper's own time-based behavior: before activation every
     Byzantine node must keep stepping (its counter gates the switch-on),
     and Liar/Oscillator emissions depend on the counter forever. Mute
     and Stuck go emission-constant once active, so only the inner
     protocol's warmth keeps them ticking. *)
  let warm inner_warm st =
    inner_warm st.inner
    ||
    match st.role with
    | Honest -> false
    | Byzantine b -> (
        (not (active st))
        || match b with Liar | Oscillator -> true | Mute | Stuck -> false)

  let lift_corrupt f rng p st = { st with inner = f rng p st.inner }
end
