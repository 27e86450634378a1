module Graph = Ss_topology.Graph
module Monitor = Ss_engine.Monitor

(* SplitMix64's finalizer: full-avalanche 64-bit mixing, so single-field
   differences between states flip about half the digest bits. The stdlib
   generic hash is banned here (see ./check): it traverses only a bounded
   prefix of each state. [feed] is inlined into [digest], whose running
   hash is a local, so no int64 is boxed along the way. *)
let[@inline always] mix64 z =
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xbf58476d1ce4e5b9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94d049bb133111ebL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline always] feed h i =
  mix64 (Int64.add (Int64.logxor h (Int64.of_int i)) 0x9e3779b97f4a7c15L)

let digest ~graph:_ ~alive (states : Distributed.state array) =
  let h = ref (Int64.of_int (Array.length states)) in
  for p = 0 to Array.length states - 1 do
    let st = states.(p) in
    h := feed !h (if alive.(p) then 1 else 0);
    if alive.(p) then begin
      h := feed !h st.gid;
      h := feed !h st.dag;
      (match st.density with
      | None -> h := feed !h (-1)
      | Some d ->
          h := feed !h (Density.links d);
          h := feed !h (Density.nodes d));
      h := feed !h (match st.parent with None -> -1 | Some v -> v);
      h := feed !h (match st.head with None -> -1 | Some v -> v)
    end
  done;
  !h

(* Node-level attribution: which nodes the violations are AT. The
   containment metrics need this to measure how far each violation sits
   from the Byzantine set. *)

let problem_node = function
  | Assignment.Parent_not_neighbor p
  | Assignment.Parent_cycle p
  | Assignment.Head_mismatch p
  | Assignment.Stranded_member p -> p

let violation_node = function
  | Legitimacy.Structural problem -> problem_node problem
  | Legitimacy.Not_a_fixpoint { node; _ } -> node

(* Hop distance 1 or 2 is exactly membership in the two-hop row, so one
   pass over the heads' rows replaces a BFS per head; each pair is
   reported once, from its smaller endpoint. *)
let close_head_pairs topology assignment =
  List.fold_left
    (fun acc h ->
      Array.fold_left
        (fun acc h' ->
          if h' > h && Assignment.is_head assignment h' then (h, h') :: acc
          else acc)
        acc
        (Algorithm.two_hop topology h))
    [] (Assignment.heads assignment)

let observe ?topology ~config ~ids ~graph ~alive states =
  let topology =
    match topology with
    | Some t -> t
    | None -> Algorithm.topology config graph
  in
  let assignment = Distributed.to_assignment ~alive states in
  let dag_names =
    if config.Config.use_dag_names then
      Some (Array.map (fun (st : Distributed.state) -> st.dag) states)
    else None
  in
  let illegitimate =
    match
      Legitimacy.check ?dag_names ~topology config graph ~ids assignment
    with
    | Ok () -> []
    | Error vs -> vs
  in
  let counts =
    [
      ("illegitimate", List.length illegitimate);
      ("ghosts", Distributed.ghost_references ~alive states);
    ]
  in
  let close =
    if config.Config.fusion then close_head_pairs topology assignment else []
  in
  let counts =
    if not config.Config.fusion then counts
    else counts @ [ ("head-separation", if close = [] then 0 else 1) ]
  in
  {
    Monitor.digest = digest ~graph ~alive states;
    counts;
    violators =
      List.sort_uniq Int.compare
        (List.map violation_node illegitimate
        @ Distributed.ghost_holders ~alive states
        @ List.concat_map (fun (h, h') -> [ h; h' ]) close);
  }

let violations ~config ~ids ~graph ~alive states =
  (observe ~config ~ids ~graph ~alive states).Monitor.counts

let violators ~config ~ids ~graph ~alive states =
  (observe ~config ~ids ~graph ~alive states).Monitor.violators

(* The tables depend on the graph alone, so consecutive probes of one
   snapshot share them. Physical identity is a sound key because
   [Engine.run] hands a probed run immutable snapshots (it turns snapshot
   reuse off whenever a probe is attached): an unchanged [==] graph has
   unchanged adjacency. Built at the first probe, never at creation. *)
let observer ~config ~ids project =
  let cache = ref None in
  fun ~graph ~alive states ->
    let topology =
      match !cache with
      | Some (g, t) when g == graph -> t
      | Some _ | None ->
          let t = Algorithm.topology config graph in
          cache := Some (graph, t);
          t
    in
    observe ~topology ~config ~ids ~graph ~alive (project states)

let monitor ?window ?adversary ~config ~ids () =
  Monitor.create ?window ?adversary ~observe:(observer ~config ~ids Fun.id) ()

let monitor_via ?window ?adversary ~project ~config ~ids () =
  Monitor.create ?window ?adversary
    ~observe:(observer ~config ~ids (Array.map project))
    ()
