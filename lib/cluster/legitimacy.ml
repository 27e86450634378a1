(* The legitimate-state predicate of the self-stabilization proof: a
   configuration is legitimate when it is a fixpoint of the guarded
   assignments R1/R2 (no guard can change any shared variable) and the
   resulting structure is sound.

   Rather than duplicating the election rules here (and risking divergence
   from the algorithm), legitimacy is checked semantically: re-run the
   algorithm warm-started from the assignment's H values; the assignment is
   legitimate iff the run reproduces it exactly. For a true fixpoint the
   first round recomputes precisely the same parents and heads, so the run
   converges immediately onto the input. *)

module Graph = Ss_topology.Graph

type violation =
  | Structural of Assignment.problem
  | Not_a_fixpoint of { node : int; field : string; current : int; expected : int }

let pp_violation ppf = function
  | Structural p -> Fmt.pf ppf "structural: %a" Assignment.pp_problem p
  | Not_a_fixpoint { node; field; current; expected } ->
      Fmt.pf ppf "node %d: %s is %d but the rule yields %d" node field current
        expected

let check ?dag_names ?topology (config : Config.t) graph ~ids assignment =
  let structural =
    match Assignment.validate graph assignment with
    | Ok () -> []
    | Error problems -> List.map (fun p -> Structural p) problems
  in
  let n = Graph.node_count graph in
  if Assignment.size assignment <> n then Error structural
  else begin
    let init_heads = Array.init n (fun p -> Assignment.head assignment p) in
    (* The generator only matters when N1 must be (re)run; legitimacy of a
       DAG-name configuration must be judged against the names it was built
       with, so callers pass [dag_names]. *)
    let rng = Ss_prng.Rng.create ~seed:0 in
    let outcome =
      Algorithm.run ~scheduler:Algorithm.Sequential ~init_heads ?dag_names
        ?topology rng config graph ~ids
    in
    let reached = outcome.Algorithm.assignment in
    let fixpoint_violations = ref [] in
    for p = n - 1 downto 0 do
      if Assignment.head reached p <> Assignment.head assignment p then
        fixpoint_violations :=
          Not_a_fixpoint
            {
              node = p;
              field = "H";
              current = Assignment.head assignment p;
              expected = Assignment.head reached p;
            }
          :: !fixpoint_violations;
      if Assignment.parent reached p <> Assignment.parent assignment p then
        fixpoint_violations :=
          Not_a_fixpoint
            {
              node = p;
              field = "F";
              current = Assignment.parent assignment p;
              expected = Assignment.parent reached p;
            }
          :: !fixpoint_violations
    done;
    match structural @ !fixpoint_violations with
    | [] -> Ok ()
    | violations -> Error violations
  end

let is_legitimate ?dag_names ?topology config graph ~ids assignment =
  match check ?dag_names ?topology config graph ~ids assignment with
  | Ok () -> true
  | Error _ -> false
