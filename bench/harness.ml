(* The bench driver's one harness: the deployment the executor benches
   share, the comparator of their cross-checks, the timing protocol
   every subcommand uses, and the writer and shape check of the
   committed BENCH_*.json files.

   Timing methodology: every timed call runs in a process that has done
   nothing heavy before it. A subcommand that times more than one thing
   re-execs the driver once per measurement ([bench.exe CMD --one CALL
   ...], whose child prints one RESULT line); one that times a single
   call times it in its own process, before it builds anything else.
   In-process back-to-back timing is unusable at these scales: whichever
   run goes second pays major-GC costs proportional to the first's live
   result, and OCaml 5.1's Gc.compact does not return freed pages, so
   the pollution is one-way and unbounded.

   A measurement reports CPU seconds (Sys.time), wall seconds, the
   seconds of the benchmark's machine-speed probe ([Ssbench.Probe]),
   timed in the same process before it builds anything, and the
   process's peak resident set (VmHWM). One rep is one process; a point
   takes the rep with the least raw CPU time. On a busy shared box
   CPU-time noise is strictly additive (cache and bandwidth interference
   only ever slow a run down), so the minimum is the estimator of the
   uncontended cost. The rep is not chosen by its time scaled to the
   probe's reference speed: the probe moves by up to a third between
   children of the same minute, so the least scaled time favours a rep
   whose probe ran slow. Multi-domain timings choose and report wall
   time, since CPU time sums over the domains. *)

open Cmdliner
module Json = Ssbench.Json
module Graph = Ss_topology.Graph
module Churn = Ss_engine.Churn
module Distributed = Ss_cluster.Distributed

(* -------------------------------------------------------- deployment *)

module P = Distributed.Make (struct
  let params = Distributed.default_params
end)

module E = Ss_engine.Engine.Make (P)
module F = Ss_engine.Flat.Make (P)

(* The typed sparse executor, warm-started on the protocol's expiries. *)
let sparse = E.Sparse { warm = Some Distributed.pending_expiry }

let seed = 2026
let quiet_rounds = Distributed.default_params.Distributed.cache_ttl + 2

(* The unit-disk radius of average degree [degree] at any node count. *)
let radius_for ?(degree = 7.0) n =
  sqrt (degree /. (Float.pi *. float_of_int n))

(* A geometric deployment and its churn plan, a function of the
   arguments alone so a child rebuilds exactly the parent's workload.
   Victims stride across the id space so bursts land in different
   regions; each burst is one crash with the rejoin half a spacing
   later. *)
let workload ~count ~radius ~bursts ~spacing ~first =
  let rng = Ss_prng.Rng.create ~seed:(seed + 1) in
  let graph = Ss_topology.Builders.random_geometric_count rng ~count ~radius in
  let burst i =
    let v = 997 * (i + 1) mod Graph.node_count graph in
    let r = first + (i * spacing) in
    [ (r, [ Churn.Crash v ]); (r + (spacing / 2), [ Churn.Join v ]) ]
  in
  (graph, Churn.schedule (List.concat (List.init bursts burst)))

(* The typed executor (sparse unless [~mode] says otherwise) and the
   flat one, each on a fresh generator seeded [seed]. *)
let run_typed ?(mode = sparse) ?channel ?churn ?states
    ?(max_rounds = 20_000) graph =
  E.run ~mode ?channel ?churn ?states ~quiet_rounds ~max_rounds
    (Ss_prng.Rng.create ~seed) graph

let run_flat ?channel ?churn ?states ?(max_rounds = 20_000) ?(domains = 1)
    graph =
  F.run ?channel ?churn ?states ~quiet_rounds ~max_rounds ~domains
    (Ss_prng.Rng.create ~seed) graph

(* ------------------------------------------------------- cross-checks *)

(* Ends the bench with exit 1 unless [ok]: a wrong fast path is
   worthless, so a failed check stops the bench before it writes. *)
let require ok what =
  if not ok then begin
    Fmt.epr "ERROR: %s@." what;
    exit 1
  end

(* Two runs of one workload must agree on every field of the run record
   but [changed_at]: states modulo [P.equal_state], or structurally with
   [~exact] (one executor at two domain counts must agree bit for bit,
   caches included), the rest exactly. Prints each differing field by
   name. *)
let same_run ?(exact = false) what (a : E.run) (b : E.run) =
  let states =
    Array.length a.E.states = Array.length b.E.states
    &&
    if exact then a.E.states = b.E.states
    else Array.for_all2 P.equal_state a.E.states b.E.states
  in
  let differing =
    List.filter_map
      (fun (field, same) -> if same then None else Some field)
      [
        ("states", states);
        ("rounds", a.E.rounds = b.E.rounds);
        ("converged", a.E.converged = b.E.converged);
        ("last_change_round", a.E.last_change_round = b.E.last_change_round);
        ("change_history", a.E.change_history = b.E.change_history);
        ("alive", a.E.alive = b.E.alive);
        ("bursts", a.E.bursts = b.E.bursts);
        ("faults", a.E.faults = b.E.faults);
        ("graph", Graph.equal a.E.graph b.E.graph);
      ]
  in
  List.iter (Fmt.epr "IDENTITY MISMATCH: %s: %s differs@." what) differing;
  differing = []

(* ------------------------------------------------------------ timing *)

(* One measurement, and what the timed call's [report] observed of its
   result after the clock stopped (a child's RESULT object: the times,
   then the observations). *)
type result = {
  cpu : float;
  wall : float;
  probe : float;
  peak_mb : float;
  obs : (string * Json.t) list;
}

(* The probe's CPU seconds on the reference machine, as in
   benchmark/run.ml: a scaled time is the CPU time x this / the probe's
   seconds in the same process. *)
let scaled r = r.cpu *. 0.4 /. r.probe
let observed k r = List.assoc k r.obs

(* The kB value of [field] in a /proc file of "Field: N kB" lines;
   None where unreadable. *)
let proc_kb file field =
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
      List.find_map
        (fun line ->
          Option.join
            (Scanf.sscanf_opt line "%s@: %d kB" (fun k kb ->
                 if String.equal k field then Some kb else None)))
        (String.split_on_char '\n' text)

(* The probe, then [setup ()] untimed, then [run] timed on its result. *)
let measure setup run =
  let probe = Ssbench.Probe.seconds () in
  let input = setup () in
  let c0 = Sys.time () and w0 = Unix.gettimeofday () in
  let v = run input in
  let cpu = Sys.time () -. c0 and wall = Unix.gettimeofday () -. w0 in
  let kb = Option.value ~default:0 (proc_kb "/proc/self/status" "VmHWM") in
  ({ cpu; wall; probe; peak_mb = float_of_int kb /. 1024.0; obs = [] }, v)

(* A call a child times. *)
let call setup run report () =
  let r, v = measure setup run in
  { r with obs = report v }

(* The child side of [--one CALL]: time the call, print its RESULT line. *)
let child calls name =
  match List.assoc_opt name calls with
  | Some call ->
      let r = call () in
      let num k v = (k, Json.Num v) in
      let times = [ num "cpu" r.cpu; num "wall" r.wall; num "probe" r.probe ] in
      let fields = times @ (num "peak_mb" r.peak_mb :: r.obs) in
      print_endline ("RESULT " ^ Json.to_string (Json.Obj fields))
  | None ->
      Fmt.epr "bench: --one: unknown call '%s' (expected one of: %s)@." name
        (String.concat ", " (List.map fst calls));
      exit 2

(* One fresh child [bench.exe CMD --one CALL [--smoke] ARGS], whose
   stdout is its RESULT line; a failed child, or one without that line,
   ends the bench. *)
let spawn ~smoke ~args cmd name =
  let smoke = if smoke then [ "--smoke" ] else [] in
  let argv = Sys.executable_name :: cmd :: "--one" :: name :: smoke in
  let argv = Array.of_list (argv @ args) in
  let ic = Unix.open_process_args_in Sys.executable_name argv in
  let result =
    List.find_map
      (fun l ->
        if not (String.starts_with ~prefix:"RESULT " l) then None
        else Some (Json.of_string (String.sub l 7 (String.length l - 7))))
      (String.split_on_char '\n' (In_channel.input_all ic))
  in
  match (Unix.close_process_in ic, result) with
  | Unix.WEXITED 0, Some j ->
      let num k = Json.to_num (Json.field k j) in
      let r = { cpu = num "cpu"; wall = num "wall"; probe = num "probe";
                peak_mb = num "peak_mb"; obs = Json.to_obj j } in
      Fmt.pr "  %s %s: cpu %.3fs  wall %.3fs  probe %.3fs  peak %.0f MB@." cmd
        name r.cpu r.wall r.probe r.peak_mb;
      r
  | _ ->
      Fmt.epr "ERROR: child '%s' failed@." (String.concat " " (Array.to_list argv));
      exit 1

(* The rep with the least raw CPU time (least wall time with [~wall])
   over [reps] fresh children. *)
let best ?(wall = false) ?(args = []) ~reps ~smoke cmd name =
  let key r = if wall then r.wall else r.cpu in
  let runs = List.init reps (fun _ -> spawn ~smoke ~args cmd name) in
  List.fold_left (fun b r -> if key r < key b then r else b) (List.hd runs) runs

(* -------------------------------------------------------------- JSON *)

(* [x] rounded to [d] decimals, which is what [render] then writes. *)
let fixed d x =
  let s = 10.0 ** float_of_int d in
  Json.Num (Float.round (x *. s) /. s)

(* Containers at depth 0 and 1 put one member per line, deeper ones (the
   rows of an array) one line each. A fraction prints with 12
   significant digits, which writes a [fixed] value as its decimals. *)
let rec render depth v =
  let nest o c items =
    if depth >= 2 then Printf.sprintf "%c%s%c" o (String.concat ", " items) c
    else
      let pad = String.make ((2 * depth) + 2) ' ' in
      Printf.sprintf "%c\n%s%s\n%s%c" o pad
        (String.concat (",\n" ^ pad) items)
        (String.make (2 * depth) ' ')
        c
  in
  match v with
  | Json.Obj (_ :: _ as l) ->
      let member (k, v) = Json.to_string (Json.Str k) ^ ": " ^ render (depth + 1) v in
      nest '{' '}' (List.map member l)
  | Json.Arr (_ :: _ as l) -> nest '[' ']' (List.map (render (depth + 1)) l)
  | Json.Num f when Float.is_finite f && not (Float.is_integer f) ->
      Printf.sprintf "%.12g" f
  | leaf -> Json.to_string leaf

let write file doc =
  Out_channel.with_open_bin file (fun oc ->
      output_string oc (render 0 doc ^ "\n"));
  Fmt.pr "wrote %s@." file

(* Every key path of a document, array indices erased. *)
let rec paths prefix = function
  | Json.Obj l ->
      List.concat_map (fun (k, v) -> let p = prefix ^ "." ^ k in p :: paths p v) l
  | Json.Arr l -> List.concat_map (paths (prefix ^ "[]")) l
  | Json.Null | Json.Bool _ | Json.Num _ | Json.Str _ -> []

(* A full run writes [doc] to [file]. A smoke leaves the committed file
   alone and exits 1 unless [doc] has its key paths, array lengths
   aside, printing each path only one side has: the check that the
   writer still produces the file it claims to. *)
let output ~smoke file doc =
  if not smoke then write file doc
  else
    let keys doc = List.sort_uniq String.compare (paths "" doc) in
    let committed =
      try keys (Json.read_file file)
      with Sys_error msg | Json.Parse_error msg ->
        Fmt.epr "SHAPE MISMATCH: cannot read %s: %s@." file msg;
        exit 1
    in
    let written = keys doc in
    let report what a b =
      List.iter (fun p -> if not (List.mem p b) then
          Fmt.epr "SHAPE MISMATCH: %s: only in the %s: %s@." file what p) a
    in
    report "committed file" committed written;
    report "written document" written committed;
    require (List.equal String.equal committed written)
      (file ^ ": key paths differ");
    Fmt.pr "  %s: key paths match the committed file@." file

(* --------------------------------------------------------- commands *)

let smoke_arg doc = Arg.(value & flag & info [ "smoke" ] ~doc)

let one_arg =
  let doc = "Time the named call alone in this process (the driver runs \
             itself this way, once per measurement)." in
  Arg.(value & opt (some string) None & info [ "one" ] ~docv:"CALL" ~doc)

(* A subcommand that times [calls ~smoke] in children: [--one CALL] is
   one child, otherwise [main ~smoke] runs the bench. Without
   [smoke_doc] it has no [--smoke]. *)
let bench name ~doc ?smoke_doc calls main =
  let run smoke = function
    | Some call -> child (calls ~smoke) call
    | None -> main ~smoke
  in
  let smoke = Option.fold ~none:(Term.const false) ~some:smoke_arg smoke_doc in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ smoke $ one_arg)
