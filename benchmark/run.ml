(* The benchmark driver.

     run.exe [--workload NAME]... [--seed S] [--seconds T] [--trace [0|1]]
             [--out FILE]
     run.exe --smoke [--seed S]
     run.exe compare A.json B.json

   Every measured run happens in a fresh child process (this executable
   with [child]): timing back-to-back runs in one process makes each run
   pay for the previous run's major heap. For each selected workload
   (default: all six) the driver starts children one after another until
   [--seconds] of wall-clock time is used (at least three; the default is
   BENCHMARK.json's run_seconds), each of which builds the inputs from the
   seed, times the run in CPU seconds, checks the outputs and reports its
   peak RSS. The driver prints every metric as [workload metric value
   unit] (the median child, times at a reference machine speed, see
   [measure]), appends the run to the results file, and prints one JSON
   summary as its last line.

   With [--trace 1] the children alternate between untraced and traced
   runs; the traced ones record per-layer spans (see {!Tracer}), write
   them to [benchmark-results/trace-<workload>.jsonl], and the summary
   carries the per-layer metrics instead of the end-to-end ones.
   End-to-end numbers always come from untraced children.

   Metric names, units and bounds are read from BENCHMARK.json in the
   working directory, so the benchmark is run from the repository root. *)

open Ssbench

let default_seed = 2026
let results_dir = "benchmark-results"
let expected_path = "benchmark/expected.json"
let min_untraced = 3
let min_traced = 2

(* ------------------------------------------------------------- helpers *)

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("benchmark: " ^ s); exit 2) fmt

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> die "no VmHWM in /proc/self/status"
  in
  scan ()

let digest_hex d = Printf.sprintf "%016Lx" d

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

type metric_spec = { m_name : string; m_unit : string; lower_better : bool; bound : float }

(* BENCHMARK.json: the end-to-end and per-layer metric lists and the
   default run length. *)
let benchmark_spec () =
  let j =
    try Json.read_file "BENCHMARK.json"
    with Sys_error e | Json.Parse_error e -> die "cannot read BENCHMARK.json: %s" e
  in
  let metric kind m =
    {
      m_name = Json.to_str (Json.field "name" m);
      m_unit = Json.to_str (Json.field "unit" m);
      lower_better = Json.to_str (Json.field "better" m) = "lower";
      bound =
        (if kind = `E2e then Json.to_num (Json.field "bound" m) else 0.0);
    }
  in
  ( List.map (metric `E2e) (Json.to_list (Json.field "end_to_end" j)),
    List.map (metric `Layer) (Json.to_list (Json.field "per_layer" j)),
    Json.to_num (Json.field "run_seconds" j) )

(* -------------------------------------------------------------- child *)

(* One fresh-process measurement: set up, run, check, report. *)
let child ~workload ~seed ~traced ~trace_file =
  let w =
    match Workloads.find workload with
    | Some w -> w
    | None -> die "unknown workload %s" workload
  in
  let probe_s = Probe.seconds () in
  if traced then Tracer.reset ();
  let r = w.Workloads.run ~size:Workloads.Full ~seed ~traced in
  let rss = peak_rss_mb () in
  let layers =
    if not traced then []
    else begin
      Option.iter
        (fun path -> Tracer.write_jsonl path ~workload ~seed)
        trace_file;
      Layers.metrics ~executor:w.Workloads.executor r
    end
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("probe_s", Json.Num probe_s);
            ("setup_s", Json.Num r.Workloads.setup_s);
            ("run_s", Json.Num r.Workloads.run_s);
            ("peak_rss_mb", Json.Num rss);
            ("attempted", Json.int r.Workloads.attempted);
            ("failed", Json.int r.Workloads.failed);
            ( "failures",
              Json.Arr (List.map (fun s -> Json.Str s) r.Workloads.failures) );
            ("digest", Json.Str (digest_hex r.Workloads.digest));
            ( "facts",
              Json.Obj (List.map (fun (k, v) -> (k, Json.int v)) r.Workloads.facts)
            );
            ( "layers",
              Json.Obj
                (List.map
                   (fun (k, v, u) ->
                     (k, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
                   layers) );
          ]))

(* Run one child and parse its last stdout line. *)
let spawn ~workload ~seed ~traced =
  let args =
    [
      Sys.executable_name; "child"; "--workload"; workload; "--seed";
      string_of_int seed; "--trace"; (if traced then "1" else "0");
    ]
    @
    if traced then
      [ "--trace-file"; Filename.concat results_dir ("trace-" ^ workload ^ ".jsonl") ]
    else []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let last = ref None in
  (try
     while true do
       last := Some (input_line ic)
     done
   with End_of_file -> ());
  match (Unix.close_process_in ic, !last) with
  | Unix.WEXITED 0, Some line -> (
      try Json.of_string line
      with Json.Parse_error e -> die "child %s: bad result line (%s)" workload e)
  | _ -> die "child for %s failed" workload

(* ------------------------------------------------------------ parent *)

(* The pinned default-seed outputs, digest and outcome counts, of the
   measured runs ([section] "workloads") or the smoke runs ("smoke"). *)
let pinned_check ~section name ~seed ~digest ~facts =
  if seed <> default_seed then []
  else
    let expected =
      try Json.read_file expected_path
      with Sys_error e | Json.Parse_error e -> die "cannot read %s: %s" expected_path e
    in
    match Json.field_opt name (Json.field section expected) with
    | None -> [ "no pinned outputs for " ^ name ]
    | Some e ->
        let want_digest = Json.to_str (Json.field "digest" e) in
        let want_facts =
          List.map (fun (k, v) -> (k, Json.to_int v)) (Json.to_obj (Json.field "facts" e))
        in
        if want_digest = digest && want_facts = facts then []
        else
          [
            Printf.sprintf "outputs differ from the pinned ones (digest %s, want %s)"
              digest want_digest;
          ]

(* One value per invocation from its children's samples. *)
let metric estimate unit samples = { Results.value = estimate samples; unit; samples }

(* The probe's CPU seconds on an undisturbed 2-vCPU Xeon (model 143) KVM
   guest: scaled times are CPU seconds on that machine. *)
let probe_reference_s = 0.4

(* Children until [seconds] of wall-clock time are used: at least
   [min_untraced] untraced ones, and with [trace] alternately traced ones
   (at least [min_traced]). No child starts that the longest so far says
   would overrun the budget.

   Times are at the probe's reference speed: each child's time x
   [probe_reference_s] / that child's own probe time, and the value is
   the median over the children. Other tenants of a shared box slow a
   child's CPU time by up to 2.5x and never speed it up, in shifts that
   last from seconds to minutes; the probe, timed right before the
   child's set-up, slows with them, and the ratio cancels most of it. *)
let measure name ~seed ~seconds ~trace =
  let t0 = Unix.gettimeofday () in
  let untraced = ref [] and traced = ref [] in
  let longest = ref 0.0 in
  let want_more () =
    List.length !untraced < min_untraced
    || (trace && List.length !traced < min_traced)
    || Unix.gettimeofday () -. t0 +. !longest <= seconds
  in
  let next_traced = ref false in
  while want_more () do
    let c0 = Unix.gettimeofday () in
    let is_traced = trace && !next_traced in
    let c = spawn ~workload:name ~seed ~traced:is_traced in
    if is_traced then traced := c :: !traced else untraced := c :: !untraced;
    longest := Float.max !longest (Unix.gettimeofday () -. c0);
    if trace then next_traced := not !next_traced
  done;
  let untraced = List.rev !untraced and traced = List.rev !traced in
  let first = List.hd untraced in
  let num k j = Json.to_num (Json.field k j) in
  let digest = Json.to_str (Json.field "digest" first) in
  let facts =
    List.map (fun (k, v) -> (k, Json.to_int v)) (Json.to_obj (Json.field "facts" first))
  in
  (* Beyond the child's own ops: every child agrees on the outputs, and
     for the default seed they equal the pinned ones. *)
  let checks =
    (if List.for_all (fun c -> Json.to_str (Json.field "digest" c) = digest) (untraced @ traced)
     then []
     else [ "children with the same seed disagree on the final states" ])
    @ pinned_check ~section:"workloads" name ~seed ~digest ~facts
  in
  let attempted =
    Json.to_int (Json.field "attempted" first) + 1 + if seed = default_seed then 1 else 0
  in
  let failed = Json.to_int (Json.field "failed" first) + List.length checks in
  let failures =
    List.map Json.to_str (Json.to_list (Json.field "failures" first)) @ checks
  in
  let values k cs = List.map (num k) cs in
  let at_reference k cs =
    Stats.median
      (List.map2
         (fun x p -> x *. probe_reference_s /. p)
         (values k cs) (values "probe_s" cs))
  in
  let scaled k =
    { Results.value = at_reference k untraced; unit = "s"; samples = values k untraced }
  in
  let layers =
    match traced with
    | [] -> []
    | t :: _ ->
        let overhead = (at_reference "run_s" traced /. at_reference "run_s" untraced) -. 1.0 in
        ("trace.overhead_ratio", metric Stats.median "ratio" [ overhead ])
        :: List.map
             (fun (k, v) ->
               ( k,
                 metric Stats.median
                   (Json.to_str (Json.field "unit" v))
                   (List.map (fun c -> num "value" (Json.field k (Json.field "layers" c))) traced)
               ))
             (Json.to_obj (Json.field "layers" t))
  in
  ( {
      Results.name;
      attempted;
      failed;
      digest;
      metrics =
        [
          ("run_s", scaled "run_s");
          ("setup_s", scaled "setup_s");
          ("peak_rss_mb", metric Stats.median "MB" (values "peak_rss_mb" untraced));
          ("probe_s", metric Stats.median "s" (values "probe_s" untraced));
          ( "fail_ratio",
            metric Stats.median "ratio" [ float_of_int failed /. float_of_int (max 1 attempted) ] );
        ];
      layers;
    },
    List.length traced,
    failures )

let main_run ~names ~seed ~seconds ~trace ~out =
  let e2e_spec, layer_spec, run_seconds = benchmark_spec () in
  let seconds = Option.value seconds ~default:run_seconds in
  ensure_dir results_dir;
  let measured = List.map (fun name -> measure name ~seed ~seconds ~trace) names in
  let ws = List.map (fun (w, _, _) -> w) measured in
  List.iter
    (fun ((w : Results.workload), traced, failures) ->
      Printf.printf "%s children %d untraced, %d traced\n" w.Results.name
        (List.length (List.assoc "run_s" w.Results.metrics).Results.samples)
        traced;
      List.iter
        (fun (k, (m : Results.metric)) ->
          Printf.printf "%s %s %.6g %s\n" w.Results.name k m.Results.value m.Results.unit)
        (w.Results.metrics @ w.Results.layers);
      List.iter (fun f -> Printf.printf "%s FAILED %s\n" w.Results.name f) failures)
    measured;
  let run = { Results.seed; trace; workloads = ws } in
  Results.save (Filename.concat results_dir "latest.json") [ run ];
  Option.iter (fun path -> Results.append path run) out;
  (* The summary line: end-to-end metrics, or per-layer ones when traced.
     With several workloads the names are prefixed by the workload. *)
  let specs = if trace then layer_spec else e2e_spec in
  let entry (w : Results.workload) spec =
    let source = if trace then w.Results.layers else w.Results.metrics in
    match List.assoc_opt spec.m_name source with
    | Some m ->
        ( (if List.length ws = 1 then spec.m_name else w.Results.name ^ "." ^ spec.m_name),
          Json.Obj [ ("value", Json.Num m.Results.value); ("unit", Json.Str spec.m_unit) ] )
    | None -> die "metric %s is not measured" spec.m_name
  in
  let attempted = List.fold_left (fun a w -> a + w.Results.attempted) 0 ws in
  let failed = List.fold_left (fun a w -> a + w.Results.failed) 0 ws in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0));
            ("attempted", Json.int attempted);
            ("failed", Json.int failed);
            ( "metrics",
              Json.Obj (List.concat_map (fun w -> List.map (entry w) specs) ws) );
          ]));
  if failed > 0 then exit 1

(* ------------------------------------------------------------- smoke *)

let smoke ~seed =
  let t0 = Unix.gettimeofday () in
  let ok = ref true in
  List.iter
    (fun (w : Workloads.spec) ->
      let r = w.Workloads.run ~size:Workloads.Smoke ~seed ~traced:false in
      let identity = w.Workloads.smoke_identity ~seed in
      let failures =
        r.Workloads.failures
        @ pinned_check ~section:"smoke" w.Workloads.name ~seed
            ~digest:(digest_hex r.Workloads.digest) ~facts:r.Workloads.facts
      in
      Printf.printf "%s: run %.3f s, %d ops, digest %s, %s\n%!" w.Workloads.name
        r.Workloads.run_s r.Workloads.attempted (digest_hex r.Workloads.digest)
        (String.concat " "
           (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) r.Workloads.facts));
      List.iter (fun f -> Printf.printf "  FAILED %s\n" f) failures;
      List.iter
        (fun (label, good) ->
          Printf.printf "  %s: %s\n" label (if good then "ok" else "DIVERGED"))
        identity;
      if failures <> [] || not (List.for_all snd identity) then ok := false)
    Workloads.all;
  Printf.printf "smoke: %s in %.1f s\n" (if !ok then "OK" else "FAILED")
    (Unix.gettimeofday () -. t0);
  if not !ok then exit 1

(* ----------------------------------------------------------- compare *)

(* One row per workload: each end-to-end metric of BENCHMARK.json, plus
   fail_ratio with a zero bound, judged over the runs of each file. *)
let compare_files a b =
  let e2e_spec, _, _ = benchmark_spec () in
  let specs =
    e2e_spec @ [ { m_name = "fail_ratio"; m_unit = "ratio"; lower_better = true; bound = 0.0 } ]
  in
  let load path =
    match Results.load path with
    | [] -> die "%s holds no runs" path
    | runs -> runs
    | exception (Sys_error e | Json.Parse_error e) -> die "cannot read %s: %s" path e
  in
  let ra = load a and rb = load b in
  let values runs name metric =
    List.concat_map
      (fun (r : Results.run) ->
        List.filter_map
          (fun (w : Results.workload) ->
            if w.Results.name <> name then None
            else
              Option.map
                (fun (m : Results.metric) -> m.Results.value)
                (List.assoc_opt metric w.Results.metrics))
          r.Results.workloads)
      runs
  in
  let names =
    List.sort_uniq String.compare
      (List.concat_map
         (fun (r : Results.run) ->
           List.map (fun (w : Results.workload) -> w.Results.name) r.Results.workloads)
         ra)
  in
  let regressed = ref false in
  List.iter
    (fun name ->
      let cells =
        List.filter_map
          (fun spec ->
            match (values ra name spec.m_name, values rb name spec.m_name) with
            | [], _ | _, [] -> None
            | va, vb ->
                let v =
                  Stats.judge ~lower_better:spec.lower_better ~bound:spec.bound va vb
                in
                if v = Stats.Worse then regressed := true;
                let q1a, ma, q3a = Stats.quartiles va and q1b, mb, q3b = Stats.quartiles vb in
                Some
                  (Printf.sprintf "%s %s (%.4g [%.4g, %.4g] -> %.4g [%.4g, %.4g])"
                     spec.m_name (Stats.verdict_label v) ma q1a q3a mb q1b q3b))
          specs
      in
      if cells <> [] then Printf.printf "%-17s %s\n" name (String.concat "; " cells))
    names;
  if !regressed then exit 1

(* ----------------------------------------------------------- command *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let mode, args =
    match args with
    | "compare" :: rest -> (`Compare, rest)
    | "child" :: rest -> (`Child, rest)
    | rest -> (`Run, rest)
  in
  let names = ref [] and seed = ref default_seed and seconds = ref None in
  let trace = ref false and smoke_flag = ref false and out = ref None in
  let trace_file = ref None and files = ref [] in
  let int_arg flag v =
    match int_of_string_opt v with Some i -> i | None -> die "%s needs an integer" flag
  in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        names := !names @ [ v ];
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_arg "--seed" v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := Some (float_of_int (int_arg "--seconds" v));
        parse rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
        trace := v = "1";
        parse rest
    | "--trace" :: rest ->
        trace := true;
        parse rest
    | "--trace-file" :: v :: rest ->
        trace_file := Some v;
        parse rest
    | "--out" :: v :: rest ->
        out := Some v;
        parse rest
    | "--smoke" :: rest ->
        smoke_flag := true;
        parse rest
    | v :: rest when mode = `Compare && String.length v > 0 && v.[0] <> '-' ->
        files := !files @ [ v ];
        parse rest
    | v :: _ -> die "unknown argument %s" v
  in
  parse args;
  List.iter
    (fun n -> if Workloads.find n = None then die "unknown workload %s" n)
    !names;
  match mode with
  | `Compare -> (
      match !files with
      | [ a; b ] -> compare_files a b
      | _ -> die "usage: run.exe compare A.json B.json")
  | `Child -> (
      match !names with
      | [ w ] -> child ~workload:w ~seed:!seed ~traced:!trace ~trace_file:!trace_file
      | _ -> die "child needs exactly one --workload")
  | `Run ->
      if !smoke_flag then smoke ~seed:!seed
      else
        let names =
          if !names = [] then List.map (fun w -> w.Workloads.name) Workloads.all
          else !names
        in
        main_run ~names ~seed:!seed ~seconds:!seconds ~trace:!trace ~out:!out
