(* Multi-seed experiment execution: every run derives an independent PRNG
   sub-stream from the base seed, so adding runs never perturbs earlier
   ones and any single run can be replayed in isolation.

   The sub-streams are derived *positionally* — stream i is the i-th split
   of the base generator, taken before any run executes — and results are
   collected by run index. Those two properties together are the
   determinism contract: executing the runs on 1 or N domains cannot
   change any output bit (see DESIGN.md, "Determinism under domain
   parallelism"). *)

module Rng = Ss_prng.Rng
module Summary = Ss_stats.Summary
module Pool = Ss_stats.Pool

let jobs_of_string s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> n
  | Some _ | None ->
      invalid_arg
        (Printf.sprintf "job count must be a positive integer, got %S" s)

(* A bad REPRO_JOBS must not quietly run sequential: ./check's 4-domain
   determinism pass would then pass without exercising the pool. *)
let default_domains () =
  match Sys.getenv_opt "REPRO_JOBS" with
  | None -> 1
  | Some s -> (
      try jobs_of_string s
      with Invalid_argument msg -> invalid_arg ("REPRO_JOBS: " ^ msg))

let streams ~seed ~runs =
  if runs < 0 then invalid_arg "Runner.streams: negative runs";
  let base = Rng.create ~seed in
  if runs = 0 then [||]
  else begin
    (* Split in ascending run order: stream i is a function of (seed, i)
       only, never of the total run count. *)
    let rngs = Array.make runs (Rng.split base) in
    for i = 1 to runs - 1 do
      rngs.(i) <- Rng.split base
    done;
    rngs
  end

let replicate ?domains ~seed ~runs f =
  if runs < 1 then invalid_arg "Runner.replicate: need at least one run";
  let domains =
    match domains with
    | None -> default_domains ()
    | Some d when d >= 1 -> d
    | Some d ->
        invalid_arg
          (Printf.sprintf "Runner.replicate: domains must be positive, got %d"
             d)
  in
  let rngs = streams ~seed ~runs in
  Array.to_list (Pool.map_n ~domains runs (fun i -> f ~run:i rngs.(i)))

let summarize ?domains ~seed ~runs f =
  let summary = Summary.create () in
  List.iter
    (fun v -> Summary.add summary v)
    (replicate ?domains ~seed ~runs (fun ~run rng ->
         ignore run;
         f rng));
  summary

(* Aggregate a record of named measurements across runs. *)
let summarize_fields ?domains ~seed ~runs fields f =
  let summaries = List.map (fun name -> (name, Summary.create ())) fields in
  List.iter
    (fun values ->
      List.iter
        (fun (name, v) ->
          match List.assoc_opt name summaries with
          | Some s -> Summary.add s v
          | None -> invalid_arg ("Runner: unknown field " ^ name))
        values)
    (replicate ?domains ~seed ~runs (fun ~run rng ->
         ignore run;
         f rng));
  summaries
