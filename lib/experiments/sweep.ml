(* The experiment sweep pipeline, written once: cell order, positional
   per-run streams, pool execution, failure capture, the run-order fold,
   replay pointers and exact single-(cell, run) replay. The drivers
   supply a cell list, a per-run function, a judge and a fold.

   The sub-streams are derived *positionally* — stream i is the i-th split
   of the cell's base generator, taken before any run executes — and
   results are collected by run index. Those two properties together are
   the determinism contract: executing the runs on 1 or N domains cannot
   change any output bit (DESIGN §6). *)

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

(* Split in ascending run order: stream i is a function of (seed, i)
   only, never of the total run count. *)
let streams ~seed ~runs =
  if runs < 0 then invalid_arg "Sweep.streams: negative runs";
  let base = Rng.create ~seed in
  Array.init runs (fun _ -> Rng.split base)

type 'a outcome = Done of 'a | Raised of string

type 'a runs = {
  index : int;
  outcomes : 'a outcome list;
  failed : int;
  bad : (int * string) list;
}

type ('cell, 'a, 'row) t = {
  label : 'cell -> string;
  cells : 'cell list;
  runs : 'cell -> int;
  seed : int -> int;
  run : 'cell -> Rng.t -> 'a;
  judge : 'cell -> 'a -> string option;
  fold : 'cell -> 'a runs -> 'row;
}

let raised_only _ _ = None

let completed runs =
  List.filter_map (function Done a -> Some a | Raised _ -> None) runs.outcomes

let summaries n samples runs =
  let columns = Array.init n (fun _ -> Summary.create ()) in
  List.iter
    (fun o -> samples o (fun c x -> Summary.add columns.(c) x))
    (completed runs);
  columns

type ('cell, 'a, 'row) entry = { cell : 'cell; runs : 'a runs; row : 'row }

let capture f x =
  match f x with v -> Done v | exception e -> Raised (Printexc.to_string e)

let verdict t cell = function
  | Raised reason -> Some reason
  | Done a -> t.judge cell a

let run_cell pool (t : (_, _, _) t) index cell =
  let runs = t.runs cell in
  if runs < 1 then
    invalid_arg
      (Printf.sprintf "Sweep.run: cell %d (%s) needs at least one run, got %d"
         index (t.label cell) runs);
  (* A cell whose preparation raises fails every one of its runs, with
     the same text a replay of any of them reports. *)
  let prepared = capture t.run cell in
  let rngs = streams ~seed:(t.seed index) ~runs in
  let outcomes =
    Array.to_list
      (Pool.map pool runs (fun i ->
           match prepared with Done f -> capture f rngs.(i) | Raised r -> Raised r))
  in
  let failed =
    List.length
      (List.filter (function Raised _ -> true | Done _ -> false) outcomes)
  in
  let bad =
    List.concat
      (List.mapi
         (fun i o ->
           match verdict t cell o with Some r -> [ (i, r) ] | None -> [])
         outcomes)
  in
  let runs = { index; outcomes; failed; bad } in
  { cell; runs; row = t.fold cell runs }

let run ?domains (t : (_, _, _) t) =
  let domains =
    match domains with
    | None -> default_domains ()
    | Some d when d >= 1 -> d
    | Some d ->
        invalid_arg
          (Printf.sprintf "Sweep.run: domains must be positive, got %d" d)
  in
  (* One pool for the whole sweep, no larger than its largest cell: every
     cell's runs go through it, so its domains are spawned and joined once
     per sweep, not once per cell. *)
  let most = List.fold_left (fun m cell -> max m (t.runs cell)) 1 t.cells in
  Pool.with_pool ~domains:(min domains most) (fun pool ->
      List.mapi (run_cell pool t) t.cells)

let rows ?domains t = List.map (fun e -> e.row) (run ?domains t)

let replay (t : (_, _, _) t) ~cell:index ~run =
  let n = List.length t.cells in
  if index < 0 || index >= n then
    invalid_arg
      (Printf.sprintf "Sweep.replay: cell %d outside the sweep (%d cells)"
         index n);
  if run < 0 then
    invalid_arg (Printf.sprintf "Sweep.replay: negative run index %d" run);
  let cell = List.nth t.cells index in
  let runs = t.runs cell in
  if run >= runs then
    invalid_arg
      (Printf.sprintf "Sweep.replay: run %d outside cell %d (%d runs)" run
         index runs);
  (* The prefix property of the positional streams: the first [run + 1]
     streams are the ones any sweep of this seed hands out. *)
  let rng = (streams ~seed:(t.seed index) ~runs:(run + 1)).(run) in
  let outcome = capture (fun rng -> t.run cell rng) rng in
  (cell, outcome, verdict t cell outcome)

let raised entries =
  List.concat_map
    (fun e ->
      List.concat
        (List.mapi
           (fun i -> function
             | Raised r -> [ (e.runs.index, i, r) ] | Done _ -> [])
           e.runs.outcomes))
    entries

let exit_status entries = if raised entries = [] then 0 else 1

let pointer ~prefix ~cell ~run =
  Printf.sprintf "%s --cell %d --run %d" prefix cell run

let replay_column ~prefix ~index bad =
  match bad with
  | [] -> "-"
  | bad ->
      String.concat "; "
        (List.map
           (fun (run, reason) ->
             match prefix with
             | Some prefix ->
                 Printf.sprintf "%s (%s)" (pointer ~prefix ~cell:index ~run)
                   reason
             | None -> Printf.sprintf "%d: %s" run reason)
           bad)
