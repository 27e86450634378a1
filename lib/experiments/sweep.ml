(* The experiment sweep pipeline, written once: cell order, positional
   per-run streams, pool execution, failure capture, the run-order fold,
   replay pointers and exact single-(cell, run) replay. The drivers
   supply a cell list, a per-run function, a judge and a fold. *)

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
  run : 'cell -> Ss_prng.Rng.t -> 'a;
  judge : 'cell -> 'a -> string option;
  fold : 'cell -> 'a runs -> 'row;
}

let raised_only _ _ = None

let completed runs =
  List.filter_map (function Done a -> Some a | Raised _ -> None) runs.outcomes

type ('cell, 'a, 'row) entry = { cell : 'cell; runs : 'a runs; row : 'row }

let capture f x =
  match f x with v -> Done v | exception e -> Raised (Printexc.to_string e)

let verdict t cell = function
  | Raised reason -> Some reason
  | Done a -> t.judge cell a

let run_cell ?domains (t : (_, _, _) t) index cell =
  (* A cell whose preparation raises fails every one of its runs, with
     the same text a replay of any of them reports. *)
  let prepared = capture t.run cell in
  let outcomes =
    Runner.replicate ?domains ~seed:(t.seed index) ~runs:(t.runs cell)
      (fun ~run:_ rng ->
        match prepared with Done f -> capture f rng | Raised r -> Raised r)
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

let run ?domains (t : (_, _, _) t) = List.mapi (run_cell ?domains t) t.cells
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
  (* The prefix property of the positional streams: the first [run + 1]
     streams are the ones any sweep of this seed hands out. *)
  let rng = (Runner.streams ~seed:(t.seed index) ~runs:(run + 1)).(run) in
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
