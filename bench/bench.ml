(* The bench driver: one subcommand per deployment-scale bench, each
   writing its committed BENCH_*.json (see harness.ml for the timing
   method). A bad argument exits 2 and names it.

     dune exec bench/bench.exe -- --help *)

(* Cmdliner takes any unambiguous prefix of a long option, so [--smok]
   would run the full bench and overwrite the committed file: every
   long option must be written in full. *)
let options =
  [ "--smoke"; "--one"; "--count"; "--bursts"; "--jobs"; "--help" ]

let () =
  let open Cmdliner in
  let abbreviated a =
    String.starts_with ~prefix:"--" a
    && not (List.mem (List.hd (String.split_on_char '=' a)) options)
  in
  (match List.find_opt abbreviated (List.tl (Array.to_list Sys.argv)) with
  | Some a ->
      Fmt.epr "bench: unknown option '%s' (expected one of %s, in full)@." a
        (String.concat ", " options);
      exit 2
  | None -> ());
  let doc = "Deployment-scale executor benches and cross-checks." in
  exit
    (match
       Cmd.eval_value
         (Cmd.group (Cmd.info "bench" ~doc)
            [ Hotpath.cmd; Sparse.cmd; Motion.cmd; Flat.cmd; Parallel.cmd;
              Traffic.cmd; Stabilization.cmd ])
     with
    | Ok _ -> 0
    | Error _ -> 2)
