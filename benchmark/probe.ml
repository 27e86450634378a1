(* Machine-speed probe.

   On a shared box the same child's CPU time moves by 10-150 % as other
   tenants load the host, in shifts lasting from seconds to minutes that
   no choice among an invocation's children removes. So each child first
   times this fixed kernel, right before it builds anything, and the
   driver reports times at the probe's reference speed (see [measure] in
   run.ml). The kernel mixes what the workloads do: a dependent integer
   loop, short-lived allocation and a comparison sort. Timed right before
   a child, this mix tracked the children's slowdowns at least as well as
   random access, streaming or pointer chasing over arrays larger than
   the cache did, and a 0.4 s pass better than a 0.1 s one (see
   README.md). It runs none of the program under test, so a change to
   the program moves the scaled times exactly as much as the raw ones. *)

let integer_loop () =
  let acc = ref 1 in
  for i = 1 to 48_000_000 do
    acc := ((!acc lxor i) * 31) + (!acc lsr 7)
  done;
  !acc

let allocation () =
  let total = ref 0 in
  for r = 1 to 80 do
    let l = List.init 20_000 (fun i -> (i * r, float_of_int i)) in
    total := !total + List.length (List.filter (fun (k, _) -> k land 1 = 0) l)
  done;
  !total

let sort () =
  let x = ref 12345 in
  let a =
    Array.init 600_000 (fun _ ->
        x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
        !x)
  in
  Array.sort compare a;
  a.(0)

(* CPU seconds of one pass over the kernel. *)
let seconds () =
  let t0 = Sys.time () in
  ignore (Sys.opaque_identity (integer_loop () + allocation () + sort ()));
  Sys.time () -. t0
