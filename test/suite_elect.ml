(* The election kernel against a spec written over key records.

   [Elect] is the one implementation of rule R2 that Algorithm, the typed
   handle and the flat step call, so no second copy cross-checks it any
   more. The spec here restates R2 with [Order.key], [Order.compare] and
   [Order.max_key] over lists of candidates, and a QCheck property
   compares the two on random tables: equal keys, missing densities
   (links = -1), negative and out-of-range keys, heads that are None,
   entries with no bridge, both tie modes, fusion on and off. The
   kernel's tables sit inside a larger array, at a random offset, as a
   flat row sits in its arena. *)

module Order = Ss_cluster.Order
module Density = Ss_cluster.Density
module Elect = Ss_cluster.Elect
module Rng = Ss_prng.Rng

type cand = {
  q : int;
  links : int; (* -1: density None *)
  nodes : int;
  gid : int;
  dag : int;
  head : int; (* -1: None *)
  claims : int list;
}

type far = { f_q : int; f_links : int; f_nodes : int; f_eff : int; f_head : bool }

type case = {
  tie : Order.tie;
  use_dag : bool;
  fusion : bool;
  me_links : int;
  me_nodes : int;
  me_eff : int;
  me_inc : bool;
  cands : cand list;
  fars : far list;
  pad : int; (* the tables' offset in their backing array *)
}

type outcome = Hold | Own | Join of int (* index into [cands] *)

(* ------------------------------------------------------------- the spec *)

let value links nodes =
  if links < 0 then None else Some (Density.make ~links ~nodes)

let spec c =
  let tie = c.tie in
  let key ~value ~id ~incumbent = Order.key ~value ~id ~incumbent in
  let entry (x : cand) =
    Option.map
      (fun value ->
        key ~value ~id:(if c.use_dag then x.dag else x.gid)
          ~incumbent:(x.head = x.q))
      (value x.links x.nodes)
  in
  (* The first candidate whose key is max≺ of the list. *)
  let argmax xs =
    match Order.max_key ~tie (List.map snd xs) with
    | None -> None
    | Some m -> List.find_opt (fun (_, k) -> Order.compare ~tie k m = 0) xs
  in
  let join i = if (List.nth c.cands i).head < 0 then Hold else Join i in
  match value c.me_links c.me_nodes with
  | None -> Hold
  | Some mine -> (
      let me = key ~value:mine ~id:c.me_eff ~incumbent:c.me_inc in
      let keys = List.map entry c.cands in
      if List.exists Option.is_none keys then Hold
      else
        let indexed = List.mapi (fun i k -> (i, Option.get k)) keys in
        match argmax indexed with
        | None -> Own
        | Some (b, kb) ->
            if Order.compare ~tie kb me >= 0 then join b
            else if not c.fusion then Own
            else
              let heads =
                List.filter_map
                  (fun f ->
                    match value f.f_links f.f_nodes with
                    | Some value when f.f_head ->
                        let k = key ~value ~id:f.f_eff ~incumbent:true in
                        if Order.compare ~tie me k < 0 then Some (f.f_q, k)
                        else None
                    | Some _ | None -> None)
                  c.fars
              in
              match argmax heads with
              | None -> Own
              | Some (v, _) -> (
                  let bridges =
                    List.filter (fun (i, _) -> List.mem v (List.nth c.cands i).claims)
                      indexed
                  in
                  match argmax bridges with
                  | None -> Hold
                  | Some (i, _) -> join i))

(* ----------------------------------------------------------- the kernel *)

(* The tables at offset [pad] of arrays padded with junk on both sides;
   returns the outcome and each candidate's offset. *)
let kernel c =
  let junk = 0x5eed in
  let cache_len =
    List.fold_left (fun acc x -> acc + 8 + List.length x.claims) 0 c.cands
  in
  let t = Array.make (c.pad + cache_len + 5) junk in
  let offsets = Array.make (List.length c.cands) 0 in
  let stop =
    List.fold_left
      (fun (i, u) x ->
        offsets.(i) <- u;
        let claims = Array.of_list x.claims in
        let row =
          [| x.q; junk; x.gid; x.dag; x.links; (if x.links < 0 then 0 else x.nodes); x.head;
             Array.length claims |]
        in
        Array.blit row 0 t u 8;
        Array.blit claims 0 t (u + 8) (Array.length claims);
        (i + 1, u + 8 + Array.length claims))
      (0, c.pad) c.cands
    |> snd
  in
  let f = Array.make (c.pad + (6 * List.length c.fars) + 3) junk in
  List.iteri
    (fun i x ->
      Array.blit
        [| x.f_q; junk; x.f_links; (if x.f_links < 0 then 0 else x.f_nodes); x.f_eff;
           (if x.f_head then 1 else 0) |]
        0 f
        (c.pad + (6 * i))
        6)
    c.fars;
  let tie = c.tie and links = c.me_links and nodes = c.me_nodes in
  let eff = c.me_eff and inc = c.me_inc in
  let r =
    Elect.first ~tie ~dag:c.use_dag ~fusion:c.fusion ~links ~nodes ~eff ~inc t
      c.pad stop
  in
  let r =
    if r <> Elect.fuse then r
    else
      let v =
        Elect.dominating ~tie ~links ~nodes ~eff ~inc f c.pad
          (List.length c.fars)
      in
      if v < 0 then v
      else
        let flags =
          Array.of_list
            (List.map
               (fun x -> if List.mem f.(v) x.claims then 1 else 0)
               c.cands)
        in
        Elect.bridge ~tie ~dag:c.use_dag t c.pad stop flags
  in
  let outcome =
    if r = Elect.hold then Hold
    else if r = Elect.own then Own
    else
      match List.find_opt (fun i -> offsets.(i) = r) (List.init (Array.length offsets) Fun.id) with
      | Some i -> Join i
      | None -> Alcotest.failf "kernel returned offset %d, no entry starts there" r
  in
  (outcome, r, t)

(* ---------------------------------------------------------- generators *)

(* Small ranges so keys tie often; keys and ids reach below 0 and past
   any node count; links -1 is a missing density; nodes 0 reads as
   density 0. *)
let gen_table =
  let open QCheck.Gen in
  let key = int_range (-3) 12 in
  let links = frequency [ (1, return (-1)); (8, int_range 0 5) ] in
  let nodes = int_range 0 3 in
  let id = int_range (-2) 4 in
  let gen_cand =
    map
      (fun ((q, links, nodes), (gid, dag, head_kind), (head_any, claims)) ->
        let head =
          match head_kind with 0 -> -1 | 1 | 2 -> q | _ -> head_any
        in
        { q; links; nodes; gid; dag; head; claims })
      (triple (triple key links nodes)
         (triple id id (int_range 0 4))
         (pair key (list_size (int_range 0 4) key)))
  in
  let gen_far =
    map
      (fun ((f_q, f_links, f_nodes), (f_eff, f_head)) ->
        { f_q; f_links; f_nodes; f_eff; f_head })
      (pair (triple key links nodes) (pair id (frequency [ (3, return true); (1, return false) ])))
  in
  map
    (fun ((tie, use_dag, fusion), (me_links, me_nodes, me_eff, me_inc), (cands, fars, pad)) ->
      {
        tie = (if tie then Order.Incumbent_then_id else Order.Id_only);
        use_dag;
        fusion;
        me_links;
        me_nodes;
        me_eff;
        me_inc;
        cands;
        fars;
        pad;
      })
    (triple (triple bool bool (frequency [ (1, return false); (3, return true) ]))
       (quad (frequency [ (1, return (-1)); (12, int_range 0 5) ]) nodes id bool)
       (triple (list_size (int_range 0 6) gen_cand) (list_size (int_range 0 8) gen_far)
          (int_range 0 5)))

let print_table c =
  let cand x =
    Printf.sprintf "{q=%d d=%d/%d gid=%d dag=%d head=%d claims=[%s]}" x.q x.links
      x.nodes x.gid x.dag x.head
      (String.concat ";" (List.map string_of_int x.claims))
  in
  let far x =
    Printf.sprintf "{q=%d d=%d/%d eff=%d head=%b}" x.f_q x.f_links x.f_nodes x.f_eff
      x.f_head
  in
  Printf.sprintf "tie=%s dag=%b fusion=%b me=%d/%d eff=%d inc=%b pad=%d\ncands=%s\nfars=%s"
    (match c.tie with Order.Id_only -> "id" | Order.Incumbent_then_id -> "incumbent")
    c.use_dag c.fusion c.me_links c.me_nodes c.me_eff c.me_inc c.pad
    (String.concat " " (List.map cand c.cands))
    (String.concat " " (List.map far c.fars))

let print_outcome = function
  | Hold -> "hold"
  | Own -> "own"
  | Join i -> Printf.sprintf "join %d" i

let prop_kernel_is_spec =
  QCheck.Test.make ~name:"Elect = R2 spec over Order keys" ~count:3000
    (QCheck.make ~print:print_table gen_table)
    (fun c ->
      let got, r, t = kernel c and want = spec c in
      if got <> want then
        QCheck.Test.fail_reportf "kernel %s, spec %s" (print_outcome got)
          (print_outcome want)
      else
        (* a join's head is never None *)
        match got with Join _ -> t.(r + 6) >= 0 | Hold | Own -> true)

(* Every branch of the spec is reached by the generator: a property that
   held only because the cases never reached fusion would show nothing. *)
let test_branches_reached () =
  let rand = Random.State.make [| 7 |] in
  let seen = Hashtbl.create 8 in
  for _ = 1 to 3000 do
    let c = gen_table rand in
    let tag =
      match spec c with
      | Hold -> if c.fusion then "hold/fusion" else "hold"
      | Own -> if c.fusion then "own/fusion" else "own"
      | Join _ -> if c.fusion then "join/fusion" else "join"
    in
    Hashtbl.replace seen tag ()
  done;
  List.iter
    (fun tag ->
      Alcotest.(check bool) (tag ^ " reached") true (Hashtbl.mem seen tag))
    [ "hold"; "own"; "join"; "hold/fusion"; "own/fusion"; "join/fusion" ]

(* The N1 pick against its list spec: the free names descending and one
   draw's index into them, or the current name and no draw when every
   name is taken. *)
let prop_free_name =
  QCheck.Test.make ~name:"Elect.free_name = descending free list pick"
    ~count:500
    QCheck.(triple (int_range 1 20) (list_of_size Gen.(int_range 0 25) (int_range (-3) 24)) small_nat)
    (fun (gamma, held, seed) ->
      let names = Array.make gamma 0 in
      List.iter (fun d -> if d >= 0 && d < gamma then names.(d) <- 1) held;
      let free = List.rev (List.filter (fun d -> names.(d) = 0) (List.init gamma Fun.id)) in
      let current = seed mod gamma in
      let r1 = Rng.create ~seed and r2 = Rng.create ~seed in
      let want =
        match free with
        | [] -> current
        | names -> List.nth names (Rng.int r2 (List.length names))
      in
      let got = Elect.free_name r1 ~gamma ~current names in
      got = want && Rng.int r1 1_000_000 = Rng.int r2 1_000_000)

let suite =
  [
    Alcotest.test_case "the generator reaches every branch" `Quick
      test_branches_reached;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_kernel_is_spec; prop_free_name ]
