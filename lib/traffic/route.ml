module D = Ss_cluster.Distributed

type pos = Ss_geom.Vec2.t = { x : float; y : float }

type view = {
  v_head : int option;
  v_peers : int array;
  v_claims : int array array;
  v_far_heads : int array;
}

(* Freshness stamps (e_heard/f_heard) and the clock are the only cache
   fields whose dense/sparse evolution differs (DESIGN §9: skipped nodes
   do not age refreshed entries); projecting them away here is what makes
   routing — and therefore the whole workload — executor-independent. *)
let of_distributed (st : D.state) =
  let k = List.length st.D.cache in
  let peers = Array.make k 0 and claims = Array.make k [||] in
  List.iteri
    (fun i ((q, e) : int * D.entry) ->
      peers.(i) <- q;
      claims.(i) <- e.D.e_nbrs)
    st.D.cache;
  let far_heads =
    Array.of_list
      (List.filter_map
         (fun ((v, f) : int * D.far_entry) ->
           if f.D.f_is_head then Some v else None)
         st.D.far)
  in
  {
    v_head = st.D.head;
    v_peers = peers;
    v_claims = claims;
    v_far_heads = far_heads;
  }

let no_via = -1

type decision = Forward of { next : int; via : int; advance : bool } | Stall

(* The decision below runs once per message hop, so it allocates only
   the [Forward] it returns: no closure, no float ref, no [Vec2] built
   (./check greps this part of the file for [fun] and [Vec2.]). Squared
   distances are computed inline from the position fields. *)

let claims (a : int array) (t : int) =
  let k = Array.length a in
  let i = ref 0 in
  let found = ref false in
  while (not !found) && !i < k do
    if a.(!i) = t then found := true;
    incr i
  done;
  !found

let rec mem_int q = function [] -> false | x :: l -> x = q || mem_int q l

let holds_peer v q =
  let ps = v.v_peers in
  let found = ref false in
  for i = 0 to Array.length ps - 1 do
    if ps.(i) = q then found := true
  done;
  !found

(* A candidate read out of a (possibly corrupted) table is bounds-checked
   before its position is touched. *)
let usable ~n ~cur ~prev ~banned q =
  q >= 0 && q < n && q <> cur && q <> prev && not (mem_int q banned)

(* The usable peer nearest [target], among those claiming [target] one
   hop behind them when [claiming]; -1 when none. Ties break to the
   smaller index so the choice is a pure function of the view. *)
let nearest_peer (pos : pos array) v ~n ~cur ~prev ~banned ~claiming target =
  let tx = pos.(target).x and ty = pos.(target).y in
  let best = ref (-1) and best_d = ref infinity in
  let ps = v.v_peers in
  for i = 0 to Array.length ps - 1 do
    let q = ps.(i) in
    if
      usable ~n ~cur ~prev ~banned q
      && ((not claiming) || claims v.v_claims.(i) target)
    then begin
      let dx = pos.(q).x -. tx and dy = pos.(q).y -. ty in
      let d = (dx *. dx) +. (dy *. dy) in
      if d < !best_d || (d = !best_d && (!best < 0 || q < !best)) then begin
        best := q;
        best_d := d
      end
    end
  done;
  !best

let next_hop ~positions:(pos : pos array) ~view:v ~n ~cur ~dst ~via ~prev
    ~banned =
  if dst < 0 || dst >= n || cur = dst then Stall
  else begin
    let tx = pos.(dst).x and ty = pos.(dst).y in
    if usable ~n ~cur ~prev ~banned dst && holds_peer v dst then
      Forward { next = dst; via = no_via; advance = true }
    else begin
      let bridge =
        nearest_peer pos v ~n ~cur ~prev ~banned ~claiming:true dst
      in
      if bridge >= 0 then
        Forward { next = bridge; via = no_via; advance = true }
      else begin
        let cx = pos.(cur).x -. tx and cy = pos.(cur).y -. ty in
        let d_cur = (cx *. cx) +. (cy *. cy) in
        (* Ride the carried waypoint only while it still pulls strictly
           forward — a waypoint that no longer beats the holder's own
           position is dropped, never chased backward. *)
        let ride =
          if via >= 0 && via < n && via <> cur && not (mem_int via banned)
          then begin
            let vx = pos.(via).x -. tx and vy = pos.(via).y -. ty in
            if (vx *. vx) +. (vy *. vy) >= d_cur then -1
            else if usable ~n ~cur ~prev ~banned via && holds_peer v via then
              via
            else nearest_peer pos v ~n ~cur ~prev ~banned ~claiming:true via
          end
          else -1
        in
        if ride >= 0 then Forward { next = ride; via; advance = true }
        else begin
          (* Strict progress, peers and backbone heads on one objective:
             a candidate's endpoint (the peer itself, or the head its
             bridge leads to) must be strictly closer to the destination
             than the holder. Longest stride wins, ties to the smaller
             endpoint index. *)
          let best_q = ref (-1) and best_t = ref no_via in
          let best_d = ref d_cur and best_e = ref (-1) in
          let ps = v.v_peers in
          for i = 0 to Array.length ps - 1 do
            let q = ps.(i) in
            if usable ~n ~cur ~prev ~banned q then begin
              let dx = pos.(q).x -. tx and dy = pos.(q).y -. ty in
              let d = (dx *. dx) +. (dy *. dy) in
              if d < !best_d || (d = !best_d && (!best_e < 0 || q < !best_e))
              then begin
                best_q := q;
                best_t := no_via;
                best_d := d;
                best_e := q
              end
            end
          done;
          let heads = v.v_far_heads in
          for i = 0 to Array.length heads - 1 do
            let t = heads.(i) in
            if t >= 0 && t < n && t <> cur && not (mem_int t banned) then begin
              let dx = pos.(t).x -. tx and dy = pos.(t).y -. ty in
              let d = (dx *. dx) +. (dy *. dy) in
              if d < !best_d then begin
                let direct =
                  usable ~n ~cur ~prev ~banned t && holds_peer v t
                in
                let q =
                  if direct then t
                  else nearest_peer pos v ~n ~cur ~prev ~banned ~claiming:true t
                in
                if q >= 0 then begin
                  (* [d < best_d] here, so the candidate wins outright. *)
                  best_q := q;
                  best_t := (if direct then no_via else t);
                  best_d := d;
                  best_e := t
                end
              end
            end
          done;
          if !best_q >= 0 then
            Forward { next = !best_q; via = !best_t; advance = true }
          else begin
            (* Local minimum: one escape hop to the usable peer nearest
               the destination. The caller bans the forwarder, so an
               escape walk sheds a node per revisit attempt instead of
               orbiting until the TTL. *)
            let q =
              nearest_peer pos v ~n ~cur ~prev ~banned ~claiming:false dst
            in
            if q >= 0 then Forward { next = q; via = no_via; advance = false }
            else Stall
          end
        end
      end
    end
  end
