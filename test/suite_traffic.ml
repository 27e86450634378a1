(* The data-plane workload's proof obligations.

   (a) Executor independence: the same workload configuration attached to
       the dense, sparse and flat (1 and 4 domains) executors is
       bit-identical on every observable — per-message records, per-round
       series, counters, batteries — over random geometric worlds with
       lossy data channels, a crash/rejoin burst and energy drain
       (QCheck; this is the freshness-stamp-projection argument of
       [Route.of_distributed] tested empirically).
   (b) Directed pins: a message re-routes around its crashed relay and
       still delivers (monitor invalidation); an unreachable destination
       expires at exactly [born + ttl]; the retry/backoff schedule under
       total frame loss is the documented deterministic sequence.
   (c) The flat-path workload hook allocates O(1) per idle round — an
       attached-but-idle workload must not scale the quiet-round cost
       with the network.
   (d) The duty drain's cached head flags are unobservable: forcing full
       re-reads changes no observable, and a drain reads no more nodes
       than had their outputs change since the previous one.
   (e) The route-view cache is unobservable: forcing every view to be
       rebuilt changes no observable, and routing reads each node's state
       at most once per write stamp — so does a whole workload, whose
       duty drain reads through the same cache.
   (f) Bad energy inputs fail at [Workload.create], naming the field. *)

module Graph = Ss_topology.Graph
module Vec2 = Ss_geom.Vec2
module Channel = Ss_radio.Channel
module Churn = Ss_engine.Churn
module Engine = Ss_engine.Engine
module Flat = Ss_engine.Flat
module Distributed = Ss_cluster.Distributed
module Rng = Ss_prng.Rng
module W = Ss_traffic.Workload
module Route = Ss_traffic.Route

module P = Distributed.Make (struct
  let params = Distributed.default_params
end)

module E = Engine.Make (P)
module F = Flat.Make (P)

let quiet_rounds = Distributed.default_params.Distributed.cache_ttl + 2

(* ------------------------------------------------------- directed pins *)

(* Wheel: head-ish center 0 bridges every cross-ring pair (it ties the
   ring claimer on distance and wins on index), so crashing it mid-run
   forces monitor invalidations and ring re-routes. *)
let wheel () =
  let positions =
    Array.init 7 (fun i ->
        if i = 0 then Vec2.v 0.5 0.5
        else
          let a = float_of_int (i - 1) *. (Float.pi /. 3.0) in
          Vec2.v (0.5 +. (0.3 *. cos a)) (0.5 +. (0.3 *. sin a)))
  in
  let ring = List.init 6 (fun i -> (i + 1, ((i + 1) mod 6) + 1)) in
  let spokes = List.init 6 (fun i -> (0, i + 1)) in
  Graph.of_edges ~positions ~n:7 (ring @ spokes)

let test_retry_after_relay_crash () =
  let g = wheel () in
  let cfg =
    {
      W.default_config with
      W.seed = 11;
      rate = 1.0;
      first_round = 12;
      last_round = Some 20;
      ttl = 20;
      jitter = false;
    }
  in
  let w = W.create cfg ~n:7 in
  let churn =
    Churn.compose
      [
        Churn.schedule [ (14, [ Churn.Crash 0 ]) ];
        Churn.schedule [ (26, [ Churn.Join 0 ]) ];
      ]
  in
  let rng = Rng.create ~seed:3 in
  ignore
    (E.run ~mode:E.Dense ~quiet_rounds ~max_rounds:60 ~churn
       ~workload:(W.hook w) rng g);
  let t = W.totals w in
  Alcotest.(check bool) "offered some traffic" true (t.W.offered > 0);
  Alcotest.(check int) "nothing expired (ring always progresses)" 0
    t.W.expired;
  Alcotest.(check int) "all traffic accounted" t.W.offered
    (t.W.delivered + t.W.died);
  Alcotest.(check bool)
    (Printf.sprintf "monitor invalidated the crashed relay (%d)"
       t.W.invalidations)
    true (t.W.invalidations >= 1);
  Alcotest.(check bool) "delivered despite the crash" true (t.W.delivered > 0)

(* Two components: cross-component messages must expire at exactly
   [born + ttl], same-component ones deliver on the adjacent edge. *)
let test_ttl_expiry () =
  let positions = [| Vec2.v 0.0 0.0; Vec2.v 0.1 0.0; Vec2.v 0.9 0.0; Vec2.v 1.0 0.0 |] in
  let g = Graph.of_edges ~positions ~n:4 [ (0, 1); (2, 3) ] in
  let cfg =
    {
      W.default_config with
      W.seed = 5;
      rate = 3.0;
      last_round = Some 1;
      ttl = 8;
      jitter = false;
    }
  in
  let w = W.create cfg ~n:4 in
  let rng = Rng.create ~seed:9 in
  ignore
    (E.run ~mode:E.Dense ~quiet_rounds ~max_rounds:30 ~workload:(W.hook w)
       rng g);
  let t = W.totals w in
  let s = W.series w in
  Alcotest.(check int) "three arrivals in round 1" 3 t.W.offered;
  Alcotest.(check bool) "a cross-component message existed" true
    (t.W.expired >= 1);
  Alcotest.(check int) "everything delivered or expired" t.W.offered
    (t.W.delivered + t.W.expired);
  (* born = 1, ttl = 8: the drop happens in round 9, nowhere else. *)
  Alcotest.(check int) "expiry lands at born + ttl" t.W.expired
    s.W.s_expired.(8);
  Array.iteri
    (fun i e -> if i <> 8 then Alcotest.(check int) "no other drops" 0 e)
    s.W.s_expired

(* Two nodes, every frame lost: the retry schedule is pure arithmetic.
   base 2, cap 8, 3 attempts per hop, no jitter, born in round 1:
   attempts at 1,3,7 (backoffs 2,4), ban+reroute at 8 finds nothing
   (stall, backoff 2), bans cleared so the cycle repeats shifted by 9:
   10,12,16, stall 17, 19,21,25, stall 26, 28 — then the TTL (28) drops
   the message in round 29. *)
let test_backoff_schedule () =
  let positions = [| Vec2.v 0.0 0.0; Vec2.v 0.2 0.0 |] in
  let g = Graph.of_edges ~positions ~n:2 [ (0, 1) ] in
  let cfg =
    {
      W.default_config with
      W.seed = 7;
      channel = Channel.bernoulli 0.0;
      rate = 1.0;
      last_round = Some 1;
      ttl = 28;
      max_attempts = 3;
      backoff_base = 2;
      backoff_cap = 8;
      jitter = false;
    }
  in
  let w = W.create cfg ~n:2 in
  let rng = Rng.create ~seed:1 in
  ignore
    (E.run ~mode:E.Dense ~quiet_rounds ~max_rounds:40 ~workload:(W.hook w)
       rng g);
  let t = W.totals w in
  let s = W.series w in
  let attempt_rounds = ref [] in
  Array.iteri
    (fun i a -> if a > 0 then attempt_rounds := (i + 1) :: !attempt_rounds)
    s.W.s_attempts;
  Alcotest.(check (list int))
    "deterministic retry schedule"
    [ 1; 3; 7; 10; 12; 16; 19; 21; 25; 28 ]
    (List.rev !attempt_rounds);
  Alcotest.(check int) "every attempt failed" t.W.attempts t.W.failures;
  Alcotest.(check int) "three ban-and-reroute cycles" 3 t.W.reroutes;
  Alcotest.(check int) "three stalls on the banned-out view" 3 t.W.stalls;
  Alcotest.(check int) "expired, never delivered" 1 t.W.expired;
  Alcotest.(check int) "drop at born + ttl" 1 s.W.s_expired.(28)

(* --------------------------------- (a): executor-independence battery *)

type wcase = {
  w_seed : int;
  w_n : int;
  w_radius : float;
  w_chan : int; (* 0 perfect / 1 bernoulli / 2 bursty *)
  w_burst : bool;
  w_energy : bool;
}

let gen_wcase =
  QCheck.Gen.(
    map
      (fun (w_seed, w_n, w_radius, w_chan, (w_burst, w_energy)) ->
        { w_seed; w_n; w_radius; w_chan; w_burst; w_energy })
      (tup5 (int_bound 10_000) (int_range 20 80)
         (float_range 0.2 0.35) (int_bound 2) (tup2 bool bool)))

let print_wcase c =
  Printf.sprintf "{seed=%d; n=%d; r=%.3f; chan=%d; burst=%b; energy=%b}"
    c.w_seed c.w_n c.w_radius c.w_chan c.w_burst c.w_energy

let data_channel = function
  | 0 -> Channel.perfect
  | 1 -> Channel.bernoulli 0.8
  | _ ->
      Channel.bursty ~seed:5 ~tau_good:0.95 ~tau_bad:0.3 ~p_fade:0.1
        ~p_recover:0.4

let build_world c =
  let r = Rng.create ~seed:c.w_seed in
  let positions =
    Array.init c.w_n (fun _ ->
        let x = Rng.float r 1.0 in
        let y = Rng.float r 1.0 in
        Vec2.v x y)
  in
  Graph.unit_disk ~radius:c.w_radius positions

type exec = Dense | Sparse | FlatD of int

let workload_config c =
  {
    W.default_config with
    W.seed = c.w_seed + 1;
    channel = data_channel c.w_chan;
    rate = 2.0;
    last_round = Some 30;
    ttl = 12;
    energy =
      (if c.w_energy then
         Some { W.default_energy with W.capacity = 40.0; duty_every = 4 }
       else None);
  }

(* [wrap] sits between the executor and the workload's hook. *)
let run_exec ?(wrap = Fun.id) c g exec =
  let cfg = workload_config c in
  let w = W.create cfg ~n:(Graph.node_count g) in
  let churn =
    Churn.compose
      ((if c.w_burst then
          [
            Churn.crash_fraction ~round:10 ~fraction:0.2;
            Churn.join_all ~round:22;
          ]
        else [])
      @ [ W.churn_feed w ])
  in
  let rng = Rng.create ~seed:(c.w_seed + 2) in
  let states, alive, rounds =
    match exec with
    | Dense ->
        let r =
          E.run ~mode:E.Dense ~quiet_rounds ~max_rounds:70 ~churn
            ~workload:(wrap (W.hook w)) rng g
        in
        (r.E.states, r.E.alive, r.E.rounds)
    | Sparse ->
        let r =
          E.run
            ~mode:(E.Sparse { warm = Some Distributed.pending_expiry })
            ~quiet_rounds ~max_rounds:70 ~churn ~workload:(wrap (W.hook w))
            rng g
        in
        (r.E.states, r.E.alive, r.E.rounds)
    | FlatD domains ->
        let r =
          F.run ~quiet_rounds ~max_rounds:70 ~churn ~domains
            ~workload:(wrap (W.hook w)) rng g
        in
        (r.F.states, r.F.alive, r.F.rounds)
  in
  (w, states, alive, rounds)

let same (wa, sa, la, ra) (wb, sb, lb, rb) =
  W.equal wa wb && ra = rb
  && Array.for_all2 P.equal_state sa sb
  && la = lb

let prop_workload_executor_independent =
  QCheck.Test.make ~count:12 ~name:"workload: dense = sparse = flat x{1,4}"
    (QCheck.make ~print:print_wcase gen_wcase)
    (fun c ->
      let g = build_world c in
      let dense = run_exec c g Dense in
      let sparse = run_exec c g Sparse in
      let flat1 = run_exec c g (FlatD 1) in
      let flat4 = run_exec c g (FlatD 4) in
      same dense sparse && same dense flat1 && same dense flat4)

(* ------------------------- (d): skipped duty-drain reads are unobservable *)

(* Hand the hook a reader whose stamps all say "changed this round": the
   duty drain then re-reads every alive node, as a full sweep would. *)
let full_rereads hook ~round ~graph ~alive ~(read : _ Engine.reader) =
  hook ~round ~graph ~alive
    ~read:{ read with Engine.changed_at = (fun _ -> round) }

let energy_case =
  {
    w_seed = 77;
    w_n = 60;
    w_radius = 0.25;
    w_chan = 1;
    w_burst = true;
    w_energy = true;
  }

let test_skipped_reads_unobservable () =
  let g = build_world energy_case in
  List.iter
    (fun (label, exec) ->
      let ((w, _, _, _) as cached) = run_exec energy_case g exec in
      let full = run_exec ~wrap:full_rereads energy_case g exec in
      Alcotest.(check bool)
        (label ^ ": cached head flags = full re-reads")
        true (same cached full);
      match W.energy_report w with
      | Some e ->
          Alcotest.(check bool)
            (label ^ ": some node paid head duty")
            true (e.W.head_rounds_max > 0)
      | None -> Alcotest.fail "energy model missing")
    [ ("sparse", Sparse); ("flat", FlatD 1) ]

(* Count a hook's state reads per duty drain and bound them by what can
   have moved since the previous drain: nodes whose stamp passed it, and
   nodes that were not alive at it (never read, or read before a crash).
   Only meaningful for a hook that reads nothing but the drain — a
   workload offering no traffic, whose activity result is dropped.
   Returns the audited hook and a report (drains, drains over the bound,
   total reads). *)
let drain_audit ~n ~duty_every hook =
  let reads = ref 0 and drains = ref 0 and over = ref 0 in
  let prev = ref 0 and was_alive = Array.make n false in
  let audited ~round ~graph ~alive ~(read : _ Engine.reader) =
    let counting =
      {
        read with
        Engine.state =
          (fun p ->
            incr reads;
            read.Engine.state p);
      }
    in
    let before = !reads in
    ignore (hook ~round ~graph ~alive ~read:counting);
    if round mod duty_every = 0 then begin
      let allowed = ref 0 in
      for p = 0 to n - 1 do
        if alive.(p) && ((not was_alive.(p)) || read.Engine.changed_at p > !prev)
        then incr allowed;
        was_alive.(p) <- alive.(p)
      done;
      incr drains;
      if !reads - before > !allowed then incr over;
      prev := round
    end
  in
  (audited, fun () -> (!drains, !over, !reads))

(* A traffic-free rider with the same energy model shares the run: its
   drain sees the same roles as the real workload's (equal head duty)
   while reading at most the initial reads plus the output changes in
   between. The same rider fed forced re-reads breaks the bound, so the
   audit is not vacuous. *)
let test_drain_reads_bounded () =
  let c = energy_case in
  let g = build_world c in
  let n = Graph.node_count g in
  let duty_every =
    match (workload_config c).W.energy with
    | Some e -> e.W.duty_every
    | None -> Alcotest.fail "energy model missing"
  in
  let ride ~force exec =
    let rider = W.create { (workload_config c) with W.rate = 0.0 } ~n in
    let rider_hook = if force then full_rereads (W.hook rider) else W.hook rider in
    let audited, report = drain_audit ~n ~duty_every rider_hook in
    let wrap hook ~round ~graph ~alive ~read =
      audited ~round ~graph ~alive ~read;
      hook ~round ~graph ~alive ~read
    in
    let w, _, _, _ = run_exec ~wrap c g exec in
    (w, rider, report ())
  in
  List.iter
    (fun (label, exec) ->
      let w, rider, (drains, over, reads) = ride ~force:false exec in
      let head_duty w =
        Option.map (fun e -> (e.W.head_rounds_max, e.W.head_rounds_mean))
          (W.energy_report w)
      in
      Alcotest.(check bool)
        (label ^ ": rider charges the same head duty")
        true
        (head_duty w = head_duty rider);
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d drains" label drains)
        true (drains >= 5);
      Alcotest.(check int)
        (Printf.sprintf "%s: drains reading more than moved (%d reads)" label
           reads)
        0 over;
      let _, _, (_, forced_over, forced_reads) = ride ~force:true exec in
      Alcotest.(check bool)
        (Printf.sprintf "%s: full re-reads exceed the bound (%d > %d reads)"
           label forced_reads reads)
        true
        (forced_over > 0 && forced_reads > reads))
    [ ("sparse", Sparse); ("flat", FlatD 1) ]

(* ------------------------- (e): the route-view cache is unobservable *)

(* Hand the hook a reader whose write stamps all read "written this
   round": routing then rebuilds every view it reads, every round. *)
let fresh_views hook ~round ~graph ~alive ~(read : _ Engine.reader) =
  hook ~round ~graph ~alive
    ~read:{ read with Engine.written_at = (fun _ -> round) }

let test_view_cache_unobservable () =
  let g = build_world energy_case in
  List.iter
    (fun (label, exec) ->
      let cached = run_exec energy_case g exec in
      let fresh = run_exec ~wrap:fresh_views energy_case g exec in
      Alcotest.(check bool)
        (label ^ ": cached views = rebuilt views")
        true (same cached fresh))
    [ ("dense", Dense); ("sparse", Sparse); ("flat", FlatD 1) ]

(* Count a hook's state reads by (node, written_at) pair, against the
   reader's true stamps, and report the reads and the pairs read more
   than once. The audited hook returns the hook's own result. *)
let route_audit hook =
  let pairs = Hashtbl.create 256 in
  let reads = ref 0 and repeats = ref 0 in
  let audited ~round ~graph ~alive ~(read : _ Engine.reader) =
    let counting =
      {
        read with
        Engine.state =
          (fun p ->
            let key = (p, read.Engine.written_at p) in
            incr reads;
            if Hashtbl.mem pairs key then incr repeats
            else Hashtbl.add pairs key ();
            read.Engine.state p);
      }
    in
    hook ~round ~graph ~alive ~read:counting
  in
  (audited, fun () -> (!reads, !repeats))

(* A rider routing the same traffic without an energy model shares the
   run: every state it reads is a routing read, and no (node, stamp)
   pair may be read twice. On the frontier executors the same rider fed
   rebuilt views repeats pairs, so the audit is not vacuous; the dense
   walk writes every live node every round, so there its stamps already
   move each round and the two riders read alike. *)
let test_route_reads_once_per_write () =
  let c = energy_case in
  let g = build_world c in
  let n = Graph.node_count g in
  let ride ~force exec =
    let rider = W.create { (workload_config c) with W.energy = None } ~n in
    let rider_hook =
      if force then fresh_views (W.hook rider) else W.hook rider
    in
    let audited, report = route_audit rider_hook in
    let wrap hook ~round ~graph ~alive ~read =
      ignore (audited ~round ~graph ~alive ~read);
      hook ~round ~graph ~alive ~read
    in
    ignore (run_exec ~wrap c g exec);
    (W.totals rider, report ())
  in
  List.iter
    (fun (label, exec, frontier) ->
      let t, (reads, repeats) = ride ~force:false exec in
      Alcotest.(check bool)
        (Printf.sprintf "%s: rider routed traffic (%d attempts)" label
           t.W.attempts)
        true (t.W.attempts > 0);
      Alcotest.(check int)
        (Printf.sprintf "%s: (node, written_at) pairs read twice (%d reads)"
           label reads)
        0 repeats;
      let _, (forced_reads, forced_repeats) = ride ~force:true exec in
      if frontier then
        Alcotest.(check bool)
          (Printf.sprintf "%s: rebuilt views repeat pairs (%d > %d reads)"
             label forced_reads reads)
          true
          (forced_repeats > 0 && forced_reads > reads)
      else
        Alcotest.(check int)
          (label ^ ": rebuilt views read alike")
          reads forced_reads)
    [ ("dense", Dense, false); ("sparse", Sparse, true); ("flat", FlatD 1, true) ]

(* The energy-on workload itself, audited: routing and the duty drain
   together read no (node, written_at) pair twice, because the drain takes
   its head flags from the route-view cache. *)
let test_workload_reads_once_per_write () =
  let c = energy_case in
  let g = build_world c in
  List.iter
    (fun (label, exec) ->
      let report = ref (fun () -> (0, 0)) in
      let wrap hook =
        let audited, r = route_audit hook in
        report := r;
        audited
      in
      let w, _, _, _ = run_exec ~wrap c g exec in
      let reads, repeats = !report () in
      Alcotest.(check bool)
        (Printf.sprintf "%s: workload routed traffic" label)
        true
        ((W.totals w).W.attempts > 0);
      Alcotest.(check bool)
        (label ^ ": some node paid head duty")
        true
        (match W.energy_report w with
        | Some e -> e.W.head_rounds_max > 0
        | None -> false);
      Alcotest.(check int)
        (Printf.sprintf "%s: (node, written_at) pairs read twice (%d reads)"
           label reads)
        0 repeats)
    [ ("dense", Dense); ("sparse", Sparse); ("flat", FlatD 1) ]

(* ----------------------------------------- (f): energy input checks *)

let contains msg sub =
  let k = String.length sub and m = String.length msg in
  let rec at i = i + k <= m && (String.sub msg i k = sub || at (i + 1)) in
  at 0

let rejects field energy () =
  match W.create { W.default_config with W.energy = Some energy } ~n:4 with
  | _ -> Alcotest.failf "%s: accepted" field
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s named in %S" field msg)
        true (contains msg field)

let bad_energy_cases =
  let e = W.default_energy in
  let duty ?(head = e.W.duty.Ss_cluster.Energy.head_per_epoch)
      ?(member = e.W.duty.Ss_cluster.Energy.member_per_epoch) () =
    {
      e with
      W.duty =
        {
          Ss_cluster.Energy.head_per_epoch = head;
          member_per_epoch = member;
        };
    }
  in
  [
    ("NaN capacity", "capacity", { e with W.capacity = Float.nan });
    ("negative tx_cost", "tx_cost", { e with W.tx_cost = -1.0 });
    ("NaN tx_cost", "tx_cost", { e with W.tx_cost = Float.nan });
    ("negative rx_cost", "rx_cost", { e with W.rx_cost = -0.5 });
    ("NaN rx_cost", "rx_cost", { e with W.rx_cost = Float.nan });
    ("negative head_per_epoch", "head_per_epoch", duty ~head:(-5.0) ());
    ("NaN head_per_epoch", "head_per_epoch", duty ~head:Float.nan ());
    ("negative member_per_epoch", "member_per_epoch", duty ~member:(-1.0) ());
    ("NaN member_per_epoch", "member_per_epoch", duty ~member:Float.nan ());
  ]

(* Zero costs and an infinite capacity stay legal. *)
let test_energy_edges_accepted () =
  ignore
    (W.create
       {
         W.default_config with
         W.energy =
           Some
             {
               W.default_energy with
               W.capacity = Float.infinity;
               tx_cost = 0.0;
               rx_cost = 0.0;
               duty =
                 {
                   Ss_cluster.Energy.head_per_epoch = 0.0;
                   member_per_epoch = 0.0;
                 };
             };
       }
       ~n:4)

(* -------------------------------- (c): idle workload hook allocation *)

let idle_hook_alloc n =
  let side = int_of_float (sqrt (float_of_int n)) in
  let positions =
    Array.init n (fun i ->
        Vec2.v
          (float_of_int (i mod side) /. float_of_int side)
          (float_of_int (i / side) /. float_of_int side))
  in
  let g = Graph.unit_disk ~radius:(1.6 /. float_of_int side) positions in
  let cfg = { W.default_config with W.seed = 3; rate = 0.0 } in
  let w = W.create cfg ~n in
  let w_lo = ref 0.0 and w_hi = ref 0.0 in
  let hook ~round ~graph ~alive ~read =
    if round = 40 then w_lo := Gc.minor_words ()
    else if round = 80 then w_hi := Gc.minor_words ();
    W.hook w ~round ~graph ~alive ~read
  in
  let rng = Rng.create ~seed:4 in
  ignore (F.run ~quiet_rounds:2 ~max_rounds:90 ~workload:hook rng g);
  !w_hi -. !w_lo

let test_idle_hook_alloc () =
  let small = idle_hook_alloc 256 in
  let big = idle_hook_alloc 2048 in
  Alcotest.(check bool)
    (Printf.sprintf
       "idle workload hook allocation size-independent (256: %.0f, 2048: \
        %.0f)"
       small big)
    true
    (big < (2.0 *. small) +. 16384.0)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest [ prop_workload_executor_independent ]

let suite =
  [
    Alcotest.test_case "retry + reroute after relay crash" `Quick
      test_retry_after_relay_crash;
    Alcotest.test_case "TTL expiry at exactly born + ttl" `Quick
      test_ttl_expiry;
    Alcotest.test_case "deterministic backoff schedule" `Quick
      test_backoff_schedule;
    Alcotest.test_case "idle workload hook allocates O(1) per round" `Quick
      test_idle_hook_alloc;
  ]
  @ qcheck_cases
  @ [
      Alcotest.test_case "skipped duty-drain reads are unobservable" `Quick
        test_skipped_reads_unobservable;
      Alcotest.test_case "duty drain reads only what moved" `Quick
        test_drain_reads_bounded;
      Alcotest.test_case "cached route views are unobservable" `Quick
        test_view_cache_unobservable;
      Alcotest.test_case "routing reads a state once per write" `Quick
        test_route_reads_once_per_write;
      Alcotest.test_case "workload reads a state once per write" `Quick
        test_workload_reads_once_per_write;
      Alcotest.test_case "zero energy costs, infinite capacity accepted"
        `Quick test_energy_edges_accepted;
    ]
  @ List.map
      (fun (label, field, energy) ->
        Alcotest.test_case ("create rejects " ^ label) `Quick
          (rejects field energy))
      bad_energy_cases
