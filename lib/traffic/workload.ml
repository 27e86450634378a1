module Graph = Ss_topology.Graph
module Dynamic = Ss_topology.Dynamic
module Channel = Ss_radio.Channel
module Rng = Ss_prng.Rng
module Churn = Ss_engine.Churn
module Engine = Ss_engine.Engine
module Distributed = Ss_cluster.Distributed
module Energy = Ss_cluster.Energy
module Summary = Ss_stats.Summary

type energy_model = {
  capacity : float;
  tx_cost : float;
  rx_cost : float;
  duty : Energy.drain;
  duty_every : int;
}

let default_energy =
  {
    capacity = 400.0;
    tx_cost = 1.0;
    rx_cost = 0.5;
    duty = Energy.default_drain;
    duty_every = 8;
  }

type config = {
  seed : int;
  channel : Channel.t;
  rate : float;
  first_round : int;
  last_round : int option;
  ttl : int;
  max_attempts : int;
  backoff_base : int;
  backoff_cap : int;
  jitter : bool;
  energy : energy_model option;
}

let default_config =
  {
    seed = 0x5eed;
    channel = Channel.perfect;
    rate = 1.0;
    first_round = 1;
    last_round = None;
    ttl = 64;
    max_attempts = 3;
    backoff_base = 1;
    backoff_cap = 8;
    jitter = true;
    energy = None;
  }

(* Growable array: amortized push, no per-round boxing — idle rounds
   write a handful of ints and allocate nothing. The pushed value fills
   the fresh slots of a grown array, so no placeholder is needed. *)
module Buf = struct
  type 'a t = { mutable a : 'a array; mutable len : int }

  let create () = { a = [||]; len = 0 }

  let push t x =
    if t.len = Array.length t.a then begin
      let b = Array.make (max 64 (2 * t.len)) x in
      Array.blit t.a 0 b 0 t.len;
      t.a <- b
    end;
    t.a.(t.len) <- x;
    t.len <- t.len + 1

  let get t i = t.a.(i)
  let to_array t = Array.sub t.a 0 t.len

  let equal eq a b =
    a.len = b.len
    &&
    let same = ref true in
    for i = 0 to a.len - 1 do
      if not (eq a.a.(i) b.a.(i)) then same := false
    done;
    !same
end

type msg = {
  id : int;
  src : int;
  dst : int;
  born : int;
  deadline : int;
  mutable holder : int;
  mutable prev : int;
  mutable via : int;
  mutable attempts : int;
  mutable retry_at : int;
  mutable banned : int list;
  mutable outcome : int;
  mutable end_round : int; (* round the outcome was reached; -1 in flight *)
  mutable hops : int;
  mutable retries : int; (* failed transmissions *)
}

(* Outcome codes of [msg.outcome]. *)
let o_flight = 0
let o_delivered = 1
let o_expired = 2
let o_died = 3

type t = {
  cfg : config;
  n : int;
  key : Rng.key;
  msgs : msg Buf.t; (* every message, indexed by id *)
  mutable flight : msg list; (* the in-flight ones, newest first; order
                                identical in every executor, which is all
                                determinism needs *)
  (* per-round series, indexed by round - 1 *)
  r_offered : int Buf.t;
  r_delivered : int Buf.t;
  r_expired : int Buf.t;
  r_died : int Buf.t;
  r_attempts : int Buf.t;
  r_failures : int Buf.t;
  r_inflight : int Buf.t;
  mutable stalls : int;
  mutable reroutes : int;
  mutable invalidations : int;
  batteries : Energy.battery array; (* [||] without an energy model *)
  head_rounds : int array;
  read_round : int array; (* round of the drain's last read; -1 = never *)
  views : Route.view array; (* per node: the routing view last built *)
  view_stamp : int array; (* the [written_at] it was built at; -1 = none *)
  mutable last_round : int;
}

let no_view =
  {
    Route.v_head = None;
    v_peers = [||];
    v_claims = [||];
    v_far_heads = [||];
  }

let create cfg ~n =
  if n < 0 then invalid_arg "Workload.create: negative node count";
  if cfg.ttl < 1 then invalid_arg "Workload.create: ttl must be >= 1";
  if cfg.max_attempts < 1 then
    invalid_arg "Workload.create: max_attempts must be >= 1";
  if cfg.rate < 0.0 then invalid_arg "Workload.create: negative rate";
  if cfg.backoff_base < 0 then
    invalid_arg "Workload.create: negative backoff_base";
  if cfg.backoff_cap < cfg.backoff_base then
    invalid_arg "Workload.create: backoff_cap below backoff_base";
  (match cfg.energy with
  | None -> ()
  | Some e ->
      (* Written so that NaN fails too: a NaN capacity would read every
         battery as dead from round 1, and a NaN or negative cost would
         only surface mid-run, from Energy.spend. *)
      if not (e.capacity > 0.0) then
        invalid_arg "Workload.create: energy capacity must be positive";
      let non_negative field x =
        if not (x >= 0.0) then
          invalid_arg
            (Printf.sprintf "Workload.create: %s must be a non-negative number"
               field)
      in
      non_negative "tx_cost" e.tx_cost;
      non_negative "rx_cost" e.rx_cost;
      non_negative "duty.head_per_epoch" e.duty.Energy.head_per_epoch;
      non_negative "duty.member_per_epoch" e.duty.Energy.member_per_epoch;
      if e.duty_every < 1 then
        invalid_arg "Workload.create: duty_every must be >= 1");
  {
    cfg;
    n;
    key = Rng.key ~seed:cfg.seed;
    msgs = Buf.create ();
    flight = [];
    r_offered = Buf.create ();
    r_delivered = Buf.create ();
    r_expired = Buf.create ();
    r_died = Buf.create ();
    r_attempts = Buf.create ();
    r_failures = Buf.create ();
    r_inflight = Buf.create ();
    stalls = 0;
    reroutes = 0;
    invalidations = 0;
    batteries =
      (match cfg.energy with
      | None -> [||]
      | Some e -> Array.init n (fun _ -> Energy.battery ~capacity:e.capacity));
    head_rounds = (match cfg.energy with None -> [||] | Some _ -> Array.make n 0);
    read_round =
      (match cfg.energy with None -> [||] | Some _ -> Array.make n (-1));
    views = Array.make n no_view;
    view_stamp = Array.make n (-1);
    last_round = 0;
  }

(* Key lanes under the workload key: 0 = arrivals (by round, then by
   arrival index), 1 = backoff jitter (by message, then attempt), 2 = the
   data channel (by round — Channel.round_plan subkeys further). All
   one-shot keyed draws: no sequential generator anywhere in the data
   plane. *)
let lane_arrivals t round = Rng.subkey (Rng.subkey t.key 0) round
let lane_jitter t id attempt = Rng.subkey (Rng.subkey (Rng.subkey t.key 1) id) attempt
let lane_data t round = Rng.subkey (Rng.subkey t.key 2) round

let backoff t ~id ~attempt =
  let b = t.cfg.backoff_base * (1 lsl min 16 (attempt - 1)) in
  let b = min t.cfg.backoff_cap b in
  let j =
    if t.cfg.jitter then Rng.key_int (lane_jitter t id attempt) 2 else 0
  in
  max 1 (b + j)

let pay t p cost =
  if Array.length t.batteries > 0 then Energy.spend t.batteries.(p) cost

(* Node [p]'s routing view, the one cache of what the workload reads of a
   state: routing and the duty drain both read through it. A view is a
   function of the whole state, caches included, so it is keyed on the
   write stamp: [changed_at] would miss steps that move cache entries
   while leaving the outputs equal. *)
let view_of t (read : Distributed.state Engine.reader) p =
  let w = read.Engine.written_at p in
  if t.view_stamp.(p) <> w then begin
    t.views.(p) <- Route.of_distributed (read.Engine.state p);
    t.view_stamp.(p) <- w
  end;
  t.views.(p)

let believes_head t p =
  match t.views.(p).Route.v_head with Some h -> h = p | None -> false

let hook t ~round ~graph ~alive ~read =
  if round <> t.last_round + 1 then
    invalid_arg
      (Printf.sprintf
         "Workload.hook: round %d after round %d — one workload rides one \
          run, rounds are consecutive from 1"
         round t.last_round);
  t.last_round <- round;
  let positions =
    match Graph.positions graph with
    | Some ps -> ps
    | None ->
        invalid_arg "Workload.hook: graph has no positions (routing is \
                     geographic)"
  in
  let offering =
    t.cfg.rate > 0.0 && round >= t.cfg.first_round
    && match t.cfg.last_round with None -> true | Some l -> round <= l
  in
  (* --- arrivals ------------------------------------------------------ *)
  let offered = ref 0 in
  if offering then begin
    let lane = lane_arrivals t round in
    let base = int_of_float t.cfg.rate in
    let frac = t.cfg.rate -. float_of_int base in
    let want =
      base
      + if frac > 0.0 && Rng.key_bernoulli (Rng.subkey lane 0) frac then 1 else 0
    in
    if want > 0 then begin
      let pool_len = ref 0 in
      for p = 0 to t.n - 1 do
        if alive.(p) then incr pool_len
      done;
      if !pool_len >= 2 then begin
        let pool = Array.make !pool_len 0 in
        let i = ref 0 in
        for p = 0 to t.n - 1 do
          if alive.(p) then begin
            pool.(!i) <- p;
            incr i
          end
        done;
        for k = 1 to want do
          let mk = Rng.subkey lane k in
          let si = Rng.key_int (Rng.subkey mk 0) !pool_len in
          let di0 = Rng.key_int (Rng.subkey mk 1) !pool_len in
          let di = if di0 = si then (di0 + 1) mod !pool_len else di0 in
          let src = pool.(si) and dst = pool.(di) in
          let m =
            {
              id = t.msgs.Buf.len;
              src;
              dst;
              born = round;
              deadline = round + t.cfg.ttl;
              holder = src;
              prev = -1;
              via = Route.no_via;
              attempts = 0;
              retry_at = round;
              banned = [];
              outcome = o_flight;
              end_round = -1;
              hops = 0;
              retries = 0;
            }
          in
          Buf.push t.msgs m;
          t.flight <- m :: t.flight;
          incr offered
        done
      end
    end
  end;
  (* --- move every eligible message one hop --------------------------- *)
  let delivered = ref 0 in
  let expired = ref 0 in
  let died = ref 0 in
  let attempts = ref 0 in
  let failures = ref 0 in
  let plan = ref None in
  let deliver ~src ~dst =
    let p =
      match !plan with
      | Some p -> p
      | None ->
          let p =
            Channel.round_plan t.cfg.channel ~key:(lane_data t round) ~round
              ~graph
          in
          plan := Some p;
          p
    in
    p ~src ~dst
  in
  let finish m outcome counter =
    m.outcome <- outcome;
    m.end_round <- round;
    incr counter
  in
  let process (m : msg) =
    if not alive.(m.holder) then finish m o_died died
    else if round >= m.deadline then finish m o_expired expired
    else if round < m.retry_at then ()
    else begin
      match
        Route.next_hop ~positions ~view:(view_of t read m.holder) ~n:t.n
          ~cur:m.holder ~dst:m.dst ~via:m.via ~prev:m.prev ~banned:m.banned
      with
      | Route.Stall ->
          t.stalls <- t.stalls + 1;
          (* The believed map offers nothing: forget bans and the
             backtrack guard (the tables may have healed or the ban may
             have been the mistake), back off, try again. *)
          m.banned <- [];
          m.prev <- -1;
          m.attempts <- 0;
          m.retry_at <- round + max 1 t.cfg.backoff_base
      | Route.Forward { next; via; advance } ->
          (* An escape hop out of a local minimum bans its forwarder for
             this message: any cycle the escape walk enters permanently
             loses a node per lap, so it unwinds instead of burning the
             TTL (Route's loop-freedom contract). *)
          if (not advance) && not (List.mem m.holder m.banned) then
            m.banned <- m.holder :: m.banned;
          m.via <- via;
          incr attempts;
          pay t m.holder
            (match t.cfg.energy with Some e -> e.tx_cost | None -> 0.0);
          let up = Graph.mem_edge graph m.holder next && alive.(next) in
          if up && deliver ~src:m.holder ~dst:next then begin
            pay t next
              (match t.cfg.energy with Some e -> e.rx_cost | None -> 0.0);
            m.prev <- m.holder;
            m.holder <- next;
            m.attempts <- 0;
            m.hops <- m.hops + 1;
            if m.via = next then m.via <- Route.no_via;
            if next = m.dst then finish m o_delivered delivered
          end
          else begin
            incr failures;
            m.retries <- m.retries + 1;
            if not up then begin
              (* The monitor saw the next hop dead (or the link gone):
                 a ghost table entry. Ban it outright — no point burning
                 the retry budget on a corpse — and re-route next round. *)
              t.invalidations <- t.invalidations + 1;
              m.banned <- next :: m.banned;
              m.attempts <- 0;
              m.retry_at <- round + 1
            end
            else begin
              m.attempts <- m.attempts + 1;
              if m.attempts >= t.cfg.max_attempts then begin
                t.reroutes <- t.reroutes + 1;
                m.banned <- next :: m.banned;
                m.attempts <- 0;
                m.retry_at <- round + 1
              end
              else m.retry_at <- round + backoff t ~id:m.id ~attempt:m.attempts
            end
          end
    end
  in
  List.iter process t.flight;
  t.flight <- List.filter (fun m -> m.outcome = o_flight) t.flight;
  (* --- duty-cycle energy drain: each alive node's believed-head flag,
     read through the view cache only when its outputs changed since the
     drain's last read; routing runs first, so a view it has just built
     costs the drain no unpack --------------------------------------- *)
  (match t.cfg.energy with
  | None -> ()
  | Some e ->
      if round mod e.duty_every = 0 then begin
        for p = 0 to t.n - 1 do
          if alive.(p) then begin
            if read.Engine.changed_at p > t.read_round.(p) then begin
              ignore (view_of t read p);
              t.read_round.(p) <- round
            end;
            if believes_head t p then
              t.head_rounds.(p) <- t.head_rounds.(p) + e.duty_every
          end
        done;
        Energy.apply_duty ~drain:e.duty t.batteries
          ~alive:(fun p -> alive.(p))
          ~is_head:(believes_head t)
      end);
  (* --- per-round series ---------------------------------------------- *)
  let inflight = List.length t.flight in
  Buf.push t.r_offered !offered;
  Buf.push t.r_delivered !delivered;
  Buf.push t.r_expired !expired;
  Buf.push t.r_died !died;
  Buf.push t.r_attempts !attempts;
  Buf.push t.r_failures !failures;
  Buf.push t.r_inflight inflight;
  let more_arrivals =
    t.cfg.rate > 0.0
    && match t.cfg.last_round with None -> true | Some l -> round < l
  in
  more_arrivals || inflight > 0

let churn_feed t =
  if Array.length t.batteries = 0 then Churn.nothing
  else
    Churn.generator (fun ~round:_ dyn _rng ->
        (* Drawless by construction: emitting (or not) consumes nothing
           from the plan generator, so attaching the feed perturbs no
           other churn stream. *)
        let evs = ref [] in
        for p = t.n - 1 downto 0 do
          if Dynamic.is_alive dyn p && not (Energy.is_alive t.batteries.(p))
          then evs := Churn.Crash p :: !evs
        done;
        !evs)

(* ------------------------------------------------------------ results *)

type totals = {
  offered : int;
  delivered : int;
  expired : int;
  died : int;
  in_flight : int;
  attempts : int;
  failures : int;
  stalls : int;
  reroutes : int;
  invalidations : int;
  latency : Summary.t;
  hops : Summary.t;
  retries : Summary.t;
}

let totals t =
  let offered = ref 0
  and delivered = ref 0
  and expired = ref 0
  and died = ref 0
  and in_flight = ref 0 in
  let latency = Summary.create ()
  and hops = Summary.create ()
  and retries = Summary.create () in
  for id = 0 to t.msgs.Buf.len - 1 do
    let m = Buf.get t.msgs id in
    incr offered;
    match m.outcome with
    | 1 ->
        incr delivered;
        Summary.add_int latency (m.end_round - m.born + 1);
        Summary.add_int hops m.hops;
        Summary.add_int retries m.retries
    | 2 -> incr expired
    | 3 -> incr died
    | _ -> incr in_flight
  done;
  let attempts = ref 0 and failures = ref 0 in
  for i = 0 to t.r_attempts.Buf.len - 1 do
    attempts := !attempts + Buf.get t.r_attempts i;
    failures := !failures + Buf.get t.r_failures i
  done;
  {
    offered = !offered;
    delivered = !delivered;
    expired = !expired;
    died = !died;
    in_flight = !in_flight;
    attempts = !attempts;
    failures = !failures;
    stalls = t.stalls;
    reroutes = t.reroutes;
    invalidations = t.invalidations;
    latency;
    hops;
    retries;
  }

type series = {
  s_offered : int array;
  s_delivered : int array;
  s_expired : int array;
  s_died : int array;
  s_attempts : int array;
  s_failures : int array;
  s_inflight : int array;
}

let series t =
  {
    s_offered = Buf.to_array t.r_offered;
    s_delivered = Buf.to_array t.r_delivered;
    s_expired = Buf.to_array t.r_expired;
    s_died = Buf.to_array t.r_died;
    s_attempts = Buf.to_array t.r_attempts;
    s_failures = Buf.to_array t.r_failures;
    s_inflight = Buf.to_array t.r_inflight;
  }

type cohort = {
  c_start : int;
  c_offered : int;
  c_delivered : int;
  c_ratio : float;
  c_latency_mean : float;
}

let cohorts ~window t =
  if window < 1 then invalid_arg "Workload.cohorts: window must be >= 1";
  let buckets = Hashtbl.create 16 in
  for id = 0 to t.msgs.Buf.len - 1 do
    let m = Buf.get t.msgs id in
    let born = m.born in
    let start = (born - 1) / window * window + 1 in
    let off, del, lat =
      match Hashtbl.find_opt buckets start with
      | Some b -> b
      | None ->
          let b = (ref 0, ref 0, Summary.create ()) in
          Hashtbl.add buckets start b;
          b
    in
    incr off;
    if m.outcome = o_delivered then begin
      incr del;
      Summary.add_int lat (m.end_round - born + 1)
    end
  done;
  Hashtbl.fold (fun start (off, del, lat) acc -> (start, !off, !del, lat) :: acc)
    buckets []
  |> List.sort (fun (a, _, _, _) (b, _, _, _) -> Int.compare a b)
  |> List.map (fun (start, off, del, lat) ->
         {
           c_start = start;
           c_offered = off;
           c_delivered = del;
           c_ratio =
             (if off = 0 then Float.nan
              else float_of_int del /. float_of_int off);
           c_latency_mean = Summary.mean lat;
         })

type energy_report = {
  depleted : int;
  spent_mean : float;
  spent_max : float;
  jain : float;
  head_rounds_max : int;
  head_rounds_mean : float;
}

let energy_report t =
  match t.cfg.energy with
  | None -> None
  | Some e ->
      let n = t.n in
      let depleted = ref 0 in
      let sum = ref 0.0 and sum2 = ref 0.0 and mx = ref 0.0 in
      Array.iter
        (fun b ->
          if not (Energy.is_alive b) then incr depleted;
          let spent = e.capacity -. Energy.charge b in
          sum := !sum +. spent;
          sum2 := !sum2 +. (spent *. spent);
          if spent > !mx then mx := spent)
        t.batteries;
      let jain =
        if !sum2 <= 0.0 then 1.0
        else !sum *. !sum /. (float_of_int n *. !sum2)
      in
      let hr_max = Array.fold_left max 0 t.head_rounds in
      let hr_sum = Array.fold_left ( + ) 0 t.head_rounds in
      Some
        {
          depleted = !depleted;
          spent_mean = (if n = 0 then 0.0 else !sum /. float_of_int n);
          spent_max = !mx;
          jain;
          head_rounds_max = hr_max;
          head_rounds_mean =
            (if n = 0 then 0.0 else float_of_int hr_sum /. float_of_int n);
        }

(* The message fields a run reports; the routing state of a finished
   message is not an observable. *)
let msg_equal a b =
  a.born = b.born && a.src = b.src && a.dst = b.dst && a.outcome = b.outcome
  && a.end_round = b.end_round && a.hops = b.hops && a.retries = b.retries

let equal a b =
  a.n = b.n && a.last_round = b.last_round
  && a.stalls = b.stalls && a.reroutes = b.reroutes
  && a.invalidations = b.invalidations
  && Buf.equal msg_equal a.msgs b.msgs
  && Buf.equal Int.equal a.r_offered b.r_offered
  && Buf.equal Int.equal a.r_delivered b.r_delivered
  && Buf.equal Int.equal a.r_expired b.r_expired
  && Buf.equal Int.equal a.r_died b.r_died
  && Buf.equal Int.equal a.r_attempts b.r_attempts
  && Buf.equal Int.equal a.r_failures b.r_failures
  && Buf.equal Int.equal a.r_inflight b.r_inflight
  && Array.length a.batteries = Array.length b.batteries
  && (let eq = ref true in
      Array.iteri
        (fun i ba ->
          if Energy.charge ba <> Energy.charge b.batteries.(i) then eq := false)
        a.batteries;
      !eq)
  && a.head_rounds = b.head_rounds
