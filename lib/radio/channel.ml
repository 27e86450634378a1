(* The paper abstracts CSMA/CA to a single constant: a frame transmission
   avoids collision with probability at least tau, independently across
   frames (a memoryless Markov assumption, Section 4). The channel model
   decides, per (sender, receiver) pair within one Δ(τ) step, whether the
   locally broadcast frame is delivered.

   Besides the paper's Bernoulli abstraction, [Slotted] implements an
   explicit contention model from which tau emerges instead of being
   assumed: each node transmits in a uniformly chosen slot; a receiver
   loses a frame when it is itself transmitting in that slot or when
   another of its radio neighbors picked the same slot (a collision at the
   receiver, hidden terminals included since contention is evaluated in the
   receiver's neighborhood).

   Two models break the memoryless-symmetric assumption deliberately, for
   the adversary experiments:

   - [Asymmetric] gives every *directed* pair its own delivery
     probability, drawn once per ordered (src, dst) from a channel-owned
     key — links where p hears q but q barely hears p, the real-radio
     regime the paper's symmetric-tau proof does not cover.

   - [Bursty] is a Gilbert-Elliott good/bad chain per directed pair:
     delivery probability tau_good in the good state, tau_bad in the bad
     state, with per-round fade/recover transitions. The chain state at
     round r is a pure function of (chain key, src, dst, r): rounds are
     cut into fixed epochs, each epoch starts from a keyed stationary
     draw, and the state within the epoch is located by walking keyed
     geometric sojourn lengths — so any round's state (and hence any
     round's plan) is reconstructible without simulating the chain from
     round zero, which is what keeps the sparse executor's delivery-diff
     replay valid.

   All sampling is counter-keyed: every loss decision is a pure function of
   (round key, src, dst) (plus, for [Bursty], the chain state, itself a
   pure function of (chain key, src, dst, round)) and every slot draw of
   (round key, node), through Rng.subkey / Rng.key_* only — never a
   sequential draw from a shared generator. This makes the delivery
   pattern independent of which pairs are queried and in what order, which
   is what lets the sparse executor skip quiet nodes without perturbing
   anyone's losses, and lets any round's plan be re-evaluated after the
   fact (the previous round's plan is reconstructible from its key and
   round number). *)

module Graph = Ss_topology.Graph
module Rng = Ss_prng.Rng

type t =
  | Perfect
  | Bernoulli of float
  | Jammed of { tau : float; region : Ss_geom.Bbox.t; jam_tau : float }
  | Slotted of { slots : int }
  | Asymmetric of { link_key : Rng.key; tau_lo : float; tau_hi : float }
  | Bursty of {
      chain_key : Rng.key;
      tau_good : float;
      tau_bad : float;
      p_fade : float; (* good -> bad per round *)
      p_recover : float; (* bad -> good per round *)
    }

let perfect = Perfect

let bernoulli tau =
  if tau < 0.0 || tau > 1.0 then invalid_arg "Channel.bernoulli: tau out of range";
  if tau = 1.0 then Perfect else Bernoulli tau

let jammed ~tau ~region ~jam_tau =
  if tau < 0.0 || tau > 1.0 then invalid_arg "Channel.jammed: tau out of range";
  if jam_tau < 0.0 || jam_tau > 1.0 then
    invalid_arg "Channel.jammed: jam_tau out of range";
  Jammed { tau; region; jam_tau }

let slotted ~slots =
  if slots < 1 then invalid_arg "Channel.slotted: need at least one slot";
  Slotted { slots }

let asymmetric ~seed ~tau_lo ~tau_hi =
  if tau_lo < 0.0 || tau_hi > 1.0 || tau_lo > tau_hi then
    invalid_arg "Channel.asymmetric: need 0 <= tau_lo <= tau_hi <= 1";
  Asymmetric { link_key = Rng.key ~seed; tau_lo; tau_hi }

let bursty ~seed ~tau_good ~tau_bad ~p_fade ~p_recover =
  let in_unit x = x >= 0.0 && x <= 1.0 in
  if not (in_unit tau_good && in_unit tau_bad) then
    invalid_arg "Channel.bursty: tau out of range";
  if not (in_unit p_fade && in_unit p_recover) then
    invalid_arg "Channel.bursty: transition probability out of range";
  if p_fade +. p_recover <= 0.0 then
    invalid_arg "Channel.bursty: p_fade + p_recover must be positive";
  Bursty { chain_key = Rng.key ~seed; tau_good; tau_bad; p_fade; p_recover }

let[@inline always] stationary_bad ~p_fade ~p_recover =
  p_fade /. (p_fade +. p_recover)

let tau = function
  | Perfect -> 1.0
  | Bernoulli tau -> tau
  | Jammed { tau; _ } -> tau
  | Slotted { slots } ->
      (* An indication, not a delivery probability: (slots-1)/slots is the
         no-clash chance against a single competitor (exact only for an
         isolated pair); every further contending neighbor lowers the
         realized rate below this. *)
      float_of_int (slots - 1) /. float_of_int slots
  | Asymmetric { tau_lo; tau_hi; _ } ->
      (* Indication: the per-direction rates are spread uniformly over
         [tau_lo, tau_hi]; the midpoint is the population mean. *)
      0.5 *. (tau_lo +. tau_hi)
  | Bursty { tau_good; tau_bad; p_fade; p_recover; _ } ->
      (* Indication: the stationary mean over the good/bad chain. Realized
         per-window rates swing between tau_bad and tau_good. *)
      let pi_bad = stationary_bad ~p_fade ~p_recover in
      ((1.0 -. pi_bad) *. tau_good) +. (pi_bad *. tau_bad)

let deterministic = function
  | Perfect -> true
  | Bernoulli _ | Jammed _ | Slotted _ | Asymmetric _ | Bursty _ -> false

let position_dependent = function
  | Jammed _ -> true
  | Perfect | Bernoulli _ | Slotted _ | Asymmetric _ | Bursty _ -> false

(* Key lanes. Per-edge decisions live under (key, src, dst); per-node slot
   draws under (key, node). The two never coexist within one channel kind,
   but distinct lane tags keep them disjoint anyway. The asymmetric and
   bursty models additionally draw from a channel-owned key (per-direction
   tau, chain state) that must be stable across rounds, so it cannot come
   from the per-round key. *)
let edge_lane key = Rng.subkey key 0
let slot_key key node = Rng.subkey (Rng.subkey key 1) node

(* The uniform [Rng.key_unit] draws from the same key, rebuilt from its
   53 bits: the keyed helpers below return ints, so no draw here boxes a
   float or an int64 (beyond one epoch key per bursty decision). *)
let[@inline always] unit_of_bits bits =
  float_of_int bits *. (1.0 /. 9007199254740992.0)

let[@inline always] lerp_tau link_key tau_lo tau_hi src dst =
  tau_lo
  +. ((tau_hi -. tau_lo) *. unit_of_bits (Rng.key_pair_bits link_key src dst))

let directional_tau t ~src ~dst =
  match t with
  | Asymmetric { link_key; tau_lo; tau_hi } ->
      lerp_tau link_key tau_lo tau_hi src dst
  | Perfect | Bernoulli _ | Jammed _ | Slotted _ | Bursty _ -> tau t

(* Gilbert-Elliott chain state (true = bad), pure in (chain key, src, dst,
   round). Rounds are cut into fixed-length epochs; each epoch opens with
   a stationary draw and the state inside it is found by accumulating
   keyed geometric sojourn lengths until they cover the queried offset —
   at most [ge_epoch] iterations, each consuming one key derivation. The
   epoch renewal slightly shortens cross-epoch bursts; sojourn means well
   below [ge_epoch] keep the distortion negligible (documented in the
   interface). *)
let ge_epoch = 64

let bursty_bad t ~src ~dst ~round =
  match t with
  | Bursty { chain_key; p_fade; p_recover; _ } ->
      if round < 0 then invalid_arg "Channel.bursty_bad: negative round";
      let epoch = round / ge_epoch in
      let offset = round mod ge_epoch in
      let ekey = Rng.key_triple chain_key src dst epoch in
      let bad =
        ref
          (unit_of_bits (Rng.key_sub_bits ekey 0)
          < stationary_bad ~p_fade ~p_recover)
      in
      let covered = ref 0 and i = ref 1 and settled = ref false in
      while not !settled do
        let exit_p = if !bad then p_recover else p_fade in
        if exit_p <= 0.0 then
          (* absorbing for the rest of the epoch *)
          settled := true
        else begin
          let u = unit_of_bits (Rng.key_sub_bits ekey !i) in
          (* Geometric sojourn >= 1: rounds spent in [bad] before the
             next transition fires. *)
          let sojourn =
            if exit_p >= 1.0 then 1
            else
              let l =
                1.0 +. Float.floor (Float.log1p (-.u) /. Float.log1p (-.exit_p))
              in
              if l >= float_of_int ge_epoch then ge_epoch else int_of_float l
          in
          if offset < !covered + sojourn then settled := true
          else begin
            bad := not !bad;
            covered := !covered + sojourn;
            incr i
          end
        end
      done;
      !bad
  | Perfect | Bernoulli _ | Jammed _ | Slotted _ | Asymmetric _ ->
      invalid_arg "Channel.bursty_bad: not a bursty channel"

(* Every per-edge decision below is [Rng.key_pair_bernoulli] under the
   plan's edge lane (or, for [Asymmetric], its bits), which allocates
   nothing per call; a bursty decision boxes one epoch key. *)
let round_plan t ~key ~round ~graph =
  let lane = edge_lane key in
  match t with
  | Perfect -> fun ~src:_ ~dst:_ -> true
  | Bernoulli tau -> fun ~src ~dst -> Rng.key_pair_bernoulli lane src dst tau
  | Jammed { tau; region; jam_tau } ->
      (* A jammed region is meaningless on a graph without geometry; a
         silent fallback to plain [tau] would make the jam a no-op, so the
         mismatch is an error at plan time, not per frame. *)
      (match Graph.positions graph with
      | None ->
          invalid_arg
            "Channel.round_plan: Jammed channel needs node positions \
             (build the graph with ~positions)"
      | Some pos ->
          fun ~src ~dst ->
            let effective =
              if Ss_geom.Bbox.contains region pos.(dst) then jam_tau else tau
            in
            Rng.key_pair_bernoulli lane src dst effective)
  | Slotted { slots } ->
      (* Slot assignments are memoized per plan: repeated queries cost
         O(deg dst) collision checks, not a key derivation per neighbor
         each time. A slot is still a pure function of (key, node), so
         partial queries agree with full ones. *)
      let n = Graph.node_count graph in
      let slot_memo = Array.make n (-1) in
      let slot p =
        let s = slot_memo.(p) in
        if s >= 0 then s
        else begin
          let s = Rng.key_int (slot_key key p) slots in
          slot_memo.(p) <- s;
          s
        end
      in
      fun ~src ~dst ->
        slot dst <> slot src
        && Array.for_all
             (fun r -> r = src || slot r <> slot src)
             (Graph.neighbors graph dst)
  | Asymmetric { link_key; tau_lo; tau_hi } ->
      (* [key_pair_bernoulli lane src dst tau] with the directional tau
         kept unboxed: a uniform in [0, 1) is below tau exactly when the
         helper's edge cases (tau <= 0, tau >= 1) say so. *)
      fun ~src ~dst ->
        unit_of_bits (Rng.key_pair_bits lane src dst)
        < lerp_tau link_key tau_lo tau_hi src dst
  | Bursty { tau_good; tau_bad; _ } ->
      fun ~src ~dst ->
        let effective =
          if bursty_bad t ~src ~dst ~round then tau_bad else tau_good
        in
        Rng.key_pair_bernoulli lane src dst effective

let pp ppf = function
  | Perfect -> Fmt.string ppf "perfect"
  | Bernoulli tau -> Fmt.pf ppf "bernoulli(tau=%.3f)" tau
  | Jammed { tau; jam_tau; region } ->
      Fmt.pf ppf "jammed(tau=%.3f, jam_tau=%.3f, region=%a)" tau jam_tau
        Ss_geom.Bbox.pp region
  | Slotted { slots } -> Fmt.pf ppf "slotted(%d)" slots
  | Asymmetric { tau_lo; tau_hi; _ } ->
      Fmt.pf ppf "asymmetric(tau=%.2f..%.2f)" tau_lo tau_hi
  | Bursty { tau_good; tau_bad; p_fade; p_recover; _ } ->
      Fmt.pf ppf "bursty(good=%.2f, bad=%.2f, fade=%.3f, rec=%.3f)" tau_good
        tau_bad p_fade p_recover
