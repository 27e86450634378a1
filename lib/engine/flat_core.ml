(* The flat executor's round loop: the graph's own adjacency rows (one
   replaced where motion rewires it), a domain-sharded dirty frontier,
   and protocol steps driven through an ops record over opaque
   struct-of-arrays buffers. This module is the allocation-audited hot
   path — no per-round arrays, no linked structures; everything lives in
   preallocated int/byte planes reused across rounds (a grep lint in
   ./check enforces the discipline).

   Determinism at any domain count is by construction: a synchronous
   round splits into a parallel state phase (each node writes only its
   own planes and flag byte, reading the pre-round emission planes), a
   parallel emission-refresh phase, and a serial mark pass that counts
   changes and grows the next frontier in frontier order — no step ever
   observes another step's in-round output, so the shard partition is
   invisible. Sequential and random-order daemons are inherently serial
   walks and run on the submitting domain.

   The synchronous worklist is walked in a BFS order of the initial graph
   (the order the protocol's buffers lay their planes out in), so
   consecutive steps read neighbouring memory. The same argument makes
   the order invisible: no phase observes another node's in-round
   output, and the mark pass only orders the next worklist. *)

module Rng = Ss_prng.Rng
module Graph = Ss_topology.Graph
module Traversal = Ss_topology.Traversal
module Pool = Ss_stats.Pool

type 's ops = {
  step : 's -> Rng.key -> int -> int array -> int -> bool;
      (* scratch hkey node senders count -> state changed; the protocol
         derives node randomness from (hkey, node) lazily, so steps that
         draw nothing allocate no generator *)
  refresh : 's -> int -> bool; (* re-derive emission plane; changed? *)
  warm : int -> bool; (* pending time-based behavior *)
}

type 's t = {
  n : int;
  order : int array; (* rank -> node: BFS order of the creation graph *)
  rank : int array; (* node -> rank, the inverse *)
  rows : int array array; (* potential row of each node, sorted; shared *)
  live : bool array; (* shared with the orchestrator *)
  changed_at : int array; (* last state-change round; shared likewise *)
  written_at : int array; (* last round a step wrote the state; likewise *)
  mutable cur_bit : Bytes.t; (* frontier membership bits *)
  mutable cur : int array; (* frontier worklist, capacity n *)
  mutable cur_len : int;
  mutable nxt_bit : Bytes.t;
  mutable nxt : int array;
  mutable nxt_len : int;
  changed_bit : Bytes.t; (* per-node flags set by the parallel phases *)
  emitch_bit : Bytes.t;
  scratches : 's array; (* one per shard *)
  senders : int array array; (* per-shard gather buffer, grown on demand *)
  pool : Pool.t option;
  ops : 's ops;
}

let create ?pool ~ops ~scratches ~live ~changed_at ~written_at graph =
  let n = Graph.node_count graph in
  if Array.length live <> n then
    invalid_arg "Flat_core.create: live mask length mismatch";
  if Array.length changed_at <> n then
    invalid_arg "Flat_core.create: changed_at length mismatch";
  if Array.length written_at <> n then
    invalid_arg "Flat_core.create: written_at length mismatch";
  if Array.length scratches < 1 then
    invalid_arg "Flat_core.create: need at least one scratch";
  let order = Traversal.bfs_order graph in
  let rank = Array.make n 0 in
  for r = 0 to n - 1 do
    rank.(order.(r)) <- r
  done;
  {
    n;
    order;
    rank;
    rows = Array.init n (Graph.neighbors graph);
    live;
    changed_at;
    written_at;
    cur_bit = Bytes.make n '\000';
    cur = Array.make (max 1 n) 0;
    cur_len = 0;
    nxt_bit = Bytes.make n '\000';
    nxt = Array.make (max 1 n) 0;
    nxt_len = 0;
    changed_bit = Bytes.make n '\000';
    emitch_bit = Bytes.make n '\000';
    scratches;
    senders = Array.make (Array.length scratches) [||];
    pool;
    ops;
  }

let mark_now t p =
  if Bytes.unsafe_get t.cur_bit p = '\000' then begin
    Bytes.unsafe_set t.cur_bit p '\001';
    t.cur.(t.cur_len) <- p;
    t.cur_len <- t.cur_len + 1
  end

let mark_nxt t p =
  if Bytes.unsafe_get t.nxt_bit p = '\000' then begin
    Bytes.unsafe_set t.nxt_bit p '\001';
    t.nxt.(t.nxt_len) <- p;
    t.nxt_len <- t.nxt_len + 1
  end

let mark_all t =
  for p = 0 to t.n - 1 do
    mark_now t p
  done

let order t = t.order

let set_row t p row = t.rows.(p) <- row

let ensure_senders t s len =
  if Array.length t.senders.(s) < len then
    t.senders.(s) <- Array.make (max len ((2 * Array.length t.senders.(s)) + 8)) 0

(* Fill shard s's gather buffer with the nodes p hears this round:
   effective neighbors whose frame survives the channel plan, in
   ascending index order (graph rows are sorted). *)
let gather t s ~deliver ~has_down ~edge_down p =
  let row = t.rows.(p) in
  ensure_senders t s (Array.length row);
  let buf = t.senders.(s) in
  let k = ref 0 in
  for i = 0 to Array.length row - 1 do
    let q = Array.unsafe_get row i in
    if
      t.live.(q)
      && ((not has_down) || not (edge_down p q))
      && deliver ~src:q ~dst:p
    then begin
      buf.(!k) <- q;
      incr k
    end
  done;
  !k

(* A lossy channel disturbs a quiet node whenever an incident delivery
   decision flips between consecutive rounds; replay the previous round's
   plan (counter-keyed, hence reconstructible) against this round's over
   every unmarked live node. *)
let deliver_diff t ~deliver ~prev ~has_down ~edge_down =
  for p = 0 to t.n - 1 do
    if t.live.(p) && Bytes.unsafe_get t.cur_bit p = '\000' then begin
      let row = t.rows.(p) in
      let i = ref 0 and flipped = ref false in
      while (not !flipped) && !i < Array.length row do
        let q = Array.unsafe_get row !i in
        if
          t.live.(q)
          && ((not has_down) || not (edge_down p q))
          && deliver ~src:q ~dst:p <> prev ~src:q ~dst:p
        then flipped := true;
        incr i
      done;
      if !flipped then mark_now t p
    end
  done

(* An emission change disturbs every effective neighbor: next round
   always; this round too under in-order daemons (nodes behind in the
   schedule hear the new frame immediately). *)
let mark_audience t ~also_now ~has_down ~edge_down p =
  let row = t.rows.(p) in
  for i = 0 to Array.length row - 1 do
    let q = Array.unsafe_get row i in
    if t.live.(q) && ((not has_down) || not (edge_down p q)) then begin
      if also_now then mark_now t q;
      mark_nxt t q
    end
  done

(* Heap sort of [a.(0 .. len-1)], ascending, in place: no closure, no
   allocation. *)
let rec sift (a : int array) i len =
  let l = (2 * i) + 1 in
  if l < len then begin
    let c = if l + 1 < len && a.(l + 1) > a.(l) then l + 1 else l in
    let x = a.(i) in
    if a.(c) > x then begin
      a.(i) <- a.(c);
      a.(c) <- x;
      sift a c len
    end
  end

let heap_sort (a : int array) len =
  for i = (len / 2) - 1 downto 0 do
    sift a i len
  done;
  for last = len - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- x;
    sift a 0 last
  done

(* Put the worklist in rank order. A dense frontier is rebuilt by one
   scan of the order against the membership bits; a sparse one is mapped
   to ranks, heap-sorted and mapped back. *)
let order_frontier t =
  let k = t.cur_len and cur = t.cur in
  if 16 * k >= t.n then begin
    let j = ref 0 in
    for r = 0 to t.n - 1 do
      let p = Array.unsafe_get t.order r in
      if Bytes.unsafe_get t.cur_bit p = '\001' then begin
        cur.(!j) <- p;
        incr j
      end
    done
  end
  else begin
    for i = 0 to k - 1 do
      cur.(i) <- t.rank.(cur.(i))
    done;
    heap_sort cur k;
    for i = 0 to k - 1 do
      cur.(i) <- t.order.(cur.(i))
    done
  end

let step_sync t ~round ~deliver ~hkey ~has_down ~edge_down =
  order_frontier t;
  let shards = Array.length t.scratches in
  let run_phase f =
    match t.pool with
    | Some pool when shards > 1 && t.cur_len > 0 ->
        ignore (Pool.map pool shards f)
    | Some _ | None ->
        for s = 0 to shards - 1 do
          ignore (f s)
        done
  in
  (* Phase A: step every live frontier node against the pre-round
     emission planes. Writes are confined to the node's own state planes,
     its changed byte and its write stamp, so shards never conflict and
     the stamps are the same at any shard count. *)
  run_phase (fun s ->
      let lo = s * t.cur_len / shards and hi = (s + 1) * t.cur_len / shards in
      let sc = t.scratches.(s) in
      for i = lo to hi - 1 do
        let p = t.cur.(i) in
        if t.live.(p) then begin
          let count = gather t s ~deliver ~has_down ~edge_down p in
          if t.ops.step sc hkey p t.senders.(s) count then
            Bytes.unsafe_set t.changed_bit p '\001';
          t.written_at.(p) <- round
        end
      done);
  (* Phase B: re-derive emission planes from the stepped states. *)
  run_phase (fun s ->
      let lo = s * t.cur_len / shards and hi = (s + 1) * t.cur_len / shards in
      let sc = t.scratches.(s) in
      for i = lo to hi - 1 do
        let p = t.cur.(i) in
        if t.live.(p) && t.ops.refresh sc p then
          Bytes.unsafe_set t.emitch_bit p '\001'
      done);
  (* Serial mark pass in frontier order: count and stamp changes, re-arm
     changed and warm nodes, wake the audiences of changed emissions.
     Identical for every shard count, which is the whole determinism
     argument. *)
  let changed = ref 0 in
  for i = 0 to t.cur_len - 1 do
    let p = t.cur.(i) in
    if t.live.(p) then begin
      if Bytes.unsafe_get t.changed_bit p = '\001' then begin
        Bytes.unsafe_set t.changed_bit p '\000';
        incr changed;
        t.changed_at.(p) <- round;
        mark_nxt t p
      end;
      if Bytes.unsafe_get t.emitch_bit p = '\001' then begin
        Bytes.unsafe_set t.emitch_bit p '\000';
        mark_audience t ~also_now:false ~has_down ~edge_down p
      end;
      if t.ops.warm p then mark_nxt t p
    end
  done;
  !changed

(* Sequential / random-order daemons: a serial walk in schedule order;
   each step hears the live emission planes, so an in-round refresh is
   visible to the nodes behind it, exactly as in the reference walk. *)
let step_serial t ~round ~order ~deliver ~hkey ~has_down ~edge_down =
  let sc = t.scratches.(0) in
  let changed = ref 0 in
  let visit p =
    if Bytes.unsafe_get t.cur_bit p = '\001' && t.live.(p) then begin
      let count = gather t 0 ~deliver ~has_down ~edge_down p in
      if t.ops.step sc hkey p t.senders.(0) count then begin
        incr changed;
        t.changed_at.(p) <- round;
        mark_nxt t p
      end;
      t.written_at.(p) <- round;
      if t.ops.refresh sc p then
        mark_audience t ~also_now:true ~has_down ~edge_down p;
      if t.ops.warm p then mark_nxt t p
    end
  in
  (match order with
  | None ->
      for p = 0 to t.n - 1 do
        visit p
      done
  | Some perm -> Array.iter visit perm);
  !changed

let advance t =
  for i = 0 to t.cur_len - 1 do
    Bytes.unsafe_set t.cur_bit t.cur.(i) '\000'
  done;
  let bit = t.cur_bit and arr = t.cur in
  t.cur_bit <- t.nxt_bit;
  t.cur <- t.nxt;
  t.cur_len <- t.nxt_len;
  t.nxt_bit <- bit;
  t.nxt <- arr;
  t.nxt_len <- 0

let step_round t ~round ~scheduler ~deliver ~prev ~hkey ~perm ~has_down
    ~edge_down =
  (match prev with
  | Some prev -> deliver_diff t ~deliver ~prev ~has_down ~edge_down
  | None -> ());
  let changed =
    match scheduler with
    | Scheduler.Synchronous ->
        step_sync t ~round ~deliver ~hkey ~has_down ~edge_down
    | Scheduler.Sequential ->
        step_serial t ~round ~order:None ~deliver ~hkey ~has_down ~edge_down
    | Scheduler.Random_order -> (
        match perm with
        | None -> invalid_arg "Flat_core.step_round: Random_order needs ~perm"
        | Some _ ->
            step_serial t ~round ~order:perm ~deliver ~hkey ~has_down
              ~edge_down)
  in
  advance t;
  changed
