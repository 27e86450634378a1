(* Message-level implementation of the whole stack of the paper:

     - neighbor discovery through periodic local broadcast (the shared
       variable propagation scheme of Herman-Tixeuil);
     - N1 name resolution (Section 4.1), running continuously;
     - density computation R1 from the claimed neighbor tables (step 2 of
       Table 2);
     - cluster-head election R2, with the Section 4.3 refinements, from
       cached neighbor values (steps 3+ of Table 2).

   Every piece recomputes from the frames actually heard; cached entries
   expire after [cache_ttl] rounds without refresh, which is what makes the
   protocol self-stabilizing: arbitrary corrupt state drains out of the
   caches within the TTL and is replaced by fresh observations. *)

module Graph = Ss_topology.Graph
module Rng = Ss_prng.Rng

type params = {
  algo : Config.t;
  ids : int array option; (* global ids; defaults to the node index *)
  cache_ttl : int; (* rounds a cache entry survives without refresh *)
}

let default_params = { algo = Config.basic; ids = None; cache_ttl = 3 }

type summary = {
  s_node : int;
  s_density : Density.t option;
  s_eff : int;
  s_is_head : bool;
}

type message = {
  m_node : int;
  m_gid : int;
  m_dag : int;
  m_density : Density.t option;
  m_head : int option;
  m_nbrs : summary array; (* sorted by s_node *)
}

type entry = {
  e_heard : int; (* receiver clock at last refresh *)
  e_gid : int;
  e_dag : int;
  e_density : Density.t option;
  e_head : int option;
  e_nbrs : int array; (* the neighbor's claimed neighbor indices, sorted *)
}

type far_entry = {
  f_heard : int;
  f_density : Density.t option;
  f_eff : int;
  f_is_head : bool;
}

type state = {
  clock : int;
  gamma : int;
  gid : int;
  dag : int;
  density : Density.t option;
  parent : int option;
  head : int option;
  cache : (int * entry) list; (* 1-hop cache, sorted by node index *)
  far : (int * far_entry) list; (* 2-hop cache, sorted by node index *)
}

module Make (P : sig
  val params : params
end) =
struct
  let params = P.params
  let algo = params.algo

  type nonrec state = state

  type nonrec message = message

  let gid_of graph p =
    match params.ids with
    | None -> p
    | Some ids ->
        if Array.length ids <> Graph.node_count graph then
          invalid_arg "Distributed: ids length mismatch";
        ids.(p)

  let init rng graph p =
    let gamma = Gamma.size algo.Config.gamma graph in
    {
      clock = 0;
      gamma;
      gid = gid_of graph p;
      dag = Rng.int rng gamma;
      density = None;
      parent = None;
      head = None;
      cache = [];
      far = [];
    }

  let ttl = params.cache_ttl

  let () =
    if ttl < 0 then
      invalid_arg
        (Printf.sprintf "Distributed.Make: cache_ttl must be >= 0 (got %d)" ttl)

  (* [q] heads itself in [e], the entry q's own frame refreshed. *)
  let self_head q e = match e.e_head with Some h -> h = q | None -> false

  let summary (q, e) =
    {
      s_node = q;
      s_density = e.e_density;
      s_eff = (if algo.Config.use_dag_names then e.e_dag else e.e_gid);
      s_is_head = self_head q e;
    }

  let rec fill_summaries a i = function
    | [] -> ()
    | pair :: rest ->
        a.(i) <- summary pair;
        fill_summaries a (i + 1) rest

  (* The relayed summaries, written straight into their array. *)
  let summaries = function
    | [] -> [||]
    | pair :: rest as cache ->
        let a = Array.make (List.length cache) (summary pair) in
        fill_summaries a 1 rest;
        a

  let emit _graph p st =
    {
      m_node = p;
      m_gid = st.gid;
      m_dag = st.dag;
      m_density = st.density;
      m_head = st.head;
      m_nbrs = summaries st.cache;
    }

  (* --- cache refresh. Both caches are rebuilt from the frames heard
     and merged over the old lists (canonically sorted by node index with
     unique keys, so polymorphic equality detects fixpoints). Among the
     fresh claims for one key the latest received wins: a later frame's,
     or a later summary's in the same frame. An old entry the merge passes
     is kept while live ([clock - heard <= ttl]); an old entry for a fresh
     key is replaced. The merges read the frames in place, which needs
     them in key order: the executors deliver senders ascending and every
     emission relays its summaries ascending (a forgery keeps the honest
     order). Only out-of-order frames (built by hand, or emitted from a
     hand-built state) go through [sorted_copy]; an out-of-order old list
     is merged as it stands. *)

  (* The one normaliser: a stably sorted copy, so equal keys keep their
     order of reception and the received values are never touched. *)
  let sorted_copy key a =
    let a = Array.copy a in
    Array.stable_sort (fun x y -> Int.compare (key x) (key y)) a;
    a

  let rec keys_ascending = function
    | ((p : int), _) :: ((q, _) :: _ as rest) ->
        p <= q && keys_ascending rest
    | [ _ ] | [] -> true

  let rec summaries_ascending a i =
    i >= Array.length a
    || (a.(i - 1).s_node <= a.(i).s_node && summaries_ascending a (i + 1))

  (* The live old entries; the list itself when all of it is live. *)
  let rec live heard clock = function
    | [] -> []
    | ((_, e) as pair) :: rest as l ->
        let rest' = live heard clock rest in
        if clock - heard e > ttl then rest'
        else if rest' == rest then l
        else pair :: rest'

  let rec same_claims old s i =
    i >= Array.length s || (old.(i) = s.(i).s_node && same_claims old s (i + 1))

  (* The claims [m] carries; [old]'s array when they are the same, so a
     steady neighbor's entry shares it round after round. *)
  let claims m old =
    let s = m.m_nbrs in
    if Array.length old = Array.length s && same_claims old s 0 then old
    else Array.map (fun x -> x.s_node) s

  let entry clock m e_nbrs =
    {
      e_heard = clock;
      e_gid = m.m_gid;
      e_dag = m.m_dag;
      e_density = m.m_density;
      e_head = m.m_head;
      e_nbrs;
    }

  let rec cache_go clock fresh old =
    match fresh with
    | [] -> live (fun e -> e.e_heard) clock old
    | (q, m) :: rest -> (
        match rest with
        | (q', _) :: _ when q' = q -> cache_go clock rest old
        | _ -> cache_put clock q m rest old)

  and cache_put clock (q : int) m rest old =
    match old with
    | ((k, e) as pair) :: tail when k < q ->
        if clock - e.e_heard <= ttl then pair :: cache_put clock q m rest tail
        else cache_put clock q m rest tail
    | (k, e) :: tail when k = q ->
        (q, entry clock m (claims m e.e_nbrs)) :: cache_go clock rest tail
    | _ -> (q, entry clock m (claims m [||])) :: cache_go clock rest old

  let refresh_cache clock cache msgs =
    let fresh =
      if keys_ascending msgs then msgs
      else Array.to_list (sorted_copy fst (Array.of_list msgs))
    in
    cache_go clock fresh cache

  (* The relayed summaries of every frame, merged k-way. [frames] are in
     reception order, each ascending by key; frame i's cursor is pos.(i)
     and the key under it heads.(i), or [exhausted] once the cursor is
     past the end. The next fresh key is the smallest under any cursor,
     and the latest frame holding it wins with the last summary of its run
     there: [next_fresh] finds that key and the frames holding it, in
     [hits], in one pass over [heads]; it moves only those cursors past
     the key and returns the winning frame, whose summary is then at its
     pos - 1; -1 once every frame is exhausted. *)
  type merge = {
    frames : summary array array;
    pos : int array;
    heads : int array;
    hits : int array;
  }

  (* A key may equal the mark: only a minimum equal to it needs the
     frames' lengths to tell a real key from an exhausted cursor. *)
  let exhausted = max_int

  let advance mg i v =
    let f = mg.frames.(i) in
    let j = ref (mg.pos.(i) + 1) in
    while !j < Array.length f && f.(!j).s_node = v do
      incr j
    done;
    mg.pos.(i) <- !j;
    mg.heads.(i) <- (if !j < Array.length f then f.(!j).s_node else exhausted)

  (* The hits, among the first [n], whose cursor is in its frame, moved to
     the front; their count. *)
  let rec live_hits mg n i kept =
    if i >= n then kept
    else
      let h = mg.hits.(i) in
      if mg.pos.(h) < Array.length mg.frames.(h) then begin
        mg.hits.(kept) <- h;
        live_hits mg n (i + 1) (kept + 1)
      end
      else live_hits mg n (i + 1) kept

  let next_fresh mg =
    let heads = mg.heads and hits = mg.hits in
    let v = ref exhausted and n = ref 0 in
    for i = 0 to Array.length heads - 1 do
      let h = heads.(i) in
      if h < !v then begin
        v := h;
        hits.(0) <- i;
        n := 1
      end
      else if h = !v then begin
        hits.(!n) <- i;
        incr n
      end
    done;
    let n = if !v = exhausted then live_hits mg !n 0 0 else !n in
    for t = 0 to n - 1 do
      advance mg hits.(t) !v
    done;
    if n = 0 then -1 else hits.(n - 1)

  let far_entry clock s =
    {
      f_heard = clock;
      f_density = s.s_density;
      f_eff = s.s_eff;
      f_is_head = s.s_is_head;
    }

  let far_heard f = f.f_heard

  let rec far_go self clock mg old =
    let w = next_fresh mg in
    if w < 0 then live far_heard clock old
    else
      let s = mg.frames.(w).(mg.pos.(w) - 1) in
      if s.s_node = self then far_go self clock mg old
      else far_put self clock mg s old

  and far_put self clock mg s old =
    match old with
    | ((k, f) as pair) :: tail when k < s.s_node ->
        if clock - f.f_heard <= ttl then pair :: far_put self clock mg s tail
        else far_put self clock mg s tail
    | (k, _) :: tail when k = s.s_node ->
        (k, far_entry clock s) :: far_go self clock mg tail
    | _ -> (s.s_node, far_entry clock s) :: far_go self clock mg old

  let summary_node s = s.s_node

  let rec fill_frames mg i = function
    | [] -> ()
    | (_, m) :: rest ->
        let a = m.m_nbrs in
        let a =
          if summaries_ascending a 1 then a else sorted_copy summary_node a
        in
        mg.frames.(i) <- a;
        if Array.length a > 0 then mg.heads.(i) <- a.(0).s_node;
        fill_frames mg (i + 1) rest

  let rec frame_count k = function
    | [] -> k
    | _ :: rest -> frame_count (k + 1) rest

  let refresh_far ~self clock far msgs =
    let k = frame_count 0 msgs in
    let mg =
      {
        frames = Array.make k [||];
        pos = Array.make k 0;
        heads = Array.make k exhausted;
        hits = Array.make k 0;
      }
    in
    fill_frames mg 0 msgs;
    far_go self clock mg far

  (* --- R1: entry q's claims r > q that are cache keys. When the keys
     and every entry's claims are ascending, which every emission gives,
     the keys above q are among the entries after q and the claims meet
     them in one merge; any other order (hand-built states only) goes to
     Density.of_local_view, the definition. *)
  let rec among_after (q : int) (claims : int array) i after acc =
    if i >= Array.length claims then acc
    else
      let r = claims.(i) in
      if r <= q then among_after q claims (i + 1) after acc
      else
        match after with
        | [] -> acc
        | (k, _) :: rest when k < r -> among_after q claims i rest acc
        | (k, _) :: _ ->
            among_after q claims (i + 1) after (if k = r then acc + 1 else acc)

  let rec among acc = function
    | [] -> acc
    | (q, e) :: rest -> among (among_after q e.e_nbrs 0 rest acc) rest

  let rec claims_ascending (a : int array) i =
    i >= Array.length a || (a.(i - 1) <= a.(i) && claims_ascending a (i + 1))

  let rec view_ascending = function
    | [] -> true
    | ((q : int), e) :: rest ->
        claims_ascending e.e_nbrs 1
        && (match rest with (q', _) :: _ -> q <= q' | [] -> true)
        && view_ascending rest

  (* [prev] itself when the density did not change. *)
  let density_of prev cache =
    let nodes = List.length cache in
    let links =
      if view_ascending cache then nodes + among 0 cache
      else
        Density.links
          (Density.of_local_view
             ~neighbors:(Array.of_list (List.map fst cache))
             ~tables:(List.map (fun (q, e) -> (q, e.e_nbrs)) cache))
    in
    match prev with
    | Some d when Density.links d = links && Density.nodes d = nodes -> prev
    | Some _ | None -> Some (Density.make ~links ~nodes)

  let put_density c i = function
    | None ->
        c.(i) <- -1;
        c.(i + 1) <- 0
    | Some d ->
        c.(i) <- Density.links d;
        c.(i + 1) <- Density.nodes d

  (* The flat rows of a typed state, written as plain recursion so that
     packing allocates nothing: the ints a cache list takes, its entries
     written from offset [u], the far entries from offset [o]. [pack]
     writes a node's rows with them, and [handle] the kernel's tables. *)
  let rec cache_ints acc = function
    | [] -> acc
    | (_, e) :: rest -> cache_ints (acc + 8 + Array.length e.e_nbrs) rest

  let rec pack_cache c u = function
    | [] -> ()
    | (q, e) :: rest ->
        c.(u) <- q;
        c.(u + 1) <- e.e_heard;
        c.(u + 2) <- e.e_gid;
        c.(u + 3) <- e.e_dag;
        put_density c (u + 4) e.e_density;
        c.(u + 6) <- (match e.e_head with None -> -1 | Some v -> v);
        let nbrs = e.e_nbrs in
        let nlen = Array.length nbrs in
        c.(u + 7) <- nlen;
        (* a loop, not [Array.blit]: see DESIGN §12, Hot-path economics *)
        for i = 0 to nlen - 1 do
          c.(u + 8 + i) <- nbrs.(i)
        done;
        pack_cache c (u + 8 + nlen) rest

  let rec pack_far f o = function
    | [] -> ()
    | (q, fe) :: rest ->
        f.(o) <- q;
        f.(o + 1) <- fe.f_heard;
        put_density f (o + 2) fe.f_density;
        f.(o + 4) <- fe.f_eff;
        f.(o + 5) <- (if fe.f_is_head then 1 else 0);
        pack_far f (o + 6) rest

  let rec claims v (a : int array) i stop =
    i < stop && (a.(i) = v || claims v a (i + 1) stop)

  (* --- N1 over the cache row [c.(pos .. cend)]: the node re-picks its
     name [dag] when a neighbor holds it with a larger global id (ties
     on gid broken by node index, for progress under corrupted duplicate
     ids), excluding every name in [0, gamma) the row holds; the pick
     is Elect's. The typed handle and the flat step share both. *)
  let rec loses ~node ~gid ~dag c pos cend =
    pos < cend
    && ((c.(pos + 3) = dag
        && (gid < c.(pos + 2) || (gid = c.(pos + 2) && node < c.(pos))))
       || loses ~node ~gid ~dag c (pos + 8 + c.(pos + 7)) cend)

  let exclude names gamma c cb cend =
    Array.fill names 0 gamma 0;
    let pos = ref cb in
    while !pos < cend do
      let d = c.(!pos + 3) in
      if d >= 0 && d < gamma then names.(d) <- 1;
      pos := !pos + 8 + c.(!pos + 7)
    done

  let resolve_dag rng ~node st c =
    let stop = Array.length c in
    if
      not
        (algo.Config.use_dag_names
        && loses ~node ~gid:st.gid ~dag:st.dag c 0 stop)
    then st.dag
    else begin
      let names = Array.make st.gamma 0 in
      exclude names st.gamma c 0 stop;
      Elect.free_name rng ~gamma:st.gamma ~current:st.dag names
    end

  (* --- R2 through the kernel (Elect). Past [Elect.first], both paths
     run the fusion stages over a cache row [c.(cb .. cend)] and a far
     table: a bridge is an entry whose claims hold the dominating head. *)
  let fuse_stages ~links ~nodes ~eff ~inc c cb cend f fo flen bridges =
    let tie = algo.Config.tie in
    let v = Elect.dominating ~tie ~links ~nodes ~eff ~inc f fo flen in
    if v < 0 then v
    else begin
      let pos = ref cb and i = ref 0 in
      while !pos < cend do
        let next = !pos + 8 + c.(!pos + 7) in
        bridges.(!i) <- (if claims f.(v) c (!pos + 8) next then 1 else 0);
        pos := next;
        incr i
      done;
      Elect.bridge ~tie ~dag:algo.Config.use_dag_names c cb cend bridges
    end

  (* R2 over [rows], the cache packed by [handle]; the far table and
     the flags are built only when the kernel reaches the stages that
     read them. [Elect.hold], [Elect.own], or the offset in [rows] of
     the entry to join. *)
  let elect rows ~node ~dag ~density st cache far =
    let use_dag = algo.Config.use_dag_names in
    let links = match density with Some d -> Density.links d | None -> -1
    and nodes = match density with Some d -> Density.nodes d | None -> 0 in
    let eff = if use_dag then dag else st.gid in
    let inc = match st.head with Some h -> h = node | None -> false in
    let stop = Array.length rows in
    let r =
      Elect.first ~tie:algo.Config.tie ~dag:use_dag ~fusion:algo.Config.fusion
        ~links ~nodes ~eff ~inc rows 0 stop
    in
    if r <> Elect.fuse then r
    else begin
      let len = List.length far in
      let f = Array.make (6 * len) 0 in
      pack_far f 0 far;
      fuse_stages ~links ~nodes ~eff ~inc rows 0 stop f 0 len
        (Array.make (List.length cache) 0)
    end

  (* [prev] itself when it already holds [v]. *)
  let keep_some prev (v : int) =
    match prev with Some u when u = v -> prev | Some _ | None -> Some v

  let handle rng _graph node st msgs =
    let clock = st.clock + 1 in
    let cache = refresh_cache clock st.cache msgs in
    let far = refresh_far ~self:node clock st.far msgs in
    (* the cache as flat rows, for N1 and the election *)
    let rows = Array.make (cache_ints 0 cache) 0 in
    pack_cache rows 0 cache;
    let dag = resolve_dag rng ~node st rows in
    let density = density_of st.density cache in
    let r = elect rows ~node ~dag ~density st cache far in
    let parent =
      if r = Elect.hold then st.parent
      else keep_some st.parent (if r = Elect.own then node else rows.(r))
    and head =
      if r = Elect.hold then st.head
      else keep_some st.head (if r = Elect.own then node else rows.(r + 6))
    in
    { st with clock; cache; far; dag; density; parent; head }

  let equal_state (a : state) (b : state) =
    (* Quiescence is judged on the protocol's outputs — the shared variables
       of the paper (name, density, parent, head). Cache bookkeeping churns
       on every round (heard-at stamps, refreshes, expiry under a lossy
       channel) without that meaning instability. Callers measuring
       stabilization should require several quiet rounds (more than the
       cache TTL) since in-flight relays can leave one output-quiet round
       in the middle of convergence. *)
    a.dag = b.dag
    && a.density = b.density
    && a.parent = b.parent
    && a.head = b.head

  (* ------------------------------------------------------- flat plane *)

  (* Struct-of-arrays mirror of [state] for the Ss_engine.Flat executor.
     Per-node strided int rows, each a slice of its plane's arena (see
     [alloc]) starting at the row's offset:

       cache row   entries ascending by neighbor index, variable stride:
                   [q; heard; gid; dag; dens_links; dens_nodes; head;
                    nlen; nbr_0 .. nbr_{nlen-1}]
       far row     entries ascending, stride 6:
                   [q; heard; dens_links; dens_nodes; eff; is_head]
       em_nbrs row emitted relay summaries ascending, stride 5:
                   [s_node; dens_links; dens_nodes; eff; is_head]
       em          emitted frame scalars, stride 6 per node:
                   [gid; dag; dens_links; dens_nodes; head; len] — one
                   interleaved plane so a gathering neighbor touches one
                   cache line, not six; len -1 = poisoned

     Option encodings: density None -> (-1, 0) (real densities have
     links >= 0 by Density.make); parent/head None -> -1 (real values are
     node indices or corrupt draws, always >= 0). Both are injective over
     every reachable and every [corrupt]-produced state, so integer
     equality on the planes coincides with structural equality on the
     typed fields — which is what makes [step]'s change report and
     [refresh_emit]'s frame comparison exact mirrors of [equal_state] and
     the sparse executor's message compare. *)
  module Flat = struct
    type buffers = {
      n : int;
      slot : int array;
          (* node -> rank in a BFS order of the alloc graph: every
             node-indexed plane below holds node p at index [slot.(p)] *)
      clock : int array;
      gamma : int array;
      gid : int array;
      dag : int array;
      dens_l : int array; (* -1 = None *)
      dens_n : int array;
      parent : int array; (* -1 = None *)
      head : int array; (* -1 = None *)
      cache : int array array;
          (* per slot: the array holding its row, the plane's arena or,
             once the row outgrew its slice, one of its own (see [room]) *)
      cache_off : int array; (* where the row starts in cache.(sp) *)
      cache_cap : int array; (* ints the row may use from its offset *)
      cache_used : int array; (* ints used in the cache row *)
      cache_cnt : int array; (* entries in the cache row *)
      far : int array array;
      far_off : int array;
      far_cap : int array;
      far_len : int array; (* entries in the far row *)
      em : int array; (* interleaved frame scalars, stride 6 *)
      em_nbrs : int array array;
      em_off : int array;
      em_cap : int array;
      minh : int array; (* min heard stamp across cache+far; max_int = none *)
      claims_memo : int array array;
          (* per emitter q: the claimed neighborhood [unpack] last built
             for q, shared by every entry holding equal claims *)
      dens_memo : Density.t option array;
          (* per node v: the [Some density] [unpack] last built for v *)
      some_memo : int option array;
          (* per index h: the one [Some h], built on first use *)
      entry_memo : (int * entry) array;
          (* per key q, [ways] slots from [ways * q]: the [(q, entry)]
             pairs [unpack] built, shared by every holder whose entry for
             q equals one of them; key -1 marks an empty slot *)
      far_memo : (int * far_entry) array; (* the same for far entries *)
    }

    type scratch = {
      mutable cbuf : int array; (* next cache image *)
      mutable fbuf : int array; (* next far image *)
      mutable fkeys : int array; (* far keys new to the plane, then sorted *)
      mutable fsrc : int array; (* per new key: the winning sender's slot *)
      mutable foff : int array; (* and its summary offset in em_nbrs *)
      mutable owin : int array;
          (* per old far entry: the winning sender's slot, -1 = none
             sighted *)
      mutable ooff : int array; (* and its summary offset in em_nbrs *)
      marks : int array;
          (* node-indexed stamp plane: [tok lsl slot_bits lor slot] marks
             "seen in the current use", so the plane is never cleared *)
      mutable tok : int; (* token of the current use, bumped per use *)
      mutable names : int array; (* N1's exclusion plane, gamma-sized *)
      mutable bridges : int array; (* per cache entry: claims the head *)
    }

    (* Slots per key of [entry_memo] and [far_memo]; DESIGN §12 gives
       the measurements behind the number. *)
    let ways = 4

    (* What an empty slot holds: a pair with key -1. *)
    let no_entry =
      ( -1,
        {
          e_heard = 0;
          e_gid = 0;
          e_dag = 0;
          e_density = None;
          e_head = None;
          e_nbrs = [||];
        } )

    let no_far =
      (-1, { f_heard = 0; f_density = None; f_eff = 0; f_is_head = false })

    (* Each row starts at the size a converged node needs on [graph]:
       one cache entry per neighbor q carrying q's whole neighbor list,
       one far entry per distinct key within two hops, one summary per
       neighbor. The rows of a plane are slices of one arena, laid out in
       slot order, so neighbouring slots' rows are adjacent and a cold
       start allocates three arrays instead of three per node. Sized
       from [||] instead, every row would reallocate through the
       doubling in [room] during a cold start's first rounds, charging
       that allocation to the steps. *)
    let alloc graph =
      let n = Graph.node_count graph in
      let ia () = Array.make n 0 in
      let order = Ss_topology.Traversal.bfs_order graph in
      let slot = ia () in
      let cache_off = ia () and cache_cap = ia () in
      let far_off = ia () and far_cap = ia () in
      let em_off = ia () and em_cap = ia () in
      let seen = Array.make n (-1) in
      let ctot = ref 0 and ftot = ref 0 and etot = ref 0 in
      for sp = 0 to n - 1 do
        let p = order.(sp) in
        slot.(p) <- sp;
        let nb = Graph.neighbors graph p in
        let used = ref 0 and fcnt = ref 0 in
        for i = 0 to Array.length nb - 1 do
          let nq = Graph.neighbors graph nb.(i) in
          used := !used + 8 + Array.length nq;
          for j = 0 to Array.length nq - 1 do
            let r = nq.(j) in
            if r <> p && seen.(r) <> p then begin
              seen.(r) <- p;
              incr fcnt
            end
          done
        done;
        cache_off.(sp) <- !ctot;
        cache_cap.(sp) <- !used;
        ctot := !ctot + !used;
        far_off.(sp) <- !ftot;
        far_cap.(sp) <- 6 * !fcnt;
        ftot := !ftot + (6 * !fcnt);
        em_off.(sp) <- !etot;
        em_cap.(sp) <- 5 * Array.length nb;
        etot := !etot + (5 * Array.length nb)
      done;
      {
        n;
        slot;
        clock = ia ();
        gamma = ia ();
        gid = ia ();
        dag = ia ();
        dens_l = Array.make n (-1);
        dens_n = ia ();
        parent = Array.make n (-1);
        head = Array.make n (-1);
        cache = Array.make n (Array.make !ctot 0);
        cache_off;
        cache_cap;
        cache_used = ia ();
        cache_cnt = ia ();
        far = Array.make n (Array.make !ftot 0);
        far_off;
        far_cap;
        far_len = ia ();
        em = Array.init (6 * n) (fun i -> if i mod 6 = 5 then -1 else 0);
        em_nbrs = Array.make n (Array.make !etot 0);
        em_off;
        em_cap;
        minh = Array.make n max_int;
        claims_memo = Array.make n [||];
        dens_memo = Array.make n None;
        some_memo = Array.make n None;
        entry_memo = Array.make (ways * n) no_entry;
        far_memo = Array.make (ways * n) no_far;
      }

    let tick _ = ()

    let scratch b =
      {
        cbuf = Array.make 64 0;
        fbuf = Array.make 96 0;
        fkeys = Array.make 16 0;
        fsrc = Array.make 16 0;
        foff = Array.make 16 0;
        owin = Array.make 16 0;
        ooff = Array.make 16 0;
        marks = Array.make b.n 0;
        tok = 0;
        names = Array.make 16 0;
        bridges = Array.make 16 0;
      }

    let grow a needed =
      if Array.length a >= needed then a
      else Array.make (max needed ((2 * Array.length a) + 8)) 0

    (* Room for [needed] ints in row [sp] of a plane given by its
       backing, offset and capacity arrays: the row's own slice when it
       fits, or else a private array the row moves to for good, at offset
       0 and the doubled size [grow] would give. Nothing is copied — every
       caller rewrites the row whole — and the slice left behind stays
       unused (DESIGN §12, Row arenas). Only the slot's own fields change,
       so steps on other domains are unaffected. Callers read the offset
       after the call. *)
    let room rows off cap sp needed =
      let c = cap.(sp) in
      if c >= needed then rows.(sp)
      else begin
        let a = Array.make (max needed ((2 * c) + 8)) 0 in
        rows.(sp) <- a;
        off.(sp) <- 0;
        cap.(sp) <- Array.length a;
        a
      end

    (* A stamp word packs the use's token above [slot_bits] bits of slot.
       Slots count distinct far keys in one step, far below 2^30; tokens
       stay below 2^32, so every word is positive and a zeroed plane
       matches no token. *)
    let slot_bits = 30

    let slot_mask = (1 lsl slot_bits) - 1

    let next_token s =
      if s.tok >= (1 lsl 32) - 1 then begin
        Array.fill s.marks 0 (Array.length s.marks) 0;
        s.tok <- 0
      end;
      s.tok <- s.tok + 1;
      s.tok


    let init_all b rng graph =
      if b.n <> Graph.node_count graph then
        invalid_arg "Distributed.Flat.init_all: node count mismatch";
      (* Deployment-wide constants once, instead of per node — the O(n^2)
         hazard of calling the typed init n times. Draw-identical to it:
         one Rng.int per node, ascending. *)
      let gamma = Gamma.size algo.Config.gamma graph in
      (match params.ids with
      | Some ids when Array.length ids <> b.n ->
          invalid_arg "Distributed: ids length mismatch"
      | Some _ | None -> ());
      for p = 0 to b.n - 1 do
        let sp = b.slot.(p) in
        b.clock.(sp) <- 0;
        b.gamma.(sp) <- gamma;
        b.gid.(sp) <- (match params.ids with None -> p | Some ids -> ids.(p));
        b.dag.(sp) <- Rng.int rng gamma;
        b.dens_l.(sp) <- -1;
        b.dens_n.(sp) <- 0;
        b.parent.(sp) <- -1;
        b.head.(sp) <- -1;
        b.cache_used.(sp) <- 0;
        b.cache_cnt.(sp) <- 0;
        b.far_len.(sp) <- 0;
        b.em.((6 * sp) + 5) <- -1;
        b.minh.(sp) <- max_int
      done

    (* [unpack]'s immutable sub-values are interned: a claimed
       neighborhood per emitter, a [Some density] per node, a [Some h]
       per index. In the paper's model every neighbor of q caches q's
       claims, so a converged deployment's final unpack builds each
       claimed neighborhood once instead of once per neighbor. A memo
       slot is reused when its contents equal the planes' and rewritten
       only when they differ, so every returned state is structurally
       what a fresh build would give. Keys outside [0, n), which only
       corrupted states carry, build fresh. *)
    let intern_density b v l nn =
      if l < 0 then None
      else if v < 0 || v >= b.n then Some (Density.make ~links:l ~nodes:nn)
      else
        match b.dens_memo.(v) with
        | Some d as s when Density.links d = l && Density.nodes d = nn -> s
        | Some _ | None ->
            let s = Some (Density.make ~links:l ~nodes:nn) in
            b.dens_memo.(v) <- s;
            s

    let intern_some b h =
      if h < 0 then None
      else if h >= b.n then Some h
      else
        match b.some_memo.(h) with
        | Some _ as s -> s
        | None ->
            let s = Some h in
            b.some_memo.(h) <- s;
            s

    let rec same_slice m c off i len =
      i >= len || (m.(i) = c.(off + i) && same_slice m c off (i + 1) len)

    let intern_claims b q c off len =
      if q < 0 || q >= b.n then Array.sub c off len
      else
        let m = b.claims_memo.(q) in
        if Array.length m = len && same_slice m c off 0 len then m
        else begin
          let a = Array.sub c off len in
          b.claims_memo.(q) <- a;
          a
        end

    (* [pack]'s walks for the least heard stamp; the rows are written by
       [pack_cache] and [pack_far]. *)
    let rec cache_min_heard mh = function
      | [] -> mh
      | (_, e) :: rest -> cache_min_heard (Int.min mh e.e_heard) rest

    let rec far_min_heard mh = function
      | [] -> mh
      | (_, fe) :: rest -> far_min_heard (Int.min mh fe.f_heard) rest

    let pack b p (st : state) =
      let sp = b.slot.(p) in
      b.clock.(sp) <- st.clock;
      b.gamma.(sp) <- st.gamma;
      b.gid.(sp) <- st.gid;
      b.dag.(sp) <- st.dag;
      (match st.density with
      | None ->
          b.dens_l.(sp) <- -1;
          b.dens_n.(sp) <- 0
      | Some d ->
          b.dens_l.(sp) <- Density.links d;
          b.dens_n.(sp) <- Density.nodes d);
      b.parent.(sp) <- (match st.parent with None -> -1 | Some v -> v);
      b.head.(sp) <- (match st.head with None -> -1 | Some v -> v);
      let used = cache_ints 0 st.cache in
      let c = room b.cache b.cache_off b.cache_cap sp used in
      pack_cache c b.cache_off.(sp) st.cache;
      b.cache_used.(sp) <- used;
      b.cache_cnt.(sp) <- List.length st.cache;
      let flen = List.length st.far in
      let f = room b.far b.far_off b.far_cap sp (6 * flen) in
      pack_far f b.far_off.(sp) st.far;
      b.far_len.(sp) <- flen;
      b.minh.(sp) <- far_min_heard (cache_min_heard max_int st.cache) st.far

    (* Whole entries are interned too, per key: holders that last
       refreshed q at the same clock hold equal copies of q's entry. A
       slot matches when every field does: the heard stamp, ids, eff and
       head flag by value, and the density, head and claims — already
       interned — by identity. A miss builds the pair fresh and stores it
       in the key's first empty slot; full slots are never overwritten,
       so reads during a run can occupy at most [ways] slots per key.
       Keys outside [0, n) build fresh. The probes return the matching
       slot [w >= 0], or [-1 - w] for the first empty slot [w], which is
       [-1 - ways] when every slot holds another entry. *)
    let rec probe_entry m base w heard gid dag dens head nbrs =
      if w = ways then -1 - ways
      else
        let k, e = m.(base + w) in
        if k < 0 then -1 - w
        else if
          e.e_heard = heard && e.e_gid = gid && e.e_dag = dag
          && e.e_density == dens && e.e_head == head && e.e_nbrs == nbrs
        then w
        else probe_entry m base (w + 1) heard gid dag dens head nbrs

    let rec probe_far m base w heard dens eff is_head =
      if w = ways then -1 - ways
      else
        let k, f = m.(base + w) in
        if k < 0 then -1 - w
        else if
          f.f_heard = heard && f.f_density == dens && f.f_eff = eff
          && f.f_is_head = is_head
        then w
        else probe_far m base (w + 1) heard dens eff is_head

    let intern_entry b q heard gid dag dens head nbrs =
      let w =
        if q < 0 || q >= b.n then -1 - ways
        else probe_entry b.entry_memo (ways * q) 0 heard gid dag dens head nbrs
      in
      if w >= 0 then b.entry_memo.((ways * q) + w)
      else begin
        let pr =
          ( q,
            {
              e_heard = heard;
              e_gid = gid;
              e_dag = dag;
              e_density = dens;
              e_head = head;
              e_nbrs = nbrs;
            } )
        in
        if w > -1 - ways then b.entry_memo.((ways * q) - 1 - w) <- pr;
        pr
      end

    let intern_far b v heard dens eff is_head =
      let w =
        if v < 0 || v >= b.n then -1 - ways
        else probe_far b.far_memo (ways * v) 0 heard dens eff is_head
      in
      if w >= 0 then b.far_memo.((ways * v) + w)
      else begin
        let pr =
          (v, { f_heard = heard; f_density = dens; f_eff = eff; f_is_head = is_head })
        in
        if w > -1 - ways then b.far_memo.((ways * v) - 1 - w) <- pr;
        pr
      end

    (* The entries of a cache row from offset [pos] up to [stop], and of
       a far row starting at [fo] below index [i], consed onto [acc].
       Neither closes over anything, so an unpack allocates only the
       state it returns. *)
    let rec cache_from b c stop pos =
      if pos >= stop then []
      else begin
        let q = c.(pos) and nlen = c.(pos + 7) in
        let dens = intern_density b q c.(pos + 4) c.(pos + 5) in
        let head = intern_some b c.(pos + 6) in
        let nbrs = intern_claims b q c (pos + 8) nlen in
        intern_entry b q c.(pos + 1) c.(pos + 2) c.(pos + 3) dens head nbrs
        :: cache_from b c stop (pos + 8 + nlen)
      end

    let rec far_below b f fo i acc =
      if i <= 0 then acc
      else begin
        let o = fo + (6 * (i - 1)) in
        let dens = intern_density b f.(o) f.(o + 2) f.(o + 3) in
        far_below b f fo (i - 1)
          (intern_far b f.(o) f.(o + 1) dens f.(o + 4) (f.(o + 5) <> 0) :: acc)
      end

    let unpack b p : state =
      let sp = b.slot.(p) in
      let co = b.cache_off.(sp) in
      {
        clock = b.clock.(sp);
        gamma = b.gamma.(sp);
        gid = b.gid.(sp);
        dag = b.dag.(sp);
        density = intern_density b p b.dens_l.(sp) b.dens_n.(sp);
        parent = intern_some b b.parent.(sp);
        head = intern_some b b.head.(sp);
        cache = cache_from b b.cache.(sp) (co + b.cache_used.(sp)) co;
        far = far_below b b.far.(sp) b.far_off.(sp) b.far_len.(sp) [];
      }

    (* Writes [v] at [a.(i)] unless it is already there; returns
       [changed] or'ed with whether it wrote. *)
    let[@inline] set_if (a : int array) i (v : int) changed =
      if a.(i) = v then changed
      else begin
        a.(i) <- v;
        true
      end

    (* One pass over the node's cache row, each emitted int compared
       with its new value and written in place when it differs. [room]
       moves the summary row only when the count outgrew the row's
       capacity, and then the count scalar differs, so the change is
       reported however the moved row's zeroes compare. *)
    let refresh_emit b _ p =
      let sp = b.slot.(p) in
      let cnt = b.cache_cnt.(sp) in
      let en = room b.em_nbrs b.em_off b.em_cap sp (5 * cnt) in
      let eo = b.em_off.(sp) and em = b.em and e = 6 * sp in
      let ch = set_if em (e + 5) cnt false in
      let ch = set_if em e b.gid.(sp) ch in
      let ch = set_if em (e + 1) b.dag.(sp) ch in
      let ch = set_if em (e + 2) b.dens_l.(sp) ch in
      let ch = set_if em (e + 3) b.dens_n.(sp) ch in
      let changed = ref (set_if em (e + 4) b.head.(sp) ch) in
      let c = b.cache.(sp) in
      let pos = ref b.cache_off.(sp) in
      for i = 0 to cnt - 1 do
        let u = !pos and o = eo + (5 * i) in
        let q = c.(u) in
        let eff = if algo.Config.use_dag_names then c.(u + 3) else c.(u + 2) in
        let ch = set_if en o q !changed in
        let ch = set_if en (o + 1) c.(u + 4) ch in
        let ch = set_if en (o + 2) c.(u + 5) ch in
        let ch = set_if en (o + 3) eff ch in
        changed := set_if en (o + 4) (if c.(u + 6) = q then 1 else 0) ch;
        pos := u + 8 + c.(u + 7)
      done;
      !changed

    (* The fresh entries a step writes, shared by both of its write
       targets: the node's own rows on a steady layout, the scratch
       images otherwise. [put_entry] writes sender q's cache entry at
       [dst.(u)] from q's emission planes and returns the offset after
       it; [put_far] writes key v's far entry at [dst.(o)] from the
       summary at offset [off] of the em_nbrs backing of slot [sq]. *)
    let put_entry b dst u q clock' =
      let sq = b.slot.(q) in
      let e = 6 * sq in
      let nlen = b.em.(e + 5) in
      dst.(u) <- q;
      dst.(u + 1) <- clock';
      dst.(u + 2) <- b.em.(e);
      dst.(u + 3) <- b.em.(e + 1);
      dst.(u + 4) <- b.em.(e + 2);
      dst.(u + 5) <- b.em.(e + 3);
      dst.(u + 6) <- b.em.(e + 4);
      dst.(u + 7) <- nlen;
      let en = b.em_nbrs.(sq) and eo = b.em_off.(sq) in
      for i = 0 to nlen - 1 do
        dst.(u + 8 + i) <- en.(eo + (5 * i))
      done;
      u + 8 + nlen

    let put_far b dst o v clock' sq off =
      let en = b.em_nbrs.(sq) in
      dst.(o) <- v;
      dst.(o + 1) <- clock';
      dst.(o + 2) <- en.(off + 1);
      dst.(o + 3) <- en.(off + 2);
      dst.(o + 4) <- en.(off + 3);
      dst.(o + 5) <- en.(off + 4)

    (* An entry not refreshed at the node's last executed step is aging
       toward its TTL — [step] maintains the plane-wide minimum heard
       stamp, so the pending-expiry test is one compare. *)
    let warm b p =
      let sp = b.slot.(p) in
      b.minh.(sp) < b.clock.(sp)

    let step b s hkey p ~senders ~count =
      let sp = b.slot.(p) in
      let ttl = params.cache_ttl in
      let clock' = b.clock.(sp) + 1 in
      (* Positions in the node's rows are offsets into their backing
         arrays: the cache row spans [co, oend) of [old], and a far row
         starts at the slot's [far_off]. *)
      let old = b.cache.(sp) in
      let co = b.cache_off.(sp) in
      let oend = co + b.cache_used.(sp) in
      let ofar = b.far.(sp) and ofo = b.far_off.(sp) in
      let ocnt = b.far_len.(sp) in
      let sn_total = ref 0 in
      for i = 0 to count - 1 do
        sn_total := !sn_total + b.em.((6 * b.slot.(senders.(i))) + 5)
      done;
      let fkeys =
        let a = grow s.fkeys !sn_total in
        if a != s.fkeys then s.fkeys <- a;
        a
      in
      let fsrc =
        let a = grow s.fsrc !sn_total in
        if a != s.fsrc then s.fsrc <- a;
        a
      in
      let foff =
        let a = grow s.foff !sn_total in
        if a != s.foff then s.foff <- a;
        a
      in
      let owin =
        let a = grow s.owin ocnt in
        if a != s.owin then s.owin <- a;
        a
      in
      let ooff =
        let a = grow s.ooff ocnt in
        if a != s.ooff then s.ooff <- a;
        a
      in
      (* --- cache layout check: walk the merge below without writing.
         The layout is steady when every sender replaces the old entry
         of its own key with the same claim count and every other old
         entry survives the TTL at clock': the merge would then rebuild
         the row entry for entry at the same offsets. *)
      let steady = ref true in
      let opos = ref co and si = ref 0 in
      while !steady && (!opos < oend || !si < count) do
        if !si >= count || (!opos < oend && old.(!opos) < senders.(!si))
        then begin
          if clock' - old.(!opos + 1) > ttl then steady := false
          else opos := !opos + 8 + old.(!opos + 7)
        end
        else begin
          let q = senders.(!si) in
          if
            !opos < oend
            && old.(!opos) = q
            && old.(!opos + 7) = b.em.((6 * b.slot.(q)) + 5)
          then begin
            opos := !opos + 8 + old.(!opos + 7);
            incr si
          end
          else steady := false
        end
      done;
      (* --- far refresh, sightings: one pass over every sender's
         relayed summaries (senders ascending, self skipped). The old
         far keys are stamped first as slots 0 .. ocnt-1 of the stamp
         plane, so a sighting of an old key lands on the key's old slot
         ([owin]/[ooff]); a key new to the plane is appended to [fkeys]
         on its first sighting. Every sighting overwrites its slot's
         winner, so the later claim wins — the last of each run of
         equal keys after the typed refresh_far's stable sort. Only an
         old plane strictly ascending inside [0, n) is stamped; any
         other (only a packed arbitrary state carries one) stamps no
         slot, and every key then counts as new, as does a key outside
         the plane, which is found by a linear probe over the new keys.
         The new keys, usually none, are then insertion-sorted with
         their winners. *)
      let marks = s.marks in
      let plane = Array.length marks in
      let tok = next_token s in
      let ordered = ref true and last = ref (-1) in
      for i = 0 to ocnt - 1 do
        owin.(i) <- -1;
        let v = ofar.(ofo + (6 * i)) in
        if !ordered then
          if v > !last && v < plane then begin
            marks.(v) <- (tok lsl slot_bits) lor i;
            last := v
          end
          else ordered := false
      done;
      let tok = if !ordered then tok else next_token s in
      let tag = tok lsl slot_bits in
      let nk = ref 0 in
      for i = 0 to count - 1 do
        let q = senders.(i) in
        let sq = b.slot.(q) in
        let en = b.em_nbrs.(sq) and eo = b.em_off.(sq) in
        for j = 0 to b.em.((6 * sq) + 5) - 1 do
          let v = en.(eo + (5 * j)) in
          if v <> p then begin
            let slot =
              if v >= 0 && v < plane then begin
                let w = marks.(v) in
                if w lsr slot_bits = tok then w land slot_mask
                else begin
                  let k = !nk in
                  marks.(v) <- tag lor (ocnt + k);
                  fkeys.(k) <- v;
                  nk := k + 1;
                  ocnt + k
                end
              end
              else begin
                let k = ref 0 in
                while !k < !nk && fkeys.(!k) <> v do
                  incr k
                done;
                if !k = !nk then begin
                  fkeys.(!k) <- v;
                  incr nk
                end;
                ocnt + !k
              end
            in
            if slot < ocnt then begin
              owin.(slot) <- sq;
              ooff.(slot) <- eo + (5 * j)
            end
            else begin
              fsrc.(slot - ocnt) <- sq;
              foff.(slot - ocnt) <- eo + (5 * j)
            end
          end
        done
      done;
      let fn = !nk in
      if !steady && fn = 0 then begin
        let i = ref 0 in
        while !steady && !i < ocnt do
          if owin.(!i) < 0 && clock' - ofar.(ofo + (6 * !i) + 1) > ttl then
            steady := false;
          incr i
        done
      end
      else steady := false;
      let minh = ref max_int in
      if !steady then begin
        (* --- steady layout: write the fresh entries straight into the
           node's own rows. Every key stays at its offset, so an entry
           no frame refreshed (a dropped frame, a far key no sender
           relayed this round) is already where the merge would put it
           and stays as it is; it only enters [minh]. *)
        let opos = ref co and si = ref 0 in
        while !opos < oend do
          if !si < count && old.(!opos) = senders.(!si) then begin
            opos := put_entry b old !opos senders.(!si) clock';
            incr si
          end
          else begin
            let h = old.(!opos + 1) in
            if h < !minh then minh := h;
            opos := !opos + 8 + old.(!opos + 7)
          end
        done;
        for i = 0 to ocnt - 1 do
          let o = ofo + (6 * i) in
          if owin.(i) >= 0 then
            put_far b ofar o ofar.(o) clock' owin.(i) ooff.(i)
          else begin
            let h = ofar.(o + 1) in
            if h < !minh then minh := h
          end
        done
      end
      else begin
        (* --- cache refresh: sorted merge of the surviving old entries
           and the fresh frames (senders ascending); a fresh frame
           replaces the old entry for the same neighbor, everything
           else is TTL-filtered at the new clock — exactly the typed
           refresh_cache. Scratch is pre-sized from upper bounds once,
           so the merge loops are plain int stores: no growth checks,
           no write barriers, no C-call blits. *)
        let cbuf =
          let a = grow s.cbuf (oend - co + (8 * count) + !sn_total) in
          if a != s.cbuf then s.cbuf <- a;
          a
        in
        let fdst =
          let a = grow s.fbuf (6 * (ocnt + fn)) in
          if a != s.fbuf then s.fbuf <- a;
          a
        in
        let used = ref 0 and cnt = ref 0 in
        let opos = ref co and si = ref 0 in
        while !opos < oend || !si < count do
          if !si >= count || (!opos < oend && old.(!opos) < senders.(!si))
          then begin
            let pos = !opos in
            let sz = 8 + old.(pos + 7) in
            let h = old.(pos + 1) in
            if clock' - h <= ttl then begin
              let u = !used in
              for i = 0 to sz - 1 do
                cbuf.(u + i) <- old.(pos + i)
              done;
              if h < !minh then minh := h;
              incr cnt;
              used := u + sz
            end;
            opos := pos + sz
          end
          else begin
            let q = senders.(!si) in
            used := put_entry b cbuf !used q clock';
            incr cnt;
            incr si;
            if !opos < oend && old.(!opos) = q then
              opos := !opos + 8 + old.(!opos + 7)
          end
        done;
        for i = 1 to fn - 1 do
          let k = fkeys.(i) and src = fsrc.(i) and off = foff.(i) in
          let j = ref (i - 1) in
          while !j >= 0 && fkeys.(!j) > k do
            fkeys.(!j + 1) <- fkeys.(!j);
            fsrc.(!j + 1) <- fsrc.(!j);
            foff.(!j + 1) <- foff.(!j);
            decr j
          done;
          fkeys.(!j + 1) <- k;
          fsrc.(!j + 1) <- src;
          foff.(!j + 1) <- off
        done;
        (* --- far refresh, merge: the sorted new keys over the old
           slots; a sighted old slot takes its winner, an unsighted one
           is TTL-filtered, and a fresh entry is read straight from its
           winner's emission plane. On an unstamped old plane a new key
           equal to an old one replaces it, as in the typed merge. *)
        let fout = ref 0 and oi = ref 0 and fi = ref 0 in
        while !oi < ocnt || !fi < fn do
          if
            !fi >= fn || (!oi < ocnt && ofar.(ofo + (6 * !oi)) < fkeys.(!fi))
          then begin
            let so = ofo + (6 * !oi) in
            if owin.(!oi) >= 0 then begin
              put_far b fdst (6 * !fout) ofar.(so) clock' owin.(!oi)
                ooff.(!oi);
              incr fout
            end
            else begin
              let h = ofar.(so + 1) in
              if clock' - h <= ttl then begin
                let o = 6 * !fout in
                fdst.(o) <- ofar.(so);
                fdst.(o + 1) <- h;
                fdst.(o + 2) <- ofar.(so + 2);
                fdst.(o + 3) <- ofar.(so + 3);
                fdst.(o + 4) <- ofar.(so + 4);
                fdst.(o + 5) <- ofar.(so + 5);
                if h < !minh then minh := h;
                incr fout
              end
            end;
            incr oi
          end
          else begin
            let k = fkeys.(!fi) in
            put_far b fdst (6 * !fout) k clock' fsrc.(!fi) foff.(!fi);
            incr fi;
            incr fout;
            if !oi < ocnt && ofar.(ofo + (6 * !oi)) = k then incr oi
          end
        done;
        (* commit the new cache and far rows, each into its slice when
           it fits and into a row of its own when it does not *)
        let nu = !used and nc = !cnt and nfar = !fout in
        let cdst = room b.cache b.cache_off b.cache_cap sp nu in
        let cdo = b.cache_off.(sp) in
        for i = 0 to nu - 1 do
          cdst.(cdo + i) <- cbuf.(i)
        done;
        b.cache_used.(sp) <- nu;
        b.cache_cnt.(sp) <- nc;
        let fcom = room b.far b.far_off b.far_cap sp (6 * nfar) in
        let fco = b.far_off.(sp) in
        for i = 0 to (6 * nfar) - 1 do
          fcom.(fco + i) <- fdst.(i)
        done;
        b.far_len.(sp) <- nfar
      end;
      (* every sighting comes from a sender, so any fresh entry means
         count > 0 *)
      if count > 0 && clock' < !minh then minh := clock';
      b.minh.(sp) <- !minh;
      (* both writes leave the row lengths in the planes *)
      let new_used = b.cache_used.(sp)
      and new_cnt = b.cache_cnt.(sp)
      and new_far_cnt = b.far_len.(sp) in
      (* --- N1 name resolution, draw-for-draw with resolve_dag: exactly
         one Rng.int when the node loses its name and a name is free,
         none otherwise. *)
      let gamma = b.gamma.(sp) and gid = b.gid.(sp) and old_dag = b.dag.(sp) in
      (* the new cache row spans [cb, cend) of [c] *)
      let c = b.cache.(sp) in
      let cb = b.cache_off.(sp) in
      let cend = cb + new_used in
      let dag' =
        if
          not
            (algo.Config.use_dag_names
            && loses ~node:p ~gid ~dag:old_dag c cb cend)
        then old_dag
        else begin
          s.names <- grow s.names gamma;
          exclude s.names gamma c cb cend;
          (* The only draw in a step; derive the node generator here so
             the overwhelmingly common drawless step allocates none. *)
          Elect.free_name
            (Rng.of_key (Rng.subkey hkey p))
            ~gamma ~current:old_dag s.names
        end
      in
      (* --- density from the new cache (Density.of_local_view): stamp
         the entry keys, then count the claims r > q that hit a stamp. A
         claim outside the plane can only match a key outside it too, so
         the cache is scanned for it only when such a key exists. *)
      let deg = new_cnt in
      let marks = s.marks in
      let plane = Array.length marks in
      let tag = next_token s lsl slot_bits in
      let outside = ref false in
      let pos = ref cb in
      while !pos < cend do
        let q = c.(!pos) in
        if q >= 0 && q < plane then marks.(q) <- tag else outside := true;
        pos := !pos + 8 + c.(!pos + 7)
      done;
      let among = ref 0 in
      pos := cb;
      while !pos < cend do
        let q = c.(!pos) in
        let nlen = c.(!pos + 7) in
        for i = 0 to nlen - 1 do
          let r = c.(!pos + 8 + i) in
          if r > q then
            if r >= 0 && r < plane then begin
              if marks.(r) = tag then incr among
            end
            else if !outside then begin
              let k = ref cb and found = ref false in
              while (not !found) && !k < cend do
                if c.(!k) = r then found := true
                else k := !k + 8 + c.(!k + 7)
              done;
              if !found then incr among
            end
        done;
        pos := !pos + 8 + nlen
      done;
      let dl' = deg + !among and dn' = deg in
      (* --- election: the kernel reads the new cache row in place.
         parent'/head' start at the old values; a hold leaves them. *)
      let old_parent = b.parent.(sp) and old_head = b.head.(sp) in
      let tie = algo.Config.tie and use_dag = algo.Config.use_dag_names in
      let eff = if use_dag then dag' else gid and inc = old_head = p in
      let r =
        Elect.first ~tie ~dag:use_dag ~fusion:algo.Config.fusion ~links:dl'
          ~nodes:dn' ~eff ~inc c cb cend
      in
      let r =
        if r <> Elect.fuse then r
        else begin
          s.bridges <- grow s.bridges new_cnt;
          fuse_stages ~links:dl' ~nodes:dn' ~eff ~inc c cb cend b.far.(sp)
            b.far_off.(sp) new_far_cnt s.bridges
        end
      in
      let parent' =
        if r = Elect.hold then old_parent else if r = Elect.own then p else c.(r)
      and head' =
        if r = Elect.hold then old_head
        else if r = Elect.own then p
        else c.(r + 6)
      in
      let changed =
        old_dag <> dag'
        || b.dens_l.(sp) <> dl'
        || b.dens_n.(sp) <> dn'
        || old_parent <> parent'
        || old_head <> head'
      in
      b.clock.(sp) <- clock';
      b.dag.(sp) <- dag';
      b.dens_l.(sp) <- dl';
      b.dens_n.(sp) <- dn';
      b.parent.(sp) <- parent';
      b.head.(sp) <- head';
      changed
  end
end

(* The engine's sparse-mode warm hook. A cache or far entry not refreshed
   at the node's last executed step is aging toward its TTL: it will
   expire — and change the node's density, election inputs and relayed
   summaries — after ttl more steps even if no frame ever changes again.
   The sparse executor must keep stepping such a node (dense execution
   ticks its clock every round); once every entry is stamped at the
   current clock, expiry can only be triggered by an input change, and the
   node is safe to freeze. *)
let rec cache_aging clock = function
  | [] -> false
  | (_, e) :: rest -> e.e_heard < clock || cache_aging clock rest

let rec far_aging clock = function
  | [] -> false
  | (_, f) :: rest -> f.f_heard < clock || far_aging clock rest

let pending_expiry st =
  cache_aging st.clock st.cache || far_aging st.clock st.far

(* Random state corruption for fault-injection experiments: scrambles every
   field a transient fault could damage, within type-correct bounds. *)
let corrupt rng _node st =
  let random_density () =
    if Rng.bool rng then None
    else Some (Density.make ~links:(Rng.int rng 64) ~nodes:(1 + Rng.int rng 16))
  in
  let random_node () = Rng.int rng 4096 in
  {
    st with
    dag = Rng.int rng (max 1 st.gamma);
    density = random_density ();
    parent = (if Rng.bool rng then None else Some (random_node ()));
    head = (if Rng.bool rng then None else Some (random_node ()));
    cache =
      List.map
        (fun (q, e) ->
          ( q,
            {
              e with
              e_dag = Rng.int rng (max 1 st.gamma);
              e_density = random_density ();
              e_head = (if Rng.bool rng then None else Some (random_node ()));
            } ))
        st.cache;
    far = [];
  }

(* Forgery hook for the Byzantine adversary (Ss_engine.Adversary): rewrite
   every field the election orders on, keyed — a pure function of (key,
   node, honest frame), so replay and the sparse executor see the same
   lie. The sender index [m_node] stays truthful: the radio layer
   authenticates which transceiver transmitted (receivers key their cache
   by the engine-supplied sender anyway), only the {e claims} inside the
   frame are forgeable. The forged density is implausibly attractive
   (many links over few nodes) and the node always claims to be its own
   head — the strongest pull a lying neighbor can exert on the
   density-ordered election — while the relayed 2-hop summaries are
   scrambled per claimed neighbor, poisoning the far cache too. *)
let forge key node m =
  let lane i = Rng.subkey key i in
  let forged_density k =
    Some
      (Density.make
         ~links:(32 + Rng.key_int k 32)
         ~nodes:(1 + Rng.key_int (Rng.subkey k 1) 4))
  in
  {
    m with
    m_gid = Rng.key_int (lane 0) 4096;
    m_dag = Rng.key_int (lane 1) 4096;
    m_density = forged_density (lane 2);
    m_head = Some node;
    m_nbrs =
      Array.map
        (fun s ->
          let sk = Rng.subkey (lane 3) s.s_node in
          {
            s with
            s_density = forged_density (Rng.subkey sk 0);
            s_eff = Rng.key_int (Rng.subkey sk 1) 4096;
            s_is_head = Rng.key_bernoulli (Rng.subkey sk 2) 0.5;
          })
        m.m_nbrs;
  }

(* Readback of a converged run into an assignment; nodes that never elected
   (no info yet) read as their own heads. Under churn, pass the engine's
   final liveness mask: crashed/sleeping nodes hold frozen (possibly stale)
   variables that must not pollute the projection, so they read as isolated
   self-heads — which is exactly their status in the snapshot topology. *)
let to_assignment ?alive states =
  let n = Array.length states in
  let live p = match alive with None -> true | Some mask -> mask.(p) in
  let parent = Array.init n Fun.id in
  let head = Array.init n Fun.id in
  Array.iteri
    (fun p st ->
      if live p then begin
        (match st.parent with Some f -> parent.(p) <- f | None -> ());
        match st.head with Some h -> head.(p) <- h | None -> ()
      end)
    states;
  Assignment.make ~parent ~head

(* Dangling references to vanished neighbors: an alive node still naming a
   dead (or out-of-range, after corruption) node as parent or head, or
   still caching a frame from one. The protocol drains these within the
   cache TTL — neighbor entries expire after [cache_ttl] silent rounds and
   the election re-runs from live observations — so this count measures
   how long the network "believes ghosts" after a churn burst. *)
let ghost_references ~alive states =
  let n = Array.length states in
  let ghost self q = q <> self && (q < 0 || q >= n || not alive.(q)) in
  let count = ref 0 in
  Array.iteri
    (fun p st ->
      if alive.(p) then begin
        (match st.parent with Some f when ghost p f -> incr count | _ -> ());
        (match st.head with Some h when ghost p h -> incr count | _ -> ());
        List.iter (fun (q, _) -> if ghost p q then incr count) st.cache
      end)
    states;
  !count

(* Same predicate, but naming the believers instead of counting beliefs —
   the attribution the containment metrics need (how far from the
   Byzantine set does the network still believe ghosts?). *)
let ghost_holders ~alive states =
  let n = Array.length states in
  let ghost self q = q <> self && (q < 0 || q >= n || not alive.(q)) in
  let holders = ref [] in
  for p = n - 1 downto 0 do
    let st = states.(p) in
    if alive.(p) then begin
      let holds =
        (match st.parent with Some f -> ghost p f | None -> false)
        || (match st.head with Some h -> ghost p h | None -> false)
        || List.exists (fun (q, _) -> ghost p q) st.cache
      in
      if holds then holders := p :: !holders
    end
  done;
  !holders
