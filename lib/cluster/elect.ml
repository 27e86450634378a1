(* Rule R2 for every executor (tables and stages: elect.mli). Every
   comparison is one [Order.compare_raw] on ints: no record, option,
   tuple or closure, since this compiler specialises neither functors
   nor closures. *)

let hold = -1
let own = -2
let fuse = -3

let[@inline] next c pos = pos + 8 + c.(pos + 7)
let[@inline] eff ~dag (c : int array) pos = if dag then c.(pos + 3) else c.(pos + 2)
let[@inline] join c pos = if c.(pos + 6) < 0 then hold else pos

(* One pass: a missing density stops it, the strongest entry's key
   stays in locals, ties keep the first entry. *)
let first ~tie ~dag ~fusion ~links ~nodes ~eff:my_eff ~inc c off stop =
  let best = ref (if links < 0 then hold else own) and pos = ref off in
  let bl = ref 0 and bn = ref 0 and bid = ref 0 and binc = ref false in
  while !best <> hold && !pos < stop do
    let p = !pos in
    let l = c.(p + 4) in
    if l < 0 then best := hold
    else begin
      let n = c.(p + 5) and id = eff ~dag c p and i = c.(p + 6) = c.(p) in
      if !best < 0 || Order.compare_raw ~tie l n id i !bl !bn !bid !binc > 0
      then begin
        best := p;
        bl := l;
        bn := n;
        bid := id;
        binc := i
      end;
      pos := next c p
    end
  done;
  if !best < 0 then !best
  else if Order.compare_raw ~tie !bl !bn !bid !binc links nodes my_eff inc >= 0
  then join c !best
  else if fusion then fuse
  else own

let dominating ~tie ~links ~nodes ~eff:my_eff ~inc f off len =
  let best = ref own in
  for i = 0 to len - 1 do
    let o = off + (6 * i) in
    let l = f.(o + 2) and n = f.(o + 3) and id = f.(o + 4) in
    let b = !best in
    if
      l >= 0
      && f.(o + 5) <> 0
      && Order.compare_raw ~tie links nodes my_eff inc l n id true < 0
      && (b < 0
         || Order.compare_raw ~tie l n id true f.(b + 2) f.(b + 3) f.(b + 4)
              true
            > 0)
    then best := o
  done;
  !best

(* A fusion-demoted head merges into the dominating head v's cluster by
   joining its best bridge, a neighbour adjacent to v. The paper gives
   the demotion but not the adoption; copying H(max≺ N_p) literally lets
   the demoted head's own subtree echo its old H value back forever (a
   parent cycle), so the kernel follows the paper's stated intent — "p
   initiates a fusion between u and v's clusters ... v will remain a
   cluster-head unlike u" — and routes the demoted head toward v. With
   no bridge (a stale far entry in the distributed caches) the node
   holds until its caches refresh. Only demoted heads get here, so the
   best entry is re-read rather than kept in locals. *)
let bridge ~tie ~dag c off stop flags =
  let best = ref hold and pos = ref off and i = ref 0 in
  while !pos < stop do
    let p = !pos and b = !best in
    if
      flags.(!i) <> 0
      && (b < 0
         || Order.compare_raw ~tie c.(p + 4) c.(p + 5) (eff ~dag c p)
              (c.(p + 6) = c.(p))
              c.(b + 4) c.(b + 5) (eff ~dag c b)
              (c.(b + 6) = c.(b))
            > 0)
    then best := p;
    pos := next c p;
    incr i
  done;
  if !best < 0 then hold else join c !best

(* The free names are compacted ascending into the front of [names]
   (a write at index nf <= name never overtakes the read); a draw k takes
   the (k+1)-th largest, where the typed resolver's descending free list
   put it. With no free name the node keeps [current] and draws nothing,
   so a step whose input has not moved cannot change its output. *)
let free_name rng ~gamma ~current names =
  let nf = ref 0 in
  for name = 0 to gamma - 1 do
    if names.(name) = 0 then begin
      names.(!nf) <- name;
      incr nf
    end
  done;
  if !nf = 0 then current
  else names.(!nf - 1 - Ss_prng.Rng.int rng !nf)
