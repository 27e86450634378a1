let unreachable = max_int

let bfs_from ?filter graph source =
  Graph.check_node graph source;
  let n = Graph.node_count graph in
  let dist = Array.make n unreachable in
  let keep = match filter with None -> fun _ -> true | Some f -> f in
  if not (keep source) then dist
  else begin
    let queue = Queue.create () in
    dist.(source) <- 0;
    Queue.add source queue;
    while not (Queue.is_empty queue) do
      let p = Queue.pop queue in
      Array.iter
        (fun q ->
          if keep q && dist.(q) = unreachable then begin
            dist.(q) <- dist.(p) + 1;
            Queue.add q queue
          end)
        (Graph.neighbors graph p)
    done;
    dist
  end

let distance graph p q =
  let dist = bfs_from graph p in
  if dist.(q) = unreachable then None else Some dist.(q)

let eccentricity ?filter graph source =
  let dist = bfs_from ?filter graph source in
  Array.fold_left
    (fun acc d -> if d = unreachable then acc else max acc d)
    0 dist

let bfs_order graph =
  let n = Graph.node_count graph in
  let order = Array.make n 0 in
  let seen = Bytes.make n '\000' in
  (* [order] doubles as the queue: [head] chases [tail] through it. *)
  let head = ref 0 and tail = ref 0 in
  for s = 0 to n - 1 do
    if Bytes.get seen s = '\000' then begin
      Bytes.set seen s '\001';
      order.(!tail) <- s;
      incr tail;
      while !head < !tail do
        let nb = Graph.neighbors graph order.(!head) in
        incr head;
        for i = 0 to Array.length nb - 1 do
          let q = nb.(i) in
          if Bytes.get seen q = '\000' then begin
            Bytes.set seen q '\001';
            order.(!tail) <- q;
            incr tail
          end
        done
      done
    end
  done;
  order

let components graph =
  let n = Graph.node_count graph in
  let comp = Array.make n (-1) in
  let count = ref 0 in
  for s = 0 to n - 1 do
    if comp.(s) = -1 then begin
      let c = !count in
      incr count;
      let queue = Queue.create () in
      comp.(s) <- c;
      Queue.add s queue;
      while not (Queue.is_empty queue) do
        let p = Queue.pop queue in
        Array.iter
          (fun q ->
            if comp.(q) = -1 then begin
              comp.(q) <- c;
              Queue.add q queue
            end)
          (Graph.neighbors graph p)
      done
    end
  done;
  (comp, !count)

let is_connected graph =
  Graph.node_count graph = 0 || snd (components graph) = 1

let largest_component graph =
  let comp, count = components graph in
  if count = 0 then []
  else begin
    let sizes = Array.make count 0 in
    Array.iter (fun c -> sizes.(c) <- sizes.(c) + 1) comp;
    let best = ref 0 in
    Array.iteri (fun c s -> if s > sizes.(!best) then best := c) sizes;
    let acc = ref [] in
    Array.iteri (fun p c -> if c = !best then acc := p :: !acc) comp;
    List.rev !acc
  end

let diameter graph =
  (* Exact diameter per component: BFS from every node. Fine for the sizes
     used in the experiments (about a thousand nodes). *)
  let n = Graph.node_count graph in
  let best = ref 0 in
  for p = 0 to n - 1 do
    let e = eccentricity graph p in
    if e > !best then best := e
  done;
  !best

let shortest_path graph ~src ~dst =
  Graph.check_node graph src;
  Graph.check_node graph dst;
  let n = Graph.node_count graph in
  let parent = Array.make n (-1) in
  let seen = Array.make n false in
  let queue = Queue.create () in
  seen.(src) <- true;
  Queue.add src queue;
  let found = ref (src = dst) in
  while (not !found) && not (Queue.is_empty queue) do
    let p = Queue.pop queue in
    Array.iter
      (fun q ->
        if not seen.(q) then begin
          seen.(q) <- true;
          parent.(q) <- p;
          if q = dst then found := true;
          Queue.add q queue
        end)
      (Graph.neighbors graph p)
  done;
  if not (seen.(dst)) then None
  else begin
    let rec collect node acc =
      if node = src then src :: acc else collect parent.(node) (node :: acc)
    in
    Some (collect dst [])
  end
