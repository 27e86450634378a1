(* Domain pool over stdlib Domain/Mutex/Condition (OCaml 5 only, no
   external dependency). One shared claim counter per job; every result
   lands at its item's index, which is what makes parallel execution
   observationally identical to the sequential loop. *)

type job = {
  total : int;
  execute : int -> unit; (* runs item i and stores its result; never raises *)
  mutable next : int; (* next unclaimed index *)
  mutable completed : int; (* items fully executed *)
}

type t = {
  lock : Mutex.t;
  wake : Condition.t; (* workers: a job arrived, or shutdown *)
  finished : Condition.t; (* submitters: the current job fully completed *)
  mutable job : job option;
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
  size : int;
}

(* Claim loop shared by workers and the submitting domain. Expects [lock]
   held; returns with it held, once [stop] says there is nothing left to
   do. Workers stop on shutdown; submitters stop when their job's items
   are all claimed. *)
let work_on t ~stop =
  let rec loop () =
    if not (stop ()) then
      match t.job with
      | Some job when job.next < job.total ->
          let i = job.next in
          job.next <- i + 1;
          Mutex.unlock t.lock;
          job.execute i;
          Mutex.lock t.lock;
          job.completed <- job.completed + 1;
          if job.completed = job.total then begin
            t.job <- None;
            Condition.broadcast t.finished
          end;
          loop ()
      | Some _ | None ->
          Condition.wait t.wake t.lock;
          loop ()
  in
  loop ()

let create ~domains =
  if domains < 1 then invalid_arg "Pool.create: need at least one domain";
  let t =
    {
      lock = Mutex.create ();
      wake = Condition.create ();
      finished = Condition.create ();
      job = None;
      stopping = false;
      workers = [];
      size = domains;
    }
  in
  t.workers <-
    List.init (domains - 1) (fun _ ->
        Domain.spawn (fun () ->
            Mutex.lock t.lock;
            work_on t ~stop:(fun () -> t.stopping);
            Mutex.unlock t.lock));
  t

let domains t = t.size

let sequential n f =
  if n = 0 then [||]
  else begin
    (* Explicit ascending order: the sequential path is the reference the
       parallel one must reproduce, so its evaluation order is spelled out
       rather than inherited from Array.init. Like the parallel path, every
       item runs even when one raises; the lowest-index exception is
       re-raised only after the whole job has executed. *)
    let results = Array.make n None in
    for i = 0 to n - 1 do
      results.(i) <-
        Some
          (match f i with
          | v -> Ok v
          | exception e -> Error (e, Printexc.get_raw_backtrace ()))
    done;
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false)
      results
  end

let map t n f =
  if n < 0 then invalid_arg "Pool.map: negative count";
  if n = 0 then [||]
  else if t.size = 1 then sequential n f
  else begin
    let results = Array.make n None in
    let execute i =
      results.(i) <-
        Some
          (match f i with
          | v -> Ok v
          | exception e -> Error (e, Printexc.get_raw_backtrace ()))
    in
    Mutex.lock t.lock;
    if t.stopping then begin
      Mutex.unlock t.lock;
      invalid_arg "Pool.map: pool is shut down"
    end;
    while t.job <> None do
      Condition.wait t.finished t.lock
    done;
    let job = { total = n; execute; next = 0; completed = 0 } in
    t.job <- Some job;
    Condition.broadcast t.wake;
    (* The submitting domain is a worker too, for its own job only. *)
    work_on t ~stop:(fun () -> job.next >= job.total);
    while job.completed < job.total do
      Condition.wait t.finished t.lock
    done;
    Mutex.unlock t.lock;
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false)
      results
  end

let shutdown t =
  Mutex.lock t.lock;
  if t.stopping then Mutex.unlock t.lock
  else begin
    while t.job <> None do
      Condition.wait t.finished t.lock
    done;
    t.stopping <- true;
    Condition.broadcast t.wake;
    Mutex.unlock t.lock;
    List.iter Domain.join t.workers;
    t.workers <- []
  end

let with_pool ~domains f =
  let t = create ~domains in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
