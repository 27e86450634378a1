(* Span recorder for the traced runs.

   Layers are fixed slots named after the modules they time. A span is
   opened with [enter] and closed with [leave] around one call into a
   layer; spans nest (a [Workload.hook] span contains the
   [Distributed.Flat.unpack] spans its [read] makes), and a layer's self
   time is its span time minus the part its child spans cover.

   [enter]/[leave] allocate nothing: CPU time comes from [Sys.time] and
   allocation from [Gc.minor_words], both unboxed externals, and every
   accumulator is an unboxed float or int array. A timed call therefore
   changes neither the program's allocation nor its GC schedule, only
   its CPU time (the [trace.overhead_ratio] the driver reports).

   Per round the recorder keeps one aggregate per (layer, parent layer):
   count, seconds and minor words. [end_round] folds them into a round
   record; the records stay in memory until [write_jsonl]. There is one
   recorder per process: a traced child runs exactly one workload. *)

type layer = int

let names =
  [|
    "distributed.init";
    "distributed.step";
    "distributed.refresh";
    "distributed.warm";
    "distributed.pack";
    "distributed.unpack";
    "distributed.handle";
    "distributed.emit";
    "adversary.init";
    "adversary.handle";
    "adversary.emit";
    "churn.plan";
    "topology.flush";
    "mobility.step";
    "workload.tick";
    "monitor.probe";
  |]

let n_layers = Array.length names

let layer name =
  let rec find i =
    if i >= n_layers then invalid_arg ("Tracer.layer: unknown layer " ^ name)
    else if names.(i) = name then i
    else find (i + 1)
  in
  find 0

let d_init = layer "distributed.init"
let d_step = layer "distributed.step"
let d_refresh = layer "distributed.refresh"
let d_warm = layer "distributed.warm"
let d_pack = layer "distributed.pack"
let d_unpack = layer "distributed.unpack"
let d_handle = layer "distributed.handle"
let d_emit = layer "distributed.emit"
let a_init = layer "adversary.init"
let a_handle = layer "adversary.handle"
let a_emit = layer "adversary.emit"
let churn_plan = layer "churn.plan"
let topo_flush = layer "topology.flush"
let mob_step = layer "mobility.step"
let wl_tick = layer "workload.tick"
let mon_probe = layer "monitor.probe"

(* Event counters that are not span counts. *)
type counter = int

let c_step_changed = 0
let c_refresh_changed = 1
let c_churn_events = 2
let c_edge_flips = 3
let c_moved = 4

(* The parent slot [n_layers] is the round itself. *)
let stride = n_layers + 1
let root = n_layers

(* Run totals. *)
let calls = Array.make n_layers 0
let total_s = Array.make n_layers 0.0
let self_s = Array.make n_layers 0.0
let words = Array.make n_layers 0.0
let counters = Array.make (c_moved + 1) 0

(* Time covered by depth-0 spans: the rest of the run is executor self. *)
let top_s = Array.make 1 0.0

(* Current-round aggregates, keyed by [layer * stride + parent]. *)
let r_calls = Array.make (n_layers * stride) 0
let r_s = Array.make (n_layers * stride) 0.0
let r_words = Array.make (n_layers * stride) 0.0
let r_steps = ref 0
let r_top = Array.make 1 0.0

(* The open-span stack. *)
let max_depth = 16
let st_layer = Array.make max_depth 0
let st_t = Array.make max_depth 0.0
let st_w = Array.make max_depth 0.0
let st_child = Array.make max_depth 0.0
let depth = ref 0

let[@inline] enter (l : layer) =
  let d = !depth in
  st_layer.(d) <- l;
  st_child.(d) <- 0.0;
  st_w.(d) <- Gc.minor_words ();
  st_t.(d) <- Sys.time ();
  depth := d + 1

let[@inline] leave (l : layer) =
  let t = Sys.time () in
  let w = Gc.minor_words () in
  let d = !depth - 1 in
  depth := d;
  let dt = t -. st_t.(d) in
  let dw = w -. st_w.(d) in
  calls.(l) <- calls.(l) + 1;
  total_s.(l) <- total_s.(l) +. dt;
  self_s.(l) <- self_s.(l) +. (dt -. st_child.(d));
  words.(l) <- words.(l) +. dw;
  let k = (l * stride) + (if d = 0 then root else st_layer.(d - 1)) in
  r_calls.(k) <- r_calls.(k) + 1;
  r_s.(k) <- r_s.(k) +. dt;
  r_words.(k) <- r_words.(k) +. dw;
  if d = 0 then begin
    top_s.(0) <- top_s.(0) +. dt;
    r_top.(0) <- r_top.(0) +. dt
  end
  else st_child.(d - 1) <- st_child.(d - 1) +. dt

let[@inline] bump (c : counter) = counters.(c) <- counters.(c) + 1
let[@inline] add (c : counter) k = counters.(c) <- counters.(c) + k

(* Protocol steps (flat [step] or typed [handle]) in the current round:
   the executor's frontier size. *)
let[@inline] stepped () = incr r_steps

type child = {
  c_layer : string;
  c_parent : string;
  c_count : int;
  c_s : float;
  c_words : float;
}

type round = {
  kind : string;  (** ["round"], or ["tail"] for what follows the last one *)
  segment : int;
  round : int;
  start_s : float;  (** CPU seconds since the run started *)
  dur_s : float;
  self_s : float;  (** round minus its depth-0 child spans *)
  steps : int;
  children : child list;
}

let rounds : round list ref = ref []

(* A workload made of several runs (the sweep's replicates) numbers them
   as segments. *)
let segment = ref 0

let run_start = ref 0.0
let round_start = ref 0.0

(* Per-call durations of the coarse hooks, for their percentiles. *)
let probe_ms : float list ref = ref []

(* Allocation and major collections inside the timed runs. *)
let gc_minor_words = ref 0.0
let gc_major = ref 0
let gc_at_start = ref (0.0, 0)

let reset () =
  Array.fill calls 0 n_layers 0;
  Array.fill total_s 0 n_layers 0.0;
  Array.fill self_s 0 n_layers 0.0;
  Array.fill words 0 n_layers 0.0;
  Array.fill counters 0 (Array.length counters) 0;
  Array.fill r_calls 0 (Array.length r_calls) 0;
  Array.fill r_s 0 (Array.length r_s) 0.0;
  Array.fill r_words 0 (Array.length r_words) 0.0;
  top_s.(0) <- 0.0;
  r_top.(0) <- 0.0;
  r_steps := 0;
  depth := 0;
  rounds := [];
  probe_ms := [];
  segment := 0;
  gc_minor_words := 0.0;
  gc_major := 0

(* Call right before each timed executor [run]. *)
let start_run () =
  incr segment;
  gc_at_start := (Gc.minor_words (), (Gc.quick_stat ()).Gc.major_collections);
  let t = Sys.time () in
  run_start := t;
  round_start := t

let close_span ~kind ~round =
  let t = Sys.time () in
  let children = ref [] in
  for k = Array.length r_calls - 1 downto 0 do
    if r_calls.(k) > 0 then begin
      let l = k / stride and p = k mod stride in
      children :=
        {
          c_layer = names.(l);
          c_parent = (if p = root then "round" else names.(p));
          c_count = r_calls.(k);
          c_s = r_s.(k);
          c_words = r_words.(k);
        }
        :: !children;
      r_calls.(k) <- 0;
      r_s.(k) <- 0.0;
      r_words.(k) <- 0.0
    end
  done;
  let dur = t -. !round_start in
  rounds :=
    {
      kind;
      segment = !segment;
      round;
      start_s = !round_start -. !run_start;
      dur_s = dur;
      self_s = dur -. r_top.(0);
      steps = !r_steps;
      children = !children;
    }
    :: !rounds;
  r_top.(0) <- 0.0;
  r_steps := 0;
  round_start := t

(* Close the current round span at the round's last hook. *)
let end_round ~round = close_span ~kind:"round" ~round

(* Call right after the timed run returns: the rest of the run (final
   unpacks, result assembly) becomes a "tail" span. *)
let finish_run () =
  let last = match !rounds with r :: _ -> r.round | [] -> 0 in
  close_span ~kind:"tail" ~round:last;
  let w0, m0 = !gc_at_start in
  gc_minor_words := !gc_minor_words +. (Gc.minor_words () -. w0);
  gc_major := !gc_major + ((Gc.quick_stat ()).Gc.major_collections - m0)

let rounds_oldest_first () = List.rev !rounds

let write_jsonl path ~workload ~seed =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  List.iter
    (fun r ->
      let child c =
        Json.Obj
          [
            ("layer", Json.Str c.c_layer);
            ("parent", Json.Str c.c_parent);
            ("count", Json.int c.c_count);
            ("s", Json.Num c.c_s);
            ("minor_words", Json.Num c.c_words);
          ]
      in
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ( "id",
                  Json.Obj
                    [
                      ("workload", Json.Str workload);
                      ("seed", Json.int seed);
                      ("segment", Json.int r.segment);
                      ("round", Json.int r.round);
                    ] );
                ("span", Json.Str r.kind);
                ("start_s", Json.Num r.start_s);
                ("dur_s", Json.Num r.dur_s);
                ("self_s", Json.Num r.self_s);
                ("steps", Json.int r.steps);
                ("children", Json.Arr (List.map child r.children));
              ]));
      output_char oc '\n')
    (rounds_oldest_first ())
