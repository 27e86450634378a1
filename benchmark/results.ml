(* The results file: one record per driver invocation, each holding every
   workload's metrics with their per-child samples. [run.exe compare]
   reads two such files. *)

type metric = {
  value : float;  (** the invocation's estimate, which [compare] judges *)
  unit : string;
  samples : float list;  (** every child's raw reading *)
}

type workload = {
  name : string;
  attempted : int;
  failed : int;
  digest : string;
  metrics : (string * metric) list;  (** end-to-end, plus fail_ratio *)
  layers : (string * metric) list;  (** per-layer, traced runs only *)
}

type run = { seed : int; trace : bool; workloads : workload list }

let metric_to_json m =
  Json.Obj
    [
      ("value", Json.Num m.value);
      ("unit", Json.Str m.unit);
      ("samples", Json.Arr (List.map (fun v -> Json.Num v) m.samples));
    ]

let metric_of_json j =
  {
    value = Json.to_num (Json.field "value" j);
    unit = Json.to_str (Json.field "unit" j);
    samples = List.map Json.to_num (Json.to_list (Json.field "samples" j));
  }

let metrics_to_json l = Json.Obj (List.map (fun (k, m) -> (k, metric_to_json m)) l)
let metrics_of_json j = List.map (fun (k, v) -> (k, metric_of_json v)) (Json.to_obj j)

let workload_to_json w =
  Json.Obj
    [
      ("name", Json.Str w.name);
      ("attempted", Json.int w.attempted);
      ("failed", Json.int w.failed);
      ("digest", Json.Str w.digest);
      ("metrics", metrics_to_json w.metrics);
      ("layers", metrics_to_json w.layers);
    ]

let workload_of_json j =
  {
    name = Json.to_str (Json.field "name" j);
    attempted = Json.to_int (Json.field "attempted" j);
    failed = Json.to_int (Json.field "failed" j);
    digest = Json.to_str (Json.field "digest" j);
    metrics = metrics_of_json (Json.field "metrics" j);
    layers = metrics_of_json (Json.field "layers" j);
  }

let run_to_json r =
  Json.Obj
    [
      ("seed", Json.int r.seed);
      ("trace", Json.Bool r.trace);
      ("workloads", Json.Arr (List.map workload_to_json r.workloads));
    ]

let run_of_json j =
  {
    seed = Json.to_int (Json.field "seed" j);
    trace = Json.to_bool (Json.field "trace" j);
    workloads = List.map workload_of_json (Json.to_list (Json.field "workloads" j));
  }

let to_json runs = Json.Obj [ ("runs", Json.Arr (List.map run_to_json runs)) ]
let of_json j = List.map run_of_json (Json.to_list (Json.field "runs" j))

let load path = if Sys.file_exists path then of_json (Json.read_file path) else []
let save path runs = Json.write_file path (to_json runs)
let append path run = save path (load path @ [ run ])
