(* Per-layer metrics of one traced workload, read off the {!Tracer}.

   Seconds are CPU seconds of the traced run. Every workload reports
   every metric; a layer that does not run on a workload reads 0 there
   (the typed-engine metrics on the flat workloads, for instance). *)

module T = Tracer

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Values only {!Workloads.traffic_burst} produces (from the data-plane
   totals, which no span sees); other workloads report them as 0. *)
let workload_extras =
  [
    ("workload.attempts", "count");
    ("workload.retry_ratio", "ratio");
    ("workload.latency_mean_rounds", "rounds");
    ("workload.latency_max_rounds", "rounds");
  ]

let metrics ~executor (r : Workloads.result) =
  let run_s = r.Workloads.run_s in
  let records = T.rounds_oldest_first () in
  let rounds = List.filter (fun x -> x.T.kind = "round") records in
  let round_ms = List.map (fun x -> 1000.0 *. x.T.dur_s) rounds in
  let n_rounds = List.length rounds in
  let steps = List.fold_left (fun a x -> a + x.T.steps) 0 rounds in
  (* The executor's own time: the run minus every depth-0 layer span. *)
  let exec_self = run_s -. T.top_s.(0) in
  let s l = T.total_s.(l) and c l = float_of_int T.calls.(l) in
  let step_calls = T.calls.(T.d_step) in
  let executor_metrics prefix active =
    let v x = if active then x else 0.0 in
    [
      (prefix ^ ".self_s", v exec_self, "s");
      (prefix ^ ".rounds", v (float_of_int n_rounds), "count");
      (prefix ^ ".frontier_mean", v (ratio steps n_rounds), "count");
      (prefix ^ ".round_p50_ms", v (Stats.percentile round_ms 0.5), "ms");
      (prefix ^ ".round_p99_ms", v (Stats.percentile round_ms 0.99), "ms");
      (prefix ^ ".round_max_ms", v (Stats.percentile round_ms 1.0), "ms");
    ]
  in
  let extras =
    List.map
      (fun (name, unit) ->
        match List.find_opt (fun (n, _, _) -> n = name) r.Workloads.extra with
        | Some (_, v, _) -> (name, v, unit)
        | None -> (name, 0.0, unit))
      workload_extras
  in
  (* Layer self times plus the executor's own time read off the round
     spans, over the independently timed run: 1 when the round spans tile
     the run and every layer span is counted once. *)
  let accounted =
    let layers_self = Array.fold_left ( +. ) 0.0 T.self_s in
    let exec_spans = List.fold_left (fun a x -> a +. x.T.self_s) 0.0 records in
    if run_s > 0.0 then (layers_self +. exec_spans) /. run_s else 0.0
  in
  [
    ("distributed.step_s", s T.d_step, "s");
    ("distributed.step_calls", c T.d_step, "count");
    ("distributed.step_changed_ratio", ratio T.counters.(T.c_step_changed) step_calls, "ratio");
    ( "distributed.step_alloc_words",
      (if step_calls = 0 then 0.0 else T.words.(T.d_step) /. float_of_int step_calls),
      "words" );
    ("distributed.refresh_s", s T.d_refresh, "s");
    ("distributed.refresh_calls", c T.d_refresh, "count");
    ( "distributed.refresh_changed_ratio",
      ratio T.counters.(T.c_refresh_changed) T.calls.(T.d_refresh),
      "ratio" );
    ("distributed.warm_s", s T.d_warm, "s");
    ("distributed.warm_calls", c T.d_warm, "count");
    ("distributed.unpack_s", s T.d_unpack, "s");
    ("distributed.unpack_calls", c T.d_unpack, "count");
    ("distributed.init_s", s T.d_init, "s");
    ("distributed.pack_s", s T.d_pack, "s");
    ("distributed.pack_calls", c T.d_pack, "count");
    ("distributed.handle_s", s T.d_handle, "s");
    ("distributed.handle_calls", c T.d_handle, "count");
    ("distributed.emit_s", s T.d_emit, "s");
    ("distributed.emit_calls", c T.d_emit, "count");
    ( "adversary.self_s",
      T.self_s.(T.a_init) +. T.self_s.(T.a_handle) +. T.self_s.(T.a_emit),
      "s" );
    ("churn.plan_s", s T.churn_plan, "s");
    ("churn.events", float_of_int T.counters.(T.c_churn_events), "count");
    ("topology.build_s", r.Workloads.build_s, "s");
    ("topology.flush_s", s T.topo_flush, "s");
    ("topology.edge_flips", float_of_int T.counters.(T.c_edge_flips), "count");
    ("mobility.step_s", s T.mob_step, "s");
    ("mobility.moved", float_of_int T.counters.(T.c_moved), "count");
    ("workload.tick_s", s T.wl_tick, "s");
    ("workload.self_s", T.self_s.(T.wl_tick), "s");
  ]
  @ extras
  @ [
      ("monitor.probe_s", s T.mon_probe, "s");
      ("monitor.probes", c T.mon_probe, "count");
      ("monitor.probe_p99_ms", Stats.percentile !T.probe_ms 0.99, "ms");
    ]
  @ executor_metrics "flat" (executor = `Flat)
  @ executor_metrics "engine" (executor = `Engine)
  @ [
      ("gc.minor_mwords", !T.gc_minor_words /. 1e6, "Mwords");
      ("gc.major_collections", float_of_int !T.gc_major, "count");
      ("trace.accounted_ratio", accounted, "ratio");
    ]
