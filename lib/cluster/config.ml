type t = {
  metric : Metric.t;
  tie : Order.tie;
  fusion : bool;
  use_dag_names : bool;
  gamma : Gamma.t;
}

let basic =
  {
    metric = Metric.Density;
    tie = Order.Id_only;
    fusion = false;
    use_dag_names = false;
    gamma = Gamma.delta_sq;
  }

let with_dag = { basic with use_dag_names = true }

let improved =
  {
    basic with
    tie = Order.Incumbent_then_id;
    fusion = true;
  }

let improved_with_dag = { improved with use_dag_names = true }

let make ?(metric = Metric.Density) ?(tie = Order.Id_only) ?(fusion = false)
    ?(gamma = Gamma.delta_sq) () =
  { metric; tie; fusion; use_dag_names = false; gamma }

let pp ppf t =
  Fmt.pf ppf "{metric=%a; tie=%a; fusion=%b; dag=%b; gamma=%a}" Metric.pp
    t.metric Order.pp_tie t.tie t.fusion t.use_dag_names Gamma.pp t.gamma
