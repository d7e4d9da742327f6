type config = {
  shape : Workload.shape;
  trees : int;
  nodes : int;
  pre : int;
  seed : int;
  cost : Cost.basic;
}

let default_config ?(shape = Workload.Fat) () =
  {
    shape;
    trees = 20;
    nodes = 60;
    pre = 20;
    seed = 1;
    cost = Cost.basic ~create:0.5 ~delete:0.25 ();
  }

type row = {
  algorithm : string;
  solved : int;
  avg_cost_overhead_percent : float;
  worst_cost_overhead_percent : float;
  avg_seconds : float;
}

(* Every registered closest-policy cost solver: the exact DPs, the
   local search and the pre-oblivious greedy. Other access policies
   (multiple, upwards) optimize a different feasible set and must not
   be differentially compared; size-guarded exhaustive oracles are
   excluded because the ablation runs well past tiny trees. *)
let solvers () =
  List.filter
    (fun (s : Solver.t) ->
      let c = s.Solver.capability in
      c.Solver.handles_cost
      && c.Solver.access = Solver.Closest
      && c.Solver.max_nodes = None)
    (Registry.all ())

let run config =
  let w = Workload.capacity in
  let cost = config.cost in
  let master = Rng.create config.seed in
  let instances =
    List.init config.trees (fun _ ->
        let rng = Rng.split master in
        let t =
          Generator.random rng
            (Workload.profile config.shape ~nodes:config.nodes ~max_requests:6)
        in
        Generator.add_pre_existing rng t config.pre)
  in
  let optima =
    List.map
      (fun tree ->
        Option.map (fun r -> r.Dp_withpre.cost) (Dp_withpre.solve tree ~w ~cost))
      instances
  in
  List.map
    (fun (s : Solver.t) ->
      let overheads = ref [] and seconds = ref [] and solved = ref 0 in
      List.iter2
        (fun tree optimum ->
          let problem = Problem.min_cost tree ~w ~cost in
          let elapsed, result =
            Stats.time (fun () -> s.Solver.solve problem Solver.default_request)
          in
          seconds := elapsed :: !seconds;
          match (result, optimum) with
          | Some (o : Solver.outcome), Some opt ->
              incr solved;
              let c = Option.value o.Solver.cost ~default:nan in
              overheads := (100. *. ((c /. opt) -. 1.)) :: !overheads
          | None, None -> ()
          | None, Some _ | Some _, None ->
              (* All closest-policy cost solvers share one feasibility
                 notion. *)
              assert false)
        instances optima;
      {
        algorithm = s.Solver.name;
        solved = !solved;
        avg_cost_overhead_percent = Stats.mean !overheads;
        worst_cost_overhead_percent = Stats.maximum !overheads;
        avg_seconds = Stats.mean !seconds;
      })
    (solvers ())

let to_table ?(no_time = false) rows =
  let table =
    Table.make
      ~header:
        [ "algorithm"; "solved"; "avg overhead %"; "worst overhead %"; "avg seconds" ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          r.algorithm;
          string_of_int r.solved;
          Table.fmt_float ~decimals:2 r.avg_cost_overhead_percent;
          Table.fmt_float ~decimals:2 r.worst_cost_overhead_percent;
          (if no_time then "-" else Table.fmt_float ~decimals:5 r.avg_seconds);
        ])
    rows;
  table
