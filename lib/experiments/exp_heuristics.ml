type config = {
  shape : Workload.shape;
  trees : int;
  nodes : int;
  pre : int;
  seed : int;
  bound_fraction : float;
  rounds : int;
}

let default_config ?(shape = Workload.Fat) () =
  {
    shape;
    trees = 20;
    nodes = 40;
    pre = 4;
    seed = 1;
    bound_fraction = 0.35;
    rounds = 500;
  }

type row = {
  algorithm : string;
  solved : int;
  avg_power_overhead_percent : float;
  worst_power_overhead_percent : float;
  avg_seconds : float;
}

(* Every registered power solver, in registration order: the exact DP
   first (the reference the overheads are relative to), then the
   heuristics. A newly registered power algorithm joins the ablation
   with no change here. *)
let solvers () =
  List.filter
    (fun (s : Solver.t) ->
      let c = s.Solver.capability in
      c.Solver.handles_power && (not c.Solver.handles_cost)
      && c.Solver.max_nodes = None)
    (Registry.all ())

let run ?domains config =
  let modes = Modes.make [ 5; 10 ] in
  let power = Power.paper_exp3 ~modes in
  let cost = Cost.paper_cheap ~modes:2 in
  let master = Rng.create config.seed in
  (* Instance setup (frontier sweep + reference optimum — the untimed
     DP work) fans out over domains; RNGs are split sequentially first
     so results are identical at any domain count. The timed solver
     loop below stays sequential so no two timed solves share the
     cores. *)
  let rngs = List.init config.trees (fun _ -> Rng.split master) in
  let prepared =
    Par.map ?domains
      (fun rng ->
        let t =
          Generator.random rng
            (Workload.profile config.shape ~nodes:config.nodes ~max_requests:5)
        in
        let tree = Generator.add_pre_existing rng ~mode:2 t config.pre in
        (* Per-tree bound: a point along the frontier's cost range. *)
        match Dp_power.frontier tree ~modes ~power ~cost with
        | [] -> None
        | frontier ->
            let costs = List.map (fun r -> r.Dp_power.cost) frontier in
            let lo = Stats.minimum costs and hi = Stats.maximum costs in
            let bound = lo +. (config.bound_fraction *. (hi -. lo)) in
            let optimum =
              Option.map
                (fun r -> r.Dp_power.power)
                (Dp_power.solve tree ~modes ~power ~cost ~bound ())
            in
            Some ((tree, bound, rng), optimum))
      rngs
    |> List.filter_map Fun.id
  in
  let instances = List.map fst prepared in
  let optima = List.map snd prepared in
  List.map
    (fun (s : Solver.t) ->
      let overheads = ref [] and seconds = ref [] and solved = ref 0 in
      List.iter2
        (fun (tree, bound, rng) optimum ->
          let problem = Problem.min_power tree ~modes ~power ~cost ~bound () in
          let request =
            Solver.request ~rng:(Rng.copy rng) ~rounds:config.rounds ()
          in
          let elapsed, result =
            Stats.time (fun () -> s.Solver.solve problem request)
          in
          seconds := elapsed :: !seconds;
          match (result, optimum) with
          | Some (o : Solver.outcome), Some opt ->
              incr solved;
              let pw = Option.value o.Solver.power ~default:nan in
              overheads := (100. *. ((pw /. opt) -. 1.)) :: !overheads
          | None, _ -> ()
          | Some _, None -> assert false)
        instances optima;
      {
        algorithm = s.Solver.name;
        solved = !solved;
        avg_power_overhead_percent = Stats.mean !overheads;
        worst_power_overhead_percent = Stats.maximum !overheads;
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
          Table.fmt_float ~decimals:2 r.avg_power_overhead_percent;
          Table.fmt_float ~decimals:2 r.worst_power_overhead_percent;
          (if no_time then "-" else Table.fmt_float ~decimals:5 r.avg_seconds);
        ])
    rows;
  table
