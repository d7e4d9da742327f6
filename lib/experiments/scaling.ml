type measurement = {
  algorithm : string;
  nodes : int;
  pre_existing : int;
  seconds : float;
  allocated_mb : float;
  peak_major_words : int;
  servers : int;
}

(* Registry solvers of the requested family that run at any scale:
   closest-policy only (other access policies answer a different
   question) and unguarded (the exhaustive oracle would not survive
   these sizes). *)
let registry_solvers ~power_family =
  List.filter
    (fun (s : Solver.t) ->
      let c = s.Solver.capability in
      c.Solver.access = Solver.Closest
      && c.Solver.max_nodes = None
      &&
      if power_family then c.Solver.handles_power && not c.Solver.handles_cost
      else c.Solver.handles_cost)
    (Registry.all ())

let measure (s : Solver.t) problem ~nodes ~pre_existing =
  (* Memory axis of the sweep: bytes allocated by the solve and the
     major-heap high-water mark after it — the per-N baseline the
     planned arena DP core will be measured against. top_heap_words is
     cumulative across the process, so sweeps read it in increasing-N
     order (which measure_* guarantee). *)
  let bytes0 = Gc.allocated_bytes () in
  let seconds, outcome =
    Stats.time (fun () -> s.Solver.solve problem Solver.default_request)
  in
  let allocated_mb = (Gc.allocated_bytes () -. bytes0) /. 1e6 in
  {
    algorithm = s.Solver.name;
    nodes;
    pre_existing;
    seconds;
    allocated_mb;
    peak_major_words = (Gc.quick_stat ()).Gc.top_heap_words;
    servers =
      (match outcome with
      | Some (o : Solver.outcome) -> o.Solver.servers
      | None -> -1);
  }

(* Above [dp_cap] nodes only the near-linear solvers run: the DP
   tables are Theta(E * N) cells per node, so a 10^5-node row would
   wait out quadratic work instead of pinning the per-node constants
   the large-N rows exist to track. *)
let dp_cap = 4_000
let scales_to_large (s : Solver.t) =
  match s.Solver.name with "greedy" | "greedy-qos" -> true | _ -> false

let measure_cost_algorithms ?(sizes = [ 20; 40; 80; 160; 100_000; 1_000_000 ])
    ?(seed = 7) ~shape () =
  let w = Workload.capacity in
  let cost = Cost.basic ~create:0.01 ~delete:0.0001 () in
  List.concat_map
    (fun nodes ->
      let rng = Rng.create (seed + nodes) in
      let bare =
        Generator.random rng (Workload.profile shape ~nodes ~max_requests:6)
      in
      let pre = nodes / 4 in
      let tree = Generator.add_pre_existing rng bare pre in
      let problem = Problem.min_cost tree ~w ~cost in
      List.filter_map
        (fun s ->
          if nodes > dp_cap && not (scales_to_large s) then None
          else Some (measure s problem ~nodes ~pre_existing:pre))
        (registry_solvers ~power_family:false))
    sizes

let measure_power_dp ?(sizes = [ 10; 20; 30 ]) ?(pre = 3) ?(seed = 7) ~shape
    () =
  let modes = Modes.make [ 5; 10 ] in
  let power = Power.paper_exp3 ~modes in
  let cost = Cost.paper_cheap ~modes:2 in
  List.concat_map
    (fun nodes ->
      let rng = Rng.create (seed + nodes) in
      let bare =
        Generator.random rng (Workload.profile shape ~nodes ~max_requests:5)
      in
      let tree = Generator.add_pre_existing rng ~mode:2 bare (min pre nodes) in
      let problem = Problem.min_power tree ~modes ~power ~cost () in
      List.map
        (fun s -> measure s problem ~nodes ~pre_existing:(min pre nodes))
        (registry_solvers ~power_family:true))
    sizes

(* Large-N power rows: the mode ladder tracks the instance's total
   load, so the optimum stays a handful of servers, the packed-key
   layout fits its 62-bit budget, and the row measures the DP
   machinery's per-node constants (table walks, arena pushes) rather
   than state-space growth — which the classic sizes above cover.
   Only the DP and its greedy baseline run: the local-search
   heuristics would dominate the wall clock without adding a data
   point about the packed core. *)
let measure_power_dp_large ?(sizes = [ 1_000; 10_000 ]) ?(pre = 3) ?(seed = 7)
    ~shape () =
  List.concat_map
    (fun nodes ->
      let rng = Rng.create (seed + nodes) in
      let bare =
        Generator.random rng (Workload.profile shape ~nodes ~max_requests:2)
      in
      let pre = min pre nodes in
      let tree = Generator.add_pre_existing rng ~mode:2 bare pre in
      let load = max 4 (Tree.total_requests tree) in
      let modes = Modes.make [ load / 4; load / 2 ] in
      let power = Power.paper_exp3 ~modes in
      let cost = Cost.paper_cheap ~modes:2 in
      let problem = Problem.min_power tree ~modes ~power ~cost () in
      List.filter_map
        (fun (s : Solver.t) ->
          match s.Solver.name with
          | "dp-power" | "gr-power" ->
              Some (measure s problem ~nodes ~pre_existing:pre)
          | _ -> None)
        (registry_solvers ~power_family:true))
    sizes

let to_table measurements =
  let table =
    Table.make
      ~header:
        [ "algorithm"; "N"; "E"; "seconds"; "alloc_mb"; "peak_heap_w"; "servers" ]
  in
  List.iter
    (fun m ->
      Table.add_row table
        [
          m.algorithm;
          string_of_int m.nodes;
          string_of_int m.pre_existing;
          Table.fmt_float ~decimals:4 m.seconds;
          Table.fmt_float ~decimals:2 m.allocated_mb;
          string_of_int m.peak_major_words;
          string_of_int m.servers;
        ])
    measurements;
  table
