(* The four workloads. Each builds its inputs from the seed alone,
   exposes one deterministic pass of operations to the harness, and
   verifies every recorded result against an independent recomputation
   after the measured loop. *)

open Harness
module Engine = Replica_engine.Engine
module Timeline = Replica_engine.Timeline
module Forest = Replica_forest.Forest
module Forest_trace = Replica_forest.Forest_trace
module Forest_engine = Replica_forest.Forest_engine
module Forest_timeline = Replica_forest.Forest_timeline
module Arrivals = Replica_trace.Arrivals
module Epochs = Replica_trace.Epochs

type size = Full | Tiny

let span = Span.with_span
let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.abs b)

(* Requests escaping past the root plus load beyond [w] on any server. *)
let shortfall tree ~w sol =
  let ev = Solution.evaluate tree sol in
  List.fold_left
    (fun acc (_, load) -> acc + max 0 (load - w))
    ev.Solution.unserved ev.Solution.loads

let is_valid tree ~w sol = Result.is_ok (Solution.validate tree ~w sol)

(* Results recorded per operation number. Operation [k] repeats
   operation [k mod cycle] on identical inputs, so later passes must
   reproduce the first bit for bit. *)
let recorder () = Hashtbl.create 1024

let repeats_first results ~cycle ~equal k v =
  k < cycle
  || match Hashtbl.find_opt results (k mod cycle) with
     | Some first -> equal first v
     | None -> true

(* The verdict over every recorded result: [judge k r] gives the
   requests operation [k] offered, how many it left unserved, and
   whether it verified; [value r] is its objective, summed over the
   first pass in operation order so the sum is deterministic. *)
let verdict results ~cycle ~judge ~value =
  let failed = ref 0 and offered = ref 0 and unserved = ref 0 in
  Hashtbl.iter
    (fun k r ->
      let o, u, ok = judge k r in
      offered := !offered + o;
      unserved := !unserved + u;
      if not ok then incr failed)
    results;
  let objective = ref 0. in
  for k = 0 to cycle - 1 do
    Option.iter
      (fun r -> objective := !objective +. value r)
      (Hashtbl.find_opt results k)
  done;
  {
    failed = !failed;
    offered = !offered;
    unserved = !unserved;
    objective = !objective;
  }

(* --- power-dp: dp-power registry solves over a fixed pool --- *)

let power_dp size ~seed =
  let pool, nodes = match size with Full -> (96, 24) | Tiny -> (2, 20) in
  let modes = Modes.make [ 4; 7; 10 ] in
  let power = Power.paper_exp3 ~modes and cost = Cost.paper_cheap ~modes:3 in
  let w = Modes.max_capacity modes in
  let solver = Option.get (Registry.find "dp-power") in
  let setup () =
    let root = Rng.create seed in
    let trees =
      span "tree.generate" (fun () ->
          Array.init pool (fun i ->
              let rng = Rng.derive root i in
              Generator.add_pre_existing rng ~mode:2
                (Generator.random rng (Generator.fat ~nodes ()))
                5))
    in
    (* Request 2i asks tree i for unbounded MinPower, request 2i+1 for
       MinPower-BoundedCost at the cost of the middle point of tree i's
       frontier; the expected answers are frontier points. *)
    let frontiers =
      span "bench.frontier" (fun () ->
          Array.map
            (fun t -> Array.of_list (Dp_power.frontier t ~modes ~power ~cost))
            trees)
    in
    let requests =
      Array.init (2 * pool) (fun r ->
          let tree = trees.(r / 2) and f = frontiers.(r / 2) in
          let last = Array.length f - 1 in
          let expected, bound =
            if r mod 2 = 0 then (f.(last), infinity)
            else (f.(last / 2), f.(last / 2).Dp_power.cost)
          in
          (tree, Problem.min_power tree ~modes ~power ~cost ~bound (), expected))
    in
    let cycle = Array.length requests in
    let results = recorder () in
    let op k =
      let _, problem, _ = requests.(k mod cycle) in
      let o =
        span "solver.solve" (fun () ->
            solver.Solver.solve problem Solver.default_request)
      in
      fun () ->
        Hashtbl.replace results k o;
        []
    in
    let judge k (o : Solver.outcome option) =
      let tree, problem, (expected : Dp_power.result) = requests.(k mod cycle) in
      let offered = Tree.total_requests tree in
      match o with
      | None -> (offered, offered, false)
      | Some o ->
          let sol = o.Solver.solution in
          let p = Option.value o.Solver.power ~default:nan
          and c = Option.value o.Solver.cost ~default:nan in
          ( offered,
            shortfall tree ~w sol,
            is_valid tree ~w sol
            && close (Solution.power tree modes power sol) p
            && close (Solution.modal_cost tree modes cost sol) c
            && c <= Problem.bound problem *. (1. +. 1e-9)
            && close p expected.Dp_power.power
            && repeats_first results ~cycle k (Some o) ~equal:(fun a b ->
                   match (a, b) with
                   | Some a, Some b ->
                       Solution.equal a.Solver.solution b.Solver.solution
                       && a.Solver.power = b.Solver.power
                   | _ -> false) )
    in
    let value (o : Solver.outcome option) =
      Option.fold ~none:0. ~some:(fun o -> Option.value o.Solver.power ~default:0.) o
    in
    let verify () = verdict results ~cycle ~judge ~value in
    { cycle; begin_pass = ignore; op; verify }
  in
  { name = "power-dp"; warmup = 2; setup }

(* --- power-gr-large: GR on large sparse instances --- *)

let power_gr_large size ~seed =
  let pool, nodes = match size with Full -> (32, 1000) | Tiny -> (2, 120) in
  let setup () =
    let root = Rng.create seed in
    (* The shape of the large-N scaling rows: sparse demand, three
       pre-existing servers, a mode ladder that tracks the total load. *)
    let instances =
      span "tree.generate" (fun () ->
          Array.init pool (fun i ->
              let rng = Rng.derive root i in
              let profile =
                { (Generator.fat ~nodes ()) with Generator.max_requests = 2 }
              in
              Generator.add_pre_existing rng ~mode:2
                (Generator.random rng profile)
                3))
      |> Array.map (fun tree ->
             let load = max 4 (Tree.total_requests tree) in
             let modes = Modes.make [ load / 4; load / 2 ] in
             (tree, modes, Power.paper_exp3 ~modes))
    in
    let cost = Cost.paper_cheap ~modes:2 in
    let cycle = pool in
    let results = recorder () in
    let op k =
      let tree, modes, power = instances.(k mod cycle) in
      let r =
        span "greedy_power.solve" (fun () ->
            Greedy_power.solve tree ~modes ~power ~cost ())
      in
      fun () ->
        Hashtbl.replace results k r;
        []
    in
    (* The exact optimum, once per instance and never timed. *)
    let optimum =
      Array.map
        (fun (tree, modes, power) ->
          lazy
            (Option.map
               (fun (r : Dp_power.result) -> r.Dp_power.power)
               (Dp_power.solve tree ~modes ~power ~cost ())))
        instances
    in
    let judge k r =
      let tree, modes, power = instances.(k mod cycle) in
      let w = Modes.max_capacity modes and offered = Tree.total_requests tree in
      match (r, Lazy.force optimum.(k mod cycle)) with
      | Some (r : Dp_power.result), Some best ->
          let sol = r.Dp_power.solution in
          ( offered,
            shortfall tree ~w sol,
            is_valid tree ~w sol
            && close (Solution.power tree modes power sol) r.Dp_power.power
            && close (Solution.modal_cost tree modes cost sol) r.Dp_power.cost
            && r.Dp_power.power >= best *. (1. -. 1e-9)
            && repeats_first results ~cycle k (Some r) ~equal:(fun a b ->
                   match (a, b) with
                   | Some a, Some b ->
                       Solution.equal a.Dp_power.solution b.Dp_power.solution
                   | _ -> false) )
      | _ -> (offered, offered, false)
    in
    let value =
      Option.fold ~none:0. ~some:(fun (r : Dp_power.result) -> r.Dp_power.power)
    in
    let verify () = verdict results ~cycle ~judge ~value in
    { cycle; begin_pass = ignore; op; verify }
  in
  { name = "power-gr-large"; warmup = 1; setup }

(* --- engine-drift: single-tree engines over trace-driven epoch streams --- *)

let w = 10
let reconfig_cost = Cost.basic ~create:0.5 ~delete:0.25 ()

let engine_config solver =
  Engine.config ~policy:Update_policy.Systematic ~solver ~algo:"dp-withpre" ~w
    (Engine.Min_cost reconfig_cost)

(* No node's own clients may exceed [w], so a server on every client
   node serves the epoch: every epoch is serveable. *)
let serveable view =
  Tree.with_clients view (fun j ->
      let rec take budget = function
        | r :: rest when r <= budget -> r :: take (budget - r) rest
        | _ -> []
      in
      take w (Tree.clients view j))

(* Eq. 2 bill of moving from [prev] to [sol] on this epoch's view. *)
let step_cost view ~prev sol =
  let marked =
    Tree.with_pre_existing view (List.map (fun j -> (j, 1)) (Solution.nodes prev))
  in
  Solution.basic_cost marked reconfig_cost sol

(* Several independent streams per pass, one engine each, so that the
   figures average over trees rather than hang on one. *)
let engine_drift size ~seed =
  let streams, nodes, bursts, stretch, window =
    match size with
    | Full -> (12, 160, 3, 12., 6.)
    | Tiny -> (2, 30, 1, 6., 3.)
  in
  let horizon = float_of_int (2 * bursts) *. stretch in
  (* Quiet Poisson stretches alternate with flash bursts on the first
     root subtree. *)
  let stream root =
    let tree =
      span "tree.generate" (fun () ->
          Generator.random (Rng.derive root 0)
            { (Generator.fat ~nodes ()) with Generator.max_requests = 3 })
    in
    let trace =
      span "trace.generate" (fun () ->
          let base = Arrivals.poisson (Rng.derive root 1) tree ~horizon in
          let node =
            match Tree.children tree (Tree.root tree) with
            | c :: _ -> c
            | [] -> Tree.root tree
          in
          List.fold_left
            (fun base b ->
              Arrivals.flash_crowd (Rng.derive root (2 + b)) tree ~base
                ~at:(float_of_int ((2 * b) + 1) *. stretch)
                ~duration:stretch ~node ~multiplier:2.)
            base
            (List.init bursts Fun.id))
    in
    span "trace.epochs" (fun () ->
        Array.of_list (List.map serveable (Epochs.epochs trace tree ~window)))
  in
  let setup () =
    let root = Rng.create seed in
    let views = Array.init streams (fun t -> stream (Rng.derive root t)) in
    let epochs = Array.length views.(0) in
    let cycle = streams * epochs in
    let fresh () =
      Array.init streams (fun _ -> Engine.create (engine_config Engine.Incremental))
    in
    let engines = ref (fresh ()) in
    let begin_pass () = engines := fresh () in
    let results = recorder () in
    (* Operation i of a pass is epoch (i mod epochs) of stream (i / epochs). *)
    let view i = views.((i mod cycle) / epochs).(i mod epochs) in
    let op k =
      let e = Engine.step !engines.((k mod cycle) / epochs) (view k) in
      fun () ->
        Hashtbl.replace results k e;
        []
    in
    let verify () =
      (* Reference: a full re-solve every epoch. *)
      let reference =
        Array.concat
          (Array.to_list
             (Array.map
                (fun vs ->
                  let full = Engine.create (engine_config Engine.Full) in
                  Array.map (fun v -> (Engine.step full v).Timeline.servers) vs)
                views))
      in
      let judge k (e : Timeline.entry) =
        let i = k mod cycle in
        let prev = if i mod epochs = 0 then Solution.empty else reference.(i - 1) in
        ( e.Timeline.demand,
          e.Timeline.unserved,
          Solution.equal e.Timeline.servers reference.(i)
          && e.Timeline.valid
          && is_valid (view i) ~w e.Timeline.servers
          && close e.Timeline.step_cost
               (if e.Timeline.reconfigured then
                  step_cost (view i) ~prev e.Timeline.servers
                else 0.) )
      in
      verdict results ~cycle ~judge ~value:(fun e -> e.Timeline.step_cost)
    in
    { cycle; begin_pass; op; verify }
  in
  { name = "engine-drift"; warmup = 2; setup }

(* --- forest-coupled: coupled forest epochs over a shared pool --- *)

let domains = 2

let forest_coupled size ~seed =
  let shards, nodes, servers, horizon, window =
    match size with
    | Full -> (80, 80, 12000, 32., 2.)
    | Tiny -> (6, 20, 60, 6., 2.)
  in
  let cfg domains =
    {
      Forest_engine.engine = engine_config Engine.Incremental;
      coupling = true;
      domains;
    }
  in
  let setup () =
    let forest =
      span "tree.generate" (fun () ->
          Forest.generate
            {
              Forest.trees = shards;
              objects = shards;
              servers;
              profile =
                { (Generator.fat ~nodes ()) with Generator.max_requests = 3 };
              seed;
            })
    in
    let ft =
      span "trace.generate" (fun () ->
          Forest_trace.generate forest ~horizon ~seed:(seed + 1)
            Forest_trace.Poisson)
    in
    let grid =
      span "trace.epochs" (fun () ->
          Array.of_list (Forest_trace.epochs ft forest ~window))
    in
    let cycle = Array.length grid in
    let fe = ref (Forest_engine.create forest (cfg domains)) in
    let begin_pass () = fe := Forest_engine.create forest (cfg domains) in
    let results = recorder () in
    let op k =
      let e =
        span "forest.step" (fun () -> Forest_engine.step !fe grid.(k mod cycle))
      in
      fun () ->
        Hashtbl.replace results k (e, Forest_engine.placements !fe);
        [
          ("forest.repair_added", float_of_int e.Forest_timeline.repair_added);
          ( "forest.coupling_overloads",
            float_of_int e.Forest_timeline.coupling_overloads );
          ("forest.unrepaired", float_of_int e.Forest_timeline.unrepaired);
        ]
    in
    let verify () =
      (* Reference: the same epochs stepped on one domain. *)
      let reference =
        let seq = Forest_engine.create forest (cfg 1) in
        Array.map
          (fun views ->
            ignore (Forest_engine.step seq views : Forest_timeline.entry);
            Forest_engine.placements seq)
          grid
      in
      let judge k ((e : Forest_timeline.entry), placements) =
          let i = k mod cycle in
          let trees = Array.of_list grid.(i) in
          let loads = Forest.server_loads forest ~trees placements in
          let excess = Array.fold_left (fun a l -> a + max 0 (l - w)) 0 loads in
          let overloaded =
            Array.fold_left (fun a l -> if l > w then a + 1 else a) 0 loads
          in
          let shard_short = ref 0 and shard_ok = ref true in
          Array.iteri
            (fun o sol ->
              let short = shortfall trees.(o) ~w sol in
              shard_short := !shard_short + short;
              (* A shard may only fail its own epoch if the epoch was
                 unserveable: some node's own clients exceed [w]. *)
              if
                short > 0
                && Tree.fold_postorder trees.(o) ~init:true ~f:(fun ok j ->
                       ok && Tree.client_load trees.(o) j <= w)
              then shard_ok := false)
            placements;
          ( e.Forest_timeline.demand,
            excess + !shard_short,
            !shard_ok
            && Array.for_all2 Solution.equal placements reference.(i)
            && overloaded = e.Forest_timeline.unrepaired
            && Array.fold_left (fun a s -> a + Solution.cardinal s) 0 placements
               = e.Forest_timeline.servers )
      in
      verdict results ~cycle ~judge ~value:(fun (e, _) ->
          e.Forest_timeline.step_cost)
    in
    { cycle; begin_pass; op; verify }
  in
  { name = "forest-coupled"; warmup = 1; setup }

let all size ~seed =
  [
    power_dp size ~seed;
    power_gr_large size ~seed;
    engine_drift size ~seed;
    forest_coupled size ~seed;
  ]
