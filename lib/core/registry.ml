(* Adapters registering every built-in algorithm with the Solver
   registry. Forcing this module (any call below) populates the table;
   consumers look solvers up through THIS module, never through
   Solver.find directly, so registration can never be missed.

   Each adapter is a thin shim over the module's own solve entry point —
   identical arguments, hence bit-identical placements and counter
   totals; the registry adds one lookup per solve, nothing per node. *)

type Solver.memo += Withpre_memo of Dp_withpre.memo
type Solver.memo += Power_memo of Dp_power.memo

let cap = Solver.capability

(* --- shared outcome builders --- *)

(* Cost-side outcome: Eq. 2 value and reuse accounting from the tree. *)
let cost_outcome (p : Problem.t) solution =
  let cost_model =
    match p.Problem.objective with
    | Problem.Min_cost c -> c
    | _ -> Cost.basic ()
  in
  let cost = Solution.basic_cost p.Problem.tree cost_model solution in
  let objective_value =
    match p.Problem.objective with
    | Problem.Min_cost _ -> cost
    | _ -> float_of_int (Solution.cardinal solution)
  in
  Solver.outcome ~cost
    ~reused:(Solution.reused p.Problem.tree solution)
    ~objective_value solution

let power_outcome (r : Dp_power.result) =
  Solver.outcome ~cost:r.Dp_power.cost ~power:r.Dp_power.power
    ~objective_value:r.Dp_power.power r.Dp_power.solution

let power_args (p : Problem.t) =
  match p.Problem.objective with
  | Problem.Min_power { modes; power; cost; bound } -> (modes, power, cost, bound)
  | _ -> invalid_arg "Registry: cost problem handed to a power solver"

let rng_of (r : Solver.request) =
  match r.Solver.rng with Some rng -> rng | None -> Rng.create 1

(* --- cost solvers --- *)

let greedy =
  {
    Solver.name = "greedy";
    summary = "O(N log N) greedy of [19]; optimal without pre-existing servers";
    capability =
      cap ~handles_cost:true ~handles_coupling:true ~exactness:Solver.Exact ();
    solve =
      (fun p _ ->
        Option.map (cost_outcome p) (Greedy.solve p.Problem.tree ~w:p.Problem.w));
    make_memo = None;
    memo_size = None;
  }

let dp_nopre =
  {
    Solver.name = "dp-nopre";
    summary = "O(N^2) tree-knapsack DP of [6] (MinCost-NoPre cross-check)";
    capability =
      cap ~handles_cost:true ~handles_coupling:true ~exactness:Solver.Exact ();
    solve =
      (fun p _ ->
        Option.map
          (fun r -> cost_outcome p r.Dp_nopre.solution)
          (Dp_nopre.solve p.Problem.tree ~w:p.Problem.w));
    make_memo = None;
    memo_size = None;
  }

let dp_withpre =
  {
    Solver.name = "dp-withpre";
    summary =
      "the paper's update-strategy DP (Theorem 1, Eq. 2 optimal), QoS/bw exact";
    capability =
      cap ~handles_cost:true ~handles_pre:true ~handles_qos:true
        ~handles_bw:true ~handles_coupling:true ~exactness:Solver.Exact
        ~supports_incremental:true ();
    solve =
      (fun p r ->
        let cost =
          match p.Problem.objective with
          | Problem.Min_cost c -> c
          | _ -> Cost.basic ()
        in
        let memo =
          match r.Solver.memo with Some (Withpre_memo m) -> Some m | _ -> None
        in
        Option.map
          (fun (res : Dp_withpre.result) ->
            Solver.outcome ~cost:res.Dp_withpre.cost
              ~reused:res.Dp_withpre.reused
              ~objective_value:
                (match p.Problem.objective with
                | Problem.Min_cost _ -> res.Dp_withpre.cost
                | _ -> float_of_int res.Dp_withpre.servers)
              res.Dp_withpre.solution)
          (Dp_withpre.solve ?memo p.Problem.tree ~w:p.Problem.w ~cost));
    make_memo = Some (fun () -> Withpre_memo (Dp_withpre.memo ()));
    memo_size =
      Some (function Withpre_memo m -> Dp_withpre.memo_size m | _ -> 0);
  }

let heuristic_cost =
  {
    Solver.name = "heuristic-cost";
    summary = "§6 cost-update local search (retarget/drop/hoist/lower/add)";
    capability = cap ~handles_cost:true ~handles_pre:true ~handles_coupling:true ();
    solve =
      (fun p r ->
        let cost =
          match p.Problem.objective with
          | Problem.Min_cost c -> c
          | _ -> Cost.basic ()
        in
        Option.map
          (fun (res : Heuristics_cost.result) ->
            Solver.outcome ~cost:res.Heuristics_cost.cost
              ~reused:res.Heuristics_cost.reused
              ~objective_value:
                (match p.Problem.objective with
                | Problem.Min_cost _ -> res.Heuristics_cost.cost
                | _ -> float_of_int res.Heuristics_cost.servers)
              res.Heuristics_cost.solution)
          (Heuristics_cost.solve p.Problem.tree ~w:p.Problem.w ~cost
             ?max_rounds:r.Solver.rounds ()));
    make_memo = None;
    memo_size = None;
  }

(* --- constrained cost solvers (QoS + bandwidth, closest policy) --- *)

let greedy_qos =
  {
    Solver.name = "greedy-qos";
    summary = "constraint-aware greedy; feasibility-complete, not optimal";
    capability =
      cap ~handles_cost:true ~handles_qos:true ~handles_bw:true
        ~handles_coupling:true ();
    solve =
      (fun p _ ->
        Option.map (cost_outcome p)
          (Greedy_qos.solve p.Problem.tree ~w:p.Problem.w));
    make_memo = None;
    memo_size = None;
  }

(* --- power solvers --- *)

let dp_power =
  {
    Solver.name = "dp-power";
    summary = "the paper's sparse-state power DP (Theorem 3, Eq. 3/4 optimal)";
    capability =
      cap ~handles_power:true ~handles_pre:true ~handles_bound:true
        ~exactness:Solver.Exact ~supports_domains:true ~supports_prune:true
        ~supports_incremental:true ();
    solve =
      (fun p r ->
        let modes, power, cost, bound = power_args p in
        let memo =
          match r.Solver.memo with Some (Power_memo m) -> Some m | _ -> None
        in
        Option.map power_outcome
          (Dp_power.solve p.Problem.tree ~modes ~power ~cost ~bound
             ?prune:r.Solver.prune ?domains:r.Solver.domains ?memo ()));
    make_memo = Some (fun () -> Power_memo (Dp_power.memo ()));
    memo_size = Some (function Power_memo m -> Dp_power.memo_size m | _ -> 0);
  }

let gr_power =
  {
    Solver.name = "gr-power";
    summary = "§5.2 greedy capacity sweep, cheapest-power candidate in bound";
    capability = cap ~handles_power:true ~handles_bound:true ();
    solve =
      (fun p _ ->
        let modes, power, cost, bound = power_args p in
        Option.map power_outcome
          (Greedy_power.solve p.Problem.tree ~modes ~power ~cost ~bound ()));
    make_memo = None;
    memo_size = None;
  }

let hill_climb =
  {
    Solver.name = "heuristic";
    summary = "§6 power hill-climb over drop/hoist/lower/add moves";
    capability =
      cap ~handles_power:true ~handles_pre:true ~handles_bound:true ();
    solve =
      (fun p r ->
        let modes, power, cost, bound = power_args p in
        Option.map power_outcome
          (Heuristics.solve p.Problem.tree ~modes ~power ~cost ~bound
             ?max_rounds:r.Solver.rounds ()));
    make_memo = None;
    memo_size = None;
  }

let multi_start =
  {
    Solver.name = "multi-start";
    summary = "hill-climb from every sweep candidate plus random restarts";
    capability =
      cap ~handles_power:true ~handles_pre:true ~handles_bound:true ();
    solve =
      (fun p r ->
        let modes, power, cost, bound = power_args p in
        Option.map power_outcome
          (Heuristics.solve_restarts p.Problem.tree ~modes ~power ~cost ~bound
             ?max_rounds:r.Solver.rounds (rng_of r)));
    make_memo = None;
    memo_size = None;
  }

let anneal =
  {
    Solver.name = "anneal";
    summary = "simulated annealing over the same move set";
    capability =
      cap ~handles_power:true ~handles_pre:true ~handles_bound:true ();
    solve =
      (fun p r ->
        let modes, power, cost, bound = power_args p in
        Option.map power_outcome
          (Heuristics.anneal p.Problem.tree ~modes ~power ~cost ~bound
             ?iterations:r.Solver.rounds (rng_of r)));
    make_memo = None;
    memo_size = None;
  }

(* --- access-policy extensions --- *)

let multiple =
  {
    Solver.name = "multiple";
    summary = "Multiple access policy (requests may split); exact DP";
    capability =
      cap ~handles_cost:true ~exactness:Solver.Exact
        ~access:Solver.Multiple_access ();
    solve =
      (fun p _ ->
        Option.map
          (fun (r : Multiple.result) -> cost_outcome p r.Multiple.solution)
          (Multiple.solve p.Problem.tree ~w:p.Problem.w));
    make_memo = None;
    memo_size = None;
  }

let upwards =
  {
    Solver.name = "upwards";
    summary = "Upwards access policy; bottom-up first-fit-decreasing heuristic";
    capability = cap ~handles_cost:true ~access:Solver.Upwards_access ();
    solve =
      (fun p _ ->
        Option.map
          (fun (r : Upwards.result) -> cost_outcome p r.Upwards.solution)
          (Upwards.solve_heuristic p.Problem.tree ~w:p.Problem.w));
    make_memo = None;
    memo_size = None;
  }

(* --- exhaustive oracle --- *)

let brute =
  {
    Solver.name = "brute";
    summary = "exhaustive subset enumeration (test oracle, tiny trees)";
    capability =
      cap ~handles_cost:true ~handles_power:true ~handles_pre:true
        ~handles_bound:true ~handles_qos:true ~handles_bw:true
        ~handles_coupling:true ~exactness:Solver.Exact
        ~max_nodes:Brute.max_nodes ();
    solve =
      (fun p _ ->
        match p.Problem.objective with
        | Problem.Min_servers ->
            Option.map
              (fun (_, sol) -> cost_outcome p sol)
              (Brute.min_servers p.Problem.tree ~w:p.Problem.w)
        | Problem.Min_cost cost ->
            Option.map
              (fun (_, sol) -> cost_outcome p sol)
              (Brute.min_basic_cost p.Problem.tree ~w:p.Problem.w ~cost)
        | Problem.Min_power { modes; power; cost; bound } ->
            Option.map
              (fun (pw, sol) ->
                Solver.outcome ~power:pw
                  ~cost:(Solution.modal_cost p.Problem.tree modes cost sol)
                  ~objective_value:pw sol)
              (Brute.min_power p.Problem.tree ~modes ~power ~cost ~bound ()));
    make_memo = None;
    memo_size = None;
  }

let () =
  List.iter Solver.register
    [
      greedy;
      dp_nopre;
      dp_withpre;
      heuristic_cost;
      greedy_qos;
      dp_power;
      gr_power;
      hill_climb;
      multi_start;
      anneal;
      multiple;
      upwards;
      brute;
    ]

(* [dp-qos] named the constrained DP before [dp-withpre] took over its
   QoS and bandwidth transitions; the name still resolves. *)
let find = function "dp-qos" -> Some dp_withpre | name -> Solver.find name
let all = Solver.all
let names = Solver.names
let list_algos = Solver.list_algos
let matrix_markdown = Solver.matrix_markdown

let default_for = function
  | Problem.Min_servers | Problem.Min_cost _ -> dp_withpre
  | Problem.Min_power _ -> dp_power
