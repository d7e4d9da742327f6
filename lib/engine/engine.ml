type objective = Problem.objective =
  | Min_servers
  | Min_cost of Cost.basic
  | Min_power of {
      modes : Modes.t;
      power : Power.t;
      cost : Cost.modal;
      bound : float;
    }

type solver = Full | Incremental

type config = {
  w : int;
  objective : objective;
  policy : Update_policy.policy;
  solver : solver;
  algo : string option;
  report_power : (Modes.t * Power.t) option;
}

let config ?(policy = Update_policy.Lazy) ?(solver = Incremental) ?algo
    ?report_power ~w objective =
  { w; objective; policy; solver; algo; report_power }

module Span = Replica_obs.Span
module Histogram = Replica_obs.Histogram
module Metrics = Replica_obs.Metrics
module Clock = Replica_obs.Clock

type t = {
  cfg : config;
  entry_solver : Solver.t;  (* registry entry reconfigurations go through *)
  lat_h : Histogram.t;
      (* per-instance (unregistered) so concurrent engines in an
         experiment sweep don't mix their timelines' percentiles *)
  m_epochs : Metrics.t;
  m_reconfigs : Metrics.t;
  m_staleness : Metrics.t;
  m_solve : Metrics.t;
  m_memo : Metrics.t;
  memo : Solver.memo option;
      (* solver-private incremental state, threaded back each epoch *)
  mutable placement : Solution.t;
  mutable placement_modes : (Tree.node * int) list;
      (* pre-existing set (with initial modes) the next solve starts from *)
  mutable last_demand : int;  (* total demand at the last reconfiguration *)
  mutable epoch : int;
  mutable staleness : int;
  mutable prev : Tree.t option;  (* previous epoch's demand tree *)
}

(* Capability validation at engine creation, without a demand tree in
   hand yet: the objective/bound checks of {!Solver.mismatch} on the
   configured entry. Failing here beats silently holding position every
   epoch because the solver rejects the problem. *)
let resolve_solver cfg =
  let entry =
    match cfg.algo with
    | None -> Registry.default_for cfg.objective
    | Some name -> (
        match Registry.find name with
        | Some s -> s
        | None ->
            invalid_arg
              (Printf.sprintf "Engine: unknown solver %S (see --list-algos)"
                 name))
  in
  let c = entry.Solver.capability in
  (match cfg.objective with
  | Min_power { bound; _ } ->
      if not c.Solver.handles_power then
        invalid_arg
          (Printf.sprintf "Engine: %s solves cost problems only"
             entry.Solver.name);
      if bound < infinity && not c.Solver.handles_bound then
        invalid_arg
          (Printf.sprintf "Engine: %s does not support a finite cost bound"
             entry.Solver.name)
  | Min_servers | Min_cost _ ->
      if not c.Solver.handles_cost then
        invalid_arg
          (Printf.sprintf "Engine: %s solves power problems only"
             entry.Solver.name));
  entry

let create cfg =
  if cfg.w <= 0 then invalid_arg "Engine: w must be positive";
  (match cfg.objective with
  | Min_power { modes; _ } when Modes.max_capacity modes <> cfg.w ->
      invalid_arg "Engine: w must equal the mode ladder's maximal capacity"
  | _ -> ());
  Update_policy.validate cfg.policy;
  let entry_solver = resolve_solver cfg in
  (* Labeled registry instruments, interned by (name, labels): two
     engines with the same solver and policy share series, and the
     exposition distinguishes e.g. solver="dp-withpre" from
     solver="greedy". Updates are side-effect-only — placements are
     bit-identical with telemetry consumers attached or not. *)
  let labels =
    [
      ("solver", entry_solver.Solver.name);
      ("policy", Update_policy.policy_to_string cfg.policy);
    ]
  in
  {
    cfg;
    entry_solver;
    lat_h = Histogram.make "engine.epoch_solve_ns";
    m_epochs = Metrics.counter ~labels "engine.epochs";
    m_reconfigs = Metrics.counter ~labels "engine.reconfigurations";
    m_staleness = Metrics.gauge ~labels "engine.staleness";
    m_solve = Metrics.histogram ~labels "engine.epoch_solve_ns";
    m_memo = Metrics.histogram ~labels "engine.memo_hit_ratio_pct";
    memo =
      (match (cfg.solver, entry_solver.Solver.make_memo) with
      | Incremental, Some mk
        when entry_solver.Solver.capability.Solver.supports_incremental ->
          Some (mk ())
      | _ -> None);
    placement = Solution.empty;
    placement_modes = [];
    last_demand = 0;
    epoch = 0;
    staleness = 0;
    prev = None;
  }

let placement t = t.placement
let epochs_served t = t.epoch
let solver_name t = t.entry_solver.Solver.name

let memo_tables t =
  match (t.memo, t.entry_solver.Solver.memo_size) with
  | Some m, Some size -> size m
  | _ -> 0

(* Memo hit percentage over this epoch's solve, from the counter
   deltas; None when the solver consulted no memo at all. *)
let memo_hit_pct counters =
  let get k = try List.assoc k counters with Not_found -> 0 in
  let hits = get "dp_withpre.memo_hits" + get "dp_power.memo_hits" in
  let total =
    hits
    + get "dp_withpre.memo_partial"
    + get "dp_withpre.memo_misses"
    + get "dp_power.memo_partial"
    + get "dp_power.memo_misses"
  in
  if total = 0 then None else Some (100 * hits / total)

(* Operating mode of every server under its load this epoch — the
   initial modes of the next epoch's pre-existing set. *)
let modes_of_loads cfg loads =
  match cfg.objective with
  | Min_servers | Min_cost _ -> List.map (fun (j, _) -> (j, 1)) loads
  | Min_power { modes; _ } ->
      List.map (fun (j, load) -> (j, Modes.mode_of_load modes load)) loads

(* A coordinator (the forest's coupling repair) may adjust this epoch's
   placement after [step] returns; recording it here makes the adjusted
   set — with its operating modes — the pre-existing state the next
   epoch's solve starts from, exactly as if [step] had chosen it. *)
let override_placement t tree solution =
  t.placement <- solution;
  t.placement_modes <-
    modes_of_loads t.cfg (Solution.evaluate tree solution).Solution.loads

(* An invalid epoch's shortfall (requests escaping past the root plus
   per-server load beyond capacity) and overloaded-server count, read
   off its violations. *)
let shortfall ~w violations =
  List.fold_left
    (fun (unserved, overloaded) -> function
      | Solution.Overloaded (_, load) -> (unserved + load - w, overloaded + 1)
      | Solution.Unserved u -> (unserved + u, overloaded)
      | Solution.Qos_violated _ | Solution.Link_overloaded _ ->
          (unserved, overloaded))
    (0, 0) violations

let solve_once t tree =
  let with_pre = Tree.with_pre_existing tree t.placement_modes in
  let problem = Problem.make with_pre ~w:t.cfg.w t.cfg.objective in
  let request = Solver.request ?memo:t.memo () in
  (* [step] brackets this call with its own counter snapshots (the
     timeline wants deltas even for failed solves), so invoke the
     entry's solve directly rather than through {!Solver.run}. *)
  match t.entry_solver.Solver.solve problem request with
  | Some o ->
      Some (o.Solver.solution, Option.value o.Solver.cost ~default:0.)
  | None -> None

(* Epoch trees may acquire QoS/bandwidth constraints mid-run (the CLI's
   [--qos Q@E] / [--bw S@E] tightening); an entry solver that cannot
   enforce them would keep emitting placements that violate the epoch's
   constraints, so fail fast instead. Checked per epoch because
   creation never sees a demand tree. *)
let check_constraint_capability t demand_tree =
  let c = t.entry_solver.Solver.capability in
  if Tree.has_qos demand_tree && not c.Solver.handles_qos then
    invalid_arg
      (Printf.sprintf
         "Engine: %s cannot enforce the epoch's QoS bounds (use a \
          qos-capable solver, e.g. dp-withpre)"
         t.entry_solver.Solver.name);
  if Tree.has_bandwidth demand_tree && not c.Solver.handles_bw then
    invalid_arg
      (Printf.sprintf
         "Engine: %s cannot enforce the epoch's bandwidth caps (use a \
          bw-capable solver, e.g. dp-withpre)"
         t.entry_solver.Solver.name)

let step t demand_tree =
  check_constraint_capability t demand_tree;
  let tracing = Span.enabled () in
  if tracing then Span.begin_span "engine.epoch";
  t.epoch <- t.epoch + 1;
  let epoch = t.epoch in
  let demand = Tree.total_requests demand_tree in
  let size = Tree.size demand_tree in
  if tracing then Span.begin_span "engine.demand_diff";
  let changed_list =
    match t.prev with
    | None -> List.init size Fun.id
    | Some p -> Replica_trace.Epochs.changed_nodes p demand_tree
  in
  t.prev <- Some demand_tree;
  let dirty =
    let seen = Array.make size false in
    List.iter
      (fun j ->
        seen.(j) <- true;
        List.iter
          (fun a -> seen.(a) <- true)
          (Tree.ancestors demand_tree j))
      changed_list;
    Array.fold_left (fun n b -> if b then n + 1 else n) 0 seen
  in
  if tracing then
    Span.end_span
      ~args:
        [
          ("changed", Span.Int (List.length changed_list));
          ("dirty", Span.Int dirty);
        ]
      ();
  if tracing then Span.begin_span "engine.policy";
  let held = Solution.validate demand_tree ~w:t.cfg.w t.placement in
  let servers_valid = Result.is_ok held in
  let reconfigure =
    Update_policy.should_reconfigure t.cfg.policy ~epoch ~servers_valid
      ~demand ~last_demand:t.last_demand
  in
  if tracing then
    Span.end_span
      ~args:
        [
          ("servers_valid", Span.Bool servers_valid);
          ("reconfigure", Span.Bool reconfigure);
        ]
      ();
  let counters_before = if reconfigure then Stats_counters.snapshot () else [] in
  if tracing && reconfigure then Span.begin_span "engine.solve";
  let solve_start = Clock.now_ns () in
  let solved = if reconfigure then solve_once t demand_tree else None in
  let solve_ns = if reconfigure then Clock.now_ns () - solve_start else 0 in
  if tracing && reconfigure then
    Span.end_span ~args:[ ("solved", Span.Bool (solved <> None)) ] ();
  let counters =
    if reconfigure then
      Stats_counters.diff counters_before (Stats_counters.snapshot ())
    else []
  in
  if reconfigure then begin
    Histogram.observe t.lat_h solve_ns;
    Metrics.observe t.m_solve solve_ns;
    Metrics.incr t.m_reconfigs;
    match memo_hit_pct counters with
    | Some pct -> Metrics.observe t.m_memo pct
    | None -> ()
  end;
  Metrics.incr t.m_epochs;
  let solve_seconds = float_of_int solve_ns *. 1e-9 in
  if tracing then Span.begin_span "engine.apply";
  (* A held placement was validated by the policy check, a new one is
     validated here; its loads give the modes and the power. *)
  let reconfigured, step_cost, checked =
    match solved with
    | Some (solution, cost) ->
        let checked = Solution.validate demand_tree ~w:t.cfg.w solution in
        let loads =
          match checked with
          | Ok ev -> ev.Solution.loads
          | Error _ -> (Solution.evaluate demand_tree solution).Solution.loads
        in
        t.placement <- solution;
        t.placement_modes <- modes_of_loads t.cfg loads;
        t.last_demand <- demand;
        t.staleness <- 0;
        (true, cost, checked)
    | None ->
        (* Either the policy kept the placement, or the epoch is
           unserveable even by a fresh optimal solve: hold position. *)
        t.staleness <- t.staleness + 1;
        (false, 0., held)
  in
  Metrics.set t.m_staleness (float_of_int t.staleness);
  let valid, unserved, overloaded, power =
    match checked with
    | Ok ev ->
        let power (modes, p) =
          Power.total p modes (List.map snd ev.Solution.loads)
        in
        ( true,
          0,
          0,
          match t.cfg.objective with
          | Min_power { modes; power = p; _ } -> Some (power (modes, p))
          | Min_servers | Min_cost _ -> Option.map power t.cfg.report_power )
    | Error violations ->
        let unserved, overloaded = shortfall ~w:t.cfg.w violations in
        (false, unserved, overloaded, None)
  in
  if tracing then
    Span.end_span ~args:[ ("reconfigured", Span.Bool reconfigured) ] ();
  let solve_latency = Timeline.latency_of_histogram t.lat_h in
  let entry =
    {
      Timeline.epoch;
      demand;
      changed = List.length changed_list;
      dirty;
      reconfigured;
      staleness = t.staleness;
      servers = t.placement;
      step_cost;
      valid;
      unserved;
      overloaded;
      power;
      solve_seconds;
      solve_latency;
      counters;
    }
  in
  if tracing then
    Span.end_span
      ~args:
        [
          ("epoch", Span.Int epoch);
          ("demand", Span.Int demand);
          ("reconfigured", Span.Bool reconfigured);
        ]
      ();
  entry

let run cfg demands =
  let t = create cfg in
  Timeline.of_entries (List.map (step t) demands)

let run_trace cfg tree trace ~window =
  run cfg (Replica_trace.Epochs.epochs trace tree ~window)
