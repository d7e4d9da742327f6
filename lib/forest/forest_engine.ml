module Engine = Replica_engine.Engine
module Timeline = Replica_engine.Timeline
module Histogram = Replica_obs.Histogram
module Metrics = Replica_obs.Metrics
module Clock = Replica_obs.Clock

type config = { engine : Engine.config; coupling : bool; domains : int }

type t = {
  forest : Forest.t;
  cfg : config;
  engines : Engine.t array;
  lat_h : Histogram.t;
      (* per-instance (unregistered) so concurrent forests don't mix
         their timelines' percentiles *)
  m_shard_solve : Metrics.t array;  (* histogram per shard="o" *)
  m_shard_demand : Metrics.t array;  (* gauge per shard="o" *)
  m_shard_servers : Metrics.t array;  (* gauge per shard="o" *)
  m_pushdowns : Metrics.t;
  m_repair_added : Metrics.t;
  m_overloads : Metrics.t;
  m_max_load : Metrics.t;
  mutable epoch : int;
}

let create forest cfg =
  if cfg.domains < 1 then invalid_arg "Forest_engine: domains must be >= 1";
  let engines =
    Array.map (fun _ -> Engine.create cfg.engine) (Forest.shards forest)
  in
  if cfg.coupling then begin
    let name = Engine.solver_name engines.(0) in
    match Registry.find name with
    | Some s when s.Solver.capability.Solver.handles_coupling -> ()
    | Some _ ->
        invalid_arg
          (Printf.sprintf
             "Forest_engine: %s cannot participate in cross-object capacity \
              coupling (its placements are not closest-policy cost \
              placements the push-down repair is sound for; see \
              --list-algos)"
             name)
    | None -> assert false
  end;
  (* Per-shard labeled series (shard="0", "1", ...) interned once at
     creation; all updates happen on the coordinating domain after the
     parallel step, so no labeled instrument is touched from inside
     [Par]-fanned workers. *)
  let per_shard name =
    Array.init (Array.length engines) (fun o ->
        Metrics.gauge ~labels:[ ("shard", string_of_int o) ] name)
  in
  {
    forest;
    cfg;
    engines;
    lat_h = Histogram.make "forest.shard_solve_ns";
    m_shard_solve =
      Array.init (Array.length engines) (fun o ->
          Metrics.histogram
            ~labels:[ ("shard", string_of_int o) ]
            "forest.shard_solve_ns");
    m_shard_demand = per_shard "forest.shard_demand";
    m_shard_servers = per_shard "forest.shard_servers";
    m_pushdowns = Metrics.counter "forest.repair_pushdowns";
    m_repair_added = Metrics.counter "forest.repair_added";
    m_overloads = Metrics.counter "forest.coupling_overloads";
    m_max_load = Metrics.gauge "forest.max_server_load";
    epoch = 0;
  }

let placements t = Array.map Engine.placement t.engines
let epochs_served t = t.epoch
let solver_name t = Engine.solver_name t.engines.(0)

let count_overloads = function
  | Ok _ -> 0
  | Error vs ->
      List.length
        (List.filter
           (function
             | Solution.Shared_server_overloaded _ -> true
             | Solution.Shard_violation _ -> false)
           vs)

let step t views =
  let shard_count = Forest.num_shards t.forest in
  if List.length views <> shard_count then
    invalid_arg "Forest_engine: one demand view per shard expected";
  let demands = Array.of_list views in
  t.epoch <- t.epoch + 1;
  (* One global snapshot around the whole epoch: per-shard diffs taken
     inside concurrent Engine.step calls overlap (counters are
     process-global atomics), so the per-entry counters are discarded
     and the epoch reports a single commutative total. *)
  let counters_before = Stats_counters.snapshot () in
  let t0 = Clock.now_ns () in
  let entries =
    Par.map ~domains:t.cfg.domains ~weights:(Forest.shard_sizes t.forest)
      (fun o -> Engine.step t.engines.(o) demands.(o))
      (List.init shard_count Fun.id)
  in
  let entries = Array.of_list entries in
  Array.iteri
    (fun o (e : Timeline.entry) ->
      if e.Timeline.reconfigured || e.Timeline.solve_seconds > 0. then begin
        let ns = int_of_float (e.Timeline.solve_seconds *. 1e9) in
        Histogram.observe t.lat_h ns;
        Metrics.observe t.m_shard_solve.(o) ns
      end;
      Metrics.set t.m_shard_demand.(o) (float_of_int e.Timeline.demand))
    entries;
  let w = t.cfg.engine.Engine.w in
  let pre = placements t in
  let coupling_overloads, repair_stats, final =
    if t.cfg.coupling then begin
      let overloads =
        count_overloads (Forest.validate t.forest ~trees:demands ~w pre)
      in
      if overloads = 0 then (0, { Repair.pushdowns = 0; added = 0 }, pre)
      else begin
        let r = Repair.repair t.forest ~trees:demands ~w pre in
        (* Repaired placements (supersets, still per-shard valid) become
           the state the next epoch's solves start from, even when some
           overload survives — holding a strictly worse placement helps
           nothing. *)
        Array.iteri
          (fun o sol ->
            if not (Solution.equal sol pre.(o)) then
              Engine.override_placement t.engines.(o) demands.(o) sol)
          r.Repair.placements;
        (overloads, r.Repair.stats, r.Repair.placements)
      end
    end
    else (0, { Repair.pushdowns = 0; added = 0 }, pre)
  in
  let unrepaired =
    if t.cfg.coupling && coupling_overloads > 0 then
      count_overloads (Forest.validate t.forest ~trees:demands ~w final)
    else 0
  in
  Array.iteri
    (fun o sol ->
      Metrics.set t.m_shard_servers.(o) (float_of_int (Solution.cardinal sol)))
    final;
  (* Closed before the forest's own unlabeled counters move, so they
     stay out of the epoch's solver counters. *)
  let counters =
    Stats_counters.diff counters_before (Stats_counters.snapshot ())
  in
  Metrics.add t.m_pushdowns repair_stats.Repair.pushdowns;
  Metrics.add t.m_repair_added repair_stats.Repair.added;
  Metrics.add t.m_overloads coupling_overloads;
  let server_loads = Forest.server_loads t.forest ~trees:demands final in
  Metrics.set t.m_max_load (float_of_int (Array.fold_left max 0 server_loads));
  let epoch_seconds = float_of_int (Clock.now_ns () - t0) *. 1e-9 in
  let solve_latency = Timeline.latency_of_histogram t.lat_h in
  {
    Forest_timeline.epoch = t.epoch;
    demand =
      Array.fold_left (fun a (e : Timeline.entry) -> a + e.Timeline.demand) 0
        entries;
    reconfigured_shards =
      Array.fold_left
        (fun a (e : Timeline.entry) ->
          if e.Timeline.reconfigured then a + 1 else a)
        0 entries;
    servers = Array.fold_left (fun a s -> a + Solution.cardinal s) 0 final;
    step_cost =
      Array.fold_left
        (fun a (e : Timeline.entry) -> a +. e.Timeline.step_cost)
        0. entries;
    invalid_shards =
      Array.fold_left
        (fun a (e : Timeline.entry) -> if e.Timeline.valid then a else a + 1)
        0 entries;
    coupling_overloads;
    repair_pushdowns = repair_stats.Repair.pushdowns;
    repair_added = repair_stats.Repair.added;
    unrepaired;
    max_server_load = Array.fold_left max 0 server_loads;
    epoch_seconds;
    solve_latency;
    counters;
  }

let run forest cfg grid =
  let t = create forest cfg in
  Forest_timeline.of_entries (List.map (step t) grid)
