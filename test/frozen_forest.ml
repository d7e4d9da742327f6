(* Frozen forest coordinator: [Forest_engine.step] and [Repair.repair]
   as they stood while a coupled epoch still evaluated the fleet five
   times (validate to count overloads, the repair pass's own loads, a
   closing validate inside the repair, a second validate to count the
   surviving overloads, and [Forest.server_loads] for the peak). Kept
   verbatim on the public [Engine] API, without the live coordinator's
   metrics and latency histogram, as the oracle whose entries and
   placements [Forest_engine.step] must match epoch for epoch. *)

module Forest = Replica_forest.Forest
module Forest_engine = Replica_forest.Forest_engine
module Forest_timeline = Replica_forest.Forest_timeline
module Engine = Replica_engine.Engine
module Timeline = Replica_engine.Timeline

(* --- Repair.repair --- *)

type stats = { pushdowns : int; added : int }

type outcome = {
  placements : Solution.t array;
  stats : stats;
  violations : Solution.forest_violation list;
}

let eval_arrays tree sol =
  let n = Tree.size tree in
  let flow = Array.make n 0 and loads = Array.make n 0 in
  Array.iter
    (fun j ->
      let arriving =
        List.fold_left
          (fun acc c -> acc + flow.(c))
          (Tree.client_load tree j)
          (Tree.children tree j)
      in
      if Solution.mem sol j then loads.(j) <- arriving
      else flow.(j) <- arriving)
    (Tree.postorder tree);
  (loads, flow)

let repair forest ~trees ~w placements =
  let shard_count = Array.length placements in
  if Array.length trees <> shard_count then
    invalid_arg "Repair: shard count mismatch";
  let sols = Array.copy placements in
  let evals = Array.init shard_count (fun o -> eval_arrays trees.(o) sols.(o)) in
  let phys = Array.make (Forest.num_servers forest) 0 in
  let account sign o =
    let loads, _ = evals.(o) in
    Array.iteri
      (fun j l ->
        if l > 0 then begin
          let s = Forest.server_of forest o j in
          phys.(s) <- phys.(s) + (sign * l)
        end)
      loads
  in
  for o = 0 to shard_count - 1 do
    account 1 o
  done;
  let pushdowns = ref 0 and added = ref 0 in
  let progress = ref true in
  while !progress do
    progress := false;
    let worst = ref (-1) in
    Array.iteri
      (fun s load ->
        if load > w && (!worst < 0 || load > phys.(!worst)) then worst := s)
      phys;
    if !worst >= 0 then begin
      let s = !worst in
      let best = ref None in
      for o = 0 to shard_count - 1 do
        let loads, _ = evals.(o) in
        Array.iteri
          (fun j l ->
            if l > 0 && Forest.server_of forest o j = s then begin
              let reducible = l - Tree.client_load trees.(o) j in
              match !best with
              | _ when reducible <= 0 -> ()
              | None -> best := Some (reducible, o, j)
              | Some (r, _, _) when reducible > r ->
                  best := Some (reducible, o, j)
              | Some _ -> ()
            end)
          loads
      done;
      match !best with
      | None -> ()
      | Some (_, o, j) ->
          incr pushdowns;
          let _, flow = evals.(o) in
          let extra =
            List.filter (fun c -> flow.(c) > 0) (Tree.children trees.(o) j)
          in
          added := !added + List.length extra;
          sols.(o) <- Solution.of_nodes (extra @ Solution.nodes sols.(o));
          account (-1) o;
          evals.(o) <- eval_arrays trees.(o) sols.(o);
          account 1 o;
          progress := true
    end
  done;
  let violations =
    match Forest.validate forest ~trees ~w sols with
    | Ok _ -> []
    | Error vs -> vs
  in
  {
    placements = sols;
    stats = { pushdowns = !pushdowns; added = !added };
    violations;
  }

(* --- Forest_engine.step --- *)

type t = {
  forest : Forest.t;
  cfg : Forest_engine.config;
  engines : Engine.t array;
  mutable epoch : int;
}

let create forest (cfg : Forest_engine.config) =
  {
    forest;
    cfg;
    engines =
      Array.map
        (fun _ -> Engine.create cfg.Forest_engine.engine)
        (Forest.shards forest);
    epoch = 0;
  }

let placements t = Array.map Engine.placement t.engines

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
  let demands = Array.of_list views in
  t.epoch <- t.epoch + 1;
  let counters_before = Stats_counters.snapshot () in
  let entries =
    Par.map ~domains:t.cfg.Forest_engine.domains
      ~weights:(Forest.shard_sizes t.forest)
      (fun o -> Engine.step t.engines.(o) demands.(o))
      (List.init shard_count Fun.id)
  in
  let entries = Array.of_list entries in
  let w = t.cfg.Forest_engine.engine.Engine.w in
  let pre = placements t in
  let coupling_overloads, repair_stats, final =
    if t.cfg.Forest_engine.coupling then begin
      let overloads =
        count_overloads (Forest.validate t.forest ~trees:demands ~w pre)
      in
      if overloads = 0 then (0, { pushdowns = 0; added = 0 }, pre)
      else begin
        let r = repair t.forest ~trees:demands ~w pre in
        Array.iteri
          (fun o sol ->
            if not (Solution.equal sol pre.(o)) then
              Engine.override_placement t.engines.(o) demands.(o) sol)
          r.placements;
        (overloads, r.stats, r.placements)
      end
    end
    else (0, { pushdowns = 0; added = 0 }, pre)
  in
  let unrepaired =
    if t.cfg.Forest_engine.coupling && coupling_overloads > 0 then
      count_overloads (Forest.validate t.forest ~trees:demands ~w final)
    else 0
  in
  let counters =
    Stats_counters.diff counters_before (Stats_counters.snapshot ())
  in
  let server_loads = Forest.server_loads t.forest ~trees:demands final in
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
    repair_pushdowns = repair_stats.pushdowns;
    repair_added = repair_stats.added;
    unrepaired;
    max_server_load = Array.fold_left max 0 server_loads;
    epoch_seconds = 0.;
    solve_latency = None;
    counters;
  }
