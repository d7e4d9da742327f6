module Json = Replica_obs.Json
module Timeline = Replica_engine.Timeline

type entry = {
  epoch : int;
  demand : int;
  reconfigured_shards : int;
  servers : int;
  step_cost : float;
  invalid_shards : int;
  coupling_overloads : int;
  repair_pushdowns : int;
  repair_added : int;
  unrepaired : int;
  max_server_load : int;
  epoch_seconds : float;
  solve_latency : Timeline.latency option;
  counters : (string * int) list;
}

type t = {
  entries : entry list;
  total_cost : float;
  reconfigurations : int;
  invalid_epochs : int;
  repair_added : int;
  epoch_seconds : float;
  solve_latency : Timeline.latency option;
}

let of_entries entries =
  {
    entries;
    total_cost = List.fold_left (fun a (e : entry) -> a +. e.step_cost) 0. entries;
    reconfigurations =
      List.fold_left (fun a (e : entry) -> a + e.reconfigured_shards) 0 entries;
    invalid_epochs =
      List.length
        (List.filter
           (fun (e : entry) -> e.invalid_shards > 0 || e.unrepaired > 0)
           entries);
    repair_added = List.fold_left (fun a (e : entry) -> a + e.repair_added) 0 entries;
    epoch_seconds =
      List.fold_left (fun a (e : entry) -> a +. e.epoch_seconds) 0. entries;
    solve_latency =
      Timeline.last_latency (fun (e : entry) -> e.solve_latency) entries;
  }

let print ?(times = false) oc t =
  List.iter
    (fun (e : entry) ->
      Printf.fprintf oc
        "epoch %2d: demand %5d  reconf %3d  servers %4d  peak %3d" e.epoch
        e.demand e.reconfigured_shards e.servers e.max_server_load;
      if e.coupling_overloads > 0 then
        Printf.fprintf oc "  overloads %d repaired +%d/%d" e.coupling_overloads
          e.repair_added e.repair_pushdowns;
      if e.unrepaired > 0 then
        Printf.fprintf oc "  UNREPAIRED %d" e.unrepaired;
      if e.invalid_shards > 0 then
        Printf.fprintf oc "  INVALID shards %d" e.invalid_shards;
      if times then Printf.fprintf oc " (%.1f ms)" (1000. *. e.epoch_seconds);
      Printf.fprintf oc "\n")
    t.entries;
  Printf.fprintf oc
    "total: %d shard reconfigurations, bill %.2f, repair added %d, %d \
     invalid epochs"
    t.reconfigurations t.total_cost t.repair_added t.invalid_epochs;
  if times then begin
    Printf.fprintf oc ", wall %.2f ms" (1000. *. t.epoch_seconds);
    match t.solve_latency with
    | Some l ->
        Printf.fprintf oc " (shard solve p50/p90/p99 %.2f/%.2f/%.2f ms)"
          (1000. *. l.Timeline.p50) (1000. *. l.Timeline.p90)
          (1000. *. l.Timeline.p99)
    | None -> ()
  end;
  Printf.fprintf oc "\n"

let entry_to_json (e : entry) =
  Json.Obj
    [
      ("epoch", Json.Int e.epoch);
      ("demand", Json.Int e.demand);
      ("reconfigured_shards", Json.Int e.reconfigured_shards);
      ("servers", Json.Int e.servers);
      ("step_cost", Json.Float e.step_cost);
      ("invalid_shards", Json.Int e.invalid_shards);
      ("coupling_overloads", Json.Int e.coupling_overloads);
      ("repair_pushdowns", Json.Int e.repair_pushdowns);
      ("repair_added", Json.Int e.repair_added);
      ("unrepaired", Json.Int e.unrepaired);
      ("max_server_load", Json.Int e.max_server_load);
      ("epoch_seconds", Json.Float e.epoch_seconds);
      ("solve_latency", Timeline.latency_to_json e.solve_latency);
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) e.counters) );
    ]

let to_json ?config ?timeseries t =
  Timeline.run_envelope ~kind:"forest_timeline" ?config ?timeseries
    ~summary:
      [
        ("total_cost", Json.Float t.total_cost);
        ("reconfigurations", Json.Int t.reconfigurations);
        ("invalid_epochs", Json.Int t.invalid_epochs);
        ("repair_added", Json.Int t.repair_added);
        ("epoch_seconds", Json.Float t.epoch_seconds);
        ("solve_latency", Timeline.latency_to_json t.solve_latency);
      ]
    (List.map entry_to_json t.entries)
