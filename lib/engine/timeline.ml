module Json = Replica_obs.Json

type latency = { p50 : float; p90 : float; p99 : float }

let latency_of_histogram h =
  let module H = Replica_obs.Histogram in
  if H.count h = 0 then None
  else
    let s = H.summary h in
    Some
      {
        p50 = float_of_int s.H.p50 *. 1e-9;
        p90 = float_of_int s.H.p90 *. 1e-9;
        p99 = float_of_int s.H.p99 *. 1e-9;
      }

(* The last quantiles of a run: their histogram has seen every solve. *)
let last_latency latency entries =
  List.fold_left
    (fun acc e -> match latency e with Some _ as l -> l | None -> acc)
    None entries

type entry = {
  epoch : int;
  demand : int;
  changed : int;
  dirty : int;
  reconfigured : bool;
  staleness : int;
  servers : Solution.t;
  step_cost : float;
  valid : bool;
  unserved : int;
  overloaded : int;
  power : float option;
  solve_seconds : float;
  solve_latency : latency option;
  counters : (string * int) list;
}

type t = {
  entries : entry list;
  total_cost : float;
  reconfigurations : int;
  invalid_epochs : int;
  solve_seconds : float;
  solve_latency : latency option;
}

let of_entries (entries : entry list) =
  {
    entries;
    total_cost = List.fold_left (fun a (e : entry) -> a +. e.step_cost) 0. entries;
    reconfigurations =
      List.length (List.filter (fun (e : entry) -> e.reconfigured) entries);
    invalid_epochs =
      List.length (List.filter (fun (e : entry) -> not e.valid) entries);
    solve_seconds =
      List.fold_left (fun a (e : entry) -> a +. e.solve_seconds) 0. entries;
    solve_latency = last_latency (fun (e : entry) -> e.solve_latency) entries;
  }

let print ?(times = false) oc t =
  List.iter
    (fun e ->
      Printf.fprintf oc "epoch %2d: demand %4d  changed %3d  dirty %3d  %2d servers"
        e.epoch e.demand e.changed e.dirty
        (Solution.cardinal e.servers);
      if e.reconfigured then begin
        Printf.fprintf oc "  reconfigured cost %.2f" e.step_cost;
        if times then Printf.fprintf oc " (%.2f ms)" (1000. *. e.solve_seconds)
      end
      else Printf.fprintf oc "  stale %d" e.staleness;
      (match e.power with
      | Some p -> Printf.fprintf oc "  power %.1f" p
      | None -> ());
      if not e.valid then
        Printf.fprintf oc "  INVALID unserved %d overloaded %d" e.unserved
          e.overloaded;
      Printf.fprintf oc "\n")
    t.entries;
  Printf.fprintf oc "total: %d reconfigurations, bill %.2f, %d invalid epochs"
    t.reconfigurations t.total_cost t.invalid_epochs;
  if times then begin
    Printf.fprintf oc ", solve %.2f ms" (1000. *. t.solve_seconds);
    match t.solve_latency with
    | Some l ->
        Printf.fprintf oc " (p50/p90/p99 %.2f/%.2f/%.2f ms)" (1000. *. l.p50)
          (1000. *. l.p90) (1000. *. l.p99)
    | None -> ()
  end;
  Printf.fprintf oc "\n"

let latency_to_json = function
  | None -> Json.Null
  | Some l ->
      Json.Obj
        [
          ("p50_s", Json.Float l.p50);
          ("p90_s", Json.Float l.p90);
          ("p99_s", Json.Float l.p99);
        ]

let entry_to_json e =
  Json.Obj
    [
      ("epoch", Json.Int e.epoch);
      ("demand", Json.Int e.demand);
      ("changed_nodes", Json.Int e.changed);
      ("dirty_nodes", Json.Int e.dirty);
      ("reconfigured", Json.Bool e.reconfigured);
      ("staleness", Json.Int e.staleness);
      ( "servers",
        Json.List (List.map (fun n -> Json.Int n) (Solution.nodes e.servers)) );
      ("server_count", Json.Int (Solution.cardinal e.servers));
      ("step_cost", Json.Float e.step_cost);
      ("valid", Json.Bool e.valid);
      ("unserved", Json.Int e.unserved);
      ("overloaded", Json.Int e.overloaded);
      ( "power",
        match e.power with Some p -> Json.Float p | None -> Json.Null );
      ("solve_seconds", Json.Float e.solve_seconds);
      ("solve_latency", latency_to_json e.solve_latency);
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) e.counters) );
    ]

let run_envelope ~kind ?(config = []) ?timeseries ~summary epochs =
  Json.envelope ~kind ~config
    ([
       ( "summary",
         Json.Obj (("epochs", Json.Int (List.length epochs)) :: summary) );
       ("epochs", Json.List epochs);
     ]
    @
    match timeseries with
    | None -> []
    | Some ts -> [ ("timeseries", Replica_obs.Timeseries.to_json ts) ])

let to_json ?config ?timeseries t =
  run_envelope ~kind:"engine_timeline" ?config ?timeseries
    ~summary:
      [
        ("total_cost", Json.Float t.total_cost);
        ("reconfigurations", Json.Int t.reconfigurations);
        ("invalid_epochs", Json.Int t.invalid_epochs);
        ("solve_seconds", Json.Float t.solve_seconds);
        ("solve_latency", latency_to_json t.solve_latency);
      ]
    (List.map entry_to_json t.entries)
