module Engine = Replica_engine.Engine
module Timeline = Replica_engine.Timeline

type config = {
  shape : Workload.shape;
  trees : int;
  nodes : int;
  epochs : int;
  seed : int;
  cost : Cost.basic;
  policies : Update_policy.policy list;
}

let default_config ?(shape = Workload.Fat) () =
  {
    shape;
    trees = 20;
    nodes = 50;
    epochs = 20;
    seed = 1;
    cost = Cost.basic ~create:0.5 ~delete:0.25 ();
    policies =
      [
        Update_policy.Systematic;
        Update_policy.Lazy;
        Update_policy.Periodic 4;
        Update_policy.Drift 0.2;
      ];
  }

type row = {
  policy : Update_policy.policy;
  avg_total_cost : float;
  avg_reconfigurations : float;
  avg_invalid_epochs : float;
}

(* Gentle epoch-to-epoch drift: a full redraw (as in Experiment 2) breaks
   every placement every epoch and makes all policies degenerate to
   systematic. Here each client jitters by +/-1 request, occasionally
   leaves, and nodes occasionally gain a client; per-node demand is
   clamped to W so epochs stay serveable. *)
let drift ?(intensity = 1.) rng tree =
  let w = Workload.capacity in
  let leave = min 0.9 (0.05 *. intensity)
  and gain = min 0.9 (0.08 *. intensity)
  and jitter = min 0.95 (0.6 *. intensity) in
  Tree.with_clients tree (fun j ->
      let survived =
        List.filter_map
          (fun r ->
            if Rng.bernoulli rng leave then None
            else
              let r =
                if Rng.bernoulli rng jitter then
                  r + Rng.int_in_range rng ~min:(-1) ~max:1
                else r
              in
              if r <= 0 then None else Some (min r 6))
          (Tree.clients tree j)
      in
      let proposed =
        if Rng.bernoulli rng gain then (1 + Rng.int rng 4) :: survived
        else survived
      in
      let rec clamp total = function
        | [] -> []
        | r :: rest ->
            if total + r > w then clamp total rest
            else r :: clamp (total + r) rest
      in
      clamp 0 proposed)

let demand_sequence ?intensity rng config =
  let profile = Workload.profile config.shape ~nodes:config.nodes ~max_requests:6 in
  let base = Generator.random rng profile in
  let rec go tree k acc =
    if k = 0 then List.rev acc
    else
      let next = drift ?intensity rng tree in
      go next (k - 1) (next :: acc)
  in
  go base config.epochs []

(* Memo-less re-solves: drifting demand moves most subtrees every epoch,
   so an incremental memo would mostly miss and only add its upkeep. *)
let simulate config policy demands =
  Engine.run
    (Engine.config ~policy ~solver:Engine.Full ~w:Workload.capacity
       (Engine.Min_cost config.cost))
    demands

let run ?domains config =
  let master = Rng.create config.seed in
  let sequences =
    List.init config.trees (fun _ ->
        demand_sequence (Rng.split master) config)
  in
  List.map
    (fun policy ->
      (* Each sequence's simulation is independent; fan the per-tree DP
         solves out over domains (results are positional, so identical
         at any domain count). *)
      let timelines = Par.map ?domains (simulate config policy) sequences in
      {
        policy;
        avg_total_cost =
          Stats.mean (List.map (fun s -> s.Timeline.total_cost) timelines);
        avg_reconfigurations =
          Stats.mean
            (List.map
               (fun s -> float_of_int s.Timeline.reconfigurations)
               timelines);
        avg_invalid_epochs =
          Stats.mean
            (List.map
               (fun s -> float_of_int s.Timeline.invalid_epochs)
               timelines);
      })
    config.policies

let to_table rows =
  let table =
    Table.make
      ~header:
        [ "policy"; "avg total cost"; "avg reconfigurations"; "avg invalid epochs" ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          Update_policy.policy_to_string r.policy;
          Table.fmt_float ~decimals:2 r.avg_total_cost;
          Table.fmt_float ~decimals:2 r.avg_reconfigurations;
          Table.fmt_float ~decimals:2 r.avg_invalid_epochs;
        ])
    rows;
  table


type drift_row = {
  intensity : float;
  lazy_reconfigurations : float;
  lazy_cost : float;
  systematic_cost : float;
  lazy_savings_percent : float;
}

let run_drift_sweep config intensities =
  List.map
    (fun intensity ->
      let master = Rng.create config.seed in
      let sequences =
        List.init config.trees (fun _ ->
            demand_sequence ~intensity (Rng.split master) config)
      in
      let simulate policy = List.map (simulate config policy) sequences in
      let lazy_runs = simulate Update_policy.Lazy in
      let sys_runs = simulate Update_policy.Systematic in
      let lazy_cost =
        Stats.mean (List.map (fun s -> s.Timeline.total_cost) lazy_runs)
      in
      let systematic_cost =
        Stats.mean (List.map (fun s -> s.Timeline.total_cost) sys_runs)
      in
      {
        intensity;
        lazy_reconfigurations =
          Stats.mean
            (List.map
               (fun s -> float_of_int s.Timeline.reconfigurations)
               lazy_runs);
        lazy_cost;
        systematic_cost;
        lazy_savings_percent =
          (if systematic_cost > 0. then
             100. *. (1. -. (lazy_cost /. systematic_cost))
           else 0.);
      })
    intensities

let drift_table rows =
  let table =
    Table.make
      ~header:
        [
          "drift intensity";
          "lazy reconfigurations";
          "lazy cost";
          "systematic cost";
          "lazy savings %";
        ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          Table.fmt_float ~decimals:2 r.intensity;
          Table.fmt_float ~decimals:2 r.lazy_reconfigurations;
          Table.fmt_float ~decimals:2 r.lazy_cost;
          Table.fmt_float ~decimals:2 r.systematic_cost;
          Table.fmt_float ~decimals:1 r.lazy_savings_percent;
        ])
    rows;
  table
