module Engine = Replica_engine.Engine
module Timeline = Replica_engine.Timeline

type config = {
  shape : Workload.shape;
  trees : int;
  nodes : int;
  horizon : float;
  seed : int;
  cost : Cost.basic;
  floor : float;
}

let default_config ?(shape = Workload.High) () =
  {
    shape;
    trees = 10;
    nodes = 40;
    horizon = 48.;
    seed = 1;
    cost = Cost.basic ~create:0.5 ~delete:0.25 ();
    floor = 0.25;
  }

type row = {
  window : float;
  epochs : float;
  reconfigurations : float;
  total_cost : float;
  cost_per_time : float;
  invalid_epochs : float;
  stale_fraction : float;
}

let fine_resolution = 0.5

(* Fraction of fine sub-windows whose true demand overflows the placement
   that the policy had in force at that time. *)
let staleness tree trace ~window timeline =
  let fine = Replica_trace.Epochs.epochs trace tree ~window:fine_resolution in
  let records = Array.of_list timeline.Timeline.entries in
  let violations = ref 0 and total = ref 0 in
  List.iteri
    (fun k fine_tree ->
      let coarse =
        int_of_float (float_of_int k *. fine_resolution /. window)
      in
      if coarse < Array.length records then begin
        incr total;
        let placement = records.(coarse).Timeline.servers in
        if
          not
            (Solution.is_valid fine_tree ~w:Workload.capacity placement)
        then incr violations
      end)
    fine;
  if !total = 0 then 0. else float_of_int !violations /. float_of_int !total

let run config windows =
  let engine =
    Engine.config ~policy:Update_policy.Lazy ~solver:Engine.Full
      ~w:Workload.capacity (Engine.Min_cost config.cost)
  in
  let master = Rng.create config.seed in
  (* Draw trees and traces once; each window re-aggregates them. *)
  let instances =
    List.init config.trees (fun _ ->
        let rng = Rng.split master in
        let tree =
          Generator.random rng
            (Workload.profile config.shape ~nodes:config.nodes ~max_requests:6)
        in
        let trace =
          Replica_trace.Arrivals.diurnal rng tree ~horizon:config.horizon
            ~period:24. ~floor:config.floor
        in
        (tree, trace))
  in
  List.map
    (fun window ->
      let summaries =
        List.map
          (fun (tree, trace) ->
            let epochs = Replica_trace.Epochs.epochs trace tree ~window in
            let timeline = Engine.run engine epochs in
            ( List.length epochs,
              timeline,
              staleness tree trace ~window timeline ))
          instances
      in
      {
        window;
        epochs =
          Stats.mean (List.map (fun (n, _, _) -> float_of_int n) summaries);
        reconfigurations =
          Stats.mean
            (List.map
               (fun (_, s, _) -> float_of_int s.Timeline.reconfigurations)
               summaries);
        total_cost =
          Stats.mean
            (List.map (fun (_, s, _) -> s.Timeline.total_cost) summaries);
        cost_per_time =
          Stats.mean
            (List.map
               (fun (_, s, _) -> s.Timeline.total_cost /. config.horizon)
               summaries);
        invalid_epochs =
          Stats.mean
            (List.map
               (fun (_, s, _) -> float_of_int s.Timeline.invalid_epochs)
               summaries);
        stale_fraction =
          Stats.mean (List.map (fun (_, _, f) -> f) summaries);
      })
    windows

let to_table rows =
  let table =
    Table.make
      ~header:
        [
          "window";
          "epochs";
          "reconfigurations";
          "total cost";
          "cost/time";
          "invalid epochs";
          "stale fraction";
        ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          Table.fmt_float ~decimals:1 r.window;
          Table.fmt_float ~decimals:1 r.epochs;
          Table.fmt_float ~decimals:1 r.reconfigurations;
          Table.fmt_float ~decimals:2 r.total_cost;
          Table.fmt_float ~decimals:3 r.cost_per_time;
          Table.fmt_float ~decimals:2 r.invalid_epochs;
          Table.fmt_float ~decimals:3 r.stale_fraction;
        ])
    rows;
  table
