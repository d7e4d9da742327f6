(* Forest engine: coupled-repair differential against the exhaustive
   oracle, decoupled bit-identity, merged-trace conservation, and
   capability gating. *)

open Helpers
module F = Replica_forest.Forest
module FT = Replica_forest.Forest_trace
module FE = Replica_forest.Forest_engine
module FTl = Replica_forest.Forest_timeline
module Repair = Replica_forest.Repair
module Brute = Replica_forest.Brute_forest
module Engine = Replica_engine.Engine

let w = 10

let profile ~nodes ~max_requests =
  {
    Generator.nodes;
    min_children = 1;
    max_children = 3;
    client_probability = 0.7;
    min_requests = 1;
    max_requests;
  }

(* Slack regime for the differential suite: [objects * max_requests <= w]
   bounds any physical server's aggregate *direct-client* load by [w],
   so full replication everywhere is coupled-feasible. That guarantees
   (a) the oracle always has a solution and (b) push-down can always
   finish: an overloaded server must then hold a reducible replica.
   Pool sizes in [nodes, 2*nodes) force topologies to share machines. *)
let random_spec rng =
  let nodes = 3 + Rng.int rng 6 in
  let max_requests = 1 + Rng.int rng 2 in
  let max_objects =
    min (w / max_requests) (Brute.max_total_nodes / nodes)
  in
  let objects = 1 + Rng.int rng max_objects in
  let trees = 1 + Rng.int rng (min 3 objects) in
  let servers = nodes + Rng.int rng nodes in
  {
    F.trees;
    objects;
    servers;
    profile = profile ~nodes ~max_requests;
    seed = Rng.int rng 1_000_000;
  }

let demand_views forest =
  Array.map (fun (s : F.shard) -> s.F.tree) (F.shards forest)

let solve_shards trees_arr =
  Array.map
    (fun t ->
      match Greedy.solve t ~w with
      | Some s -> s
      | None -> Alcotest.fail "slack regime: greedy must be feasible")
    trees_arr

let test_repair_vs_oracle () =
  let instances = 120 in
  let exercised = ref 0 in
  for i = 0 to instances - 1 do
    let rng = Rng.create (1000 + i) in
    let forest = F.generate (random_spec rng) in
    let trees = demand_views forest in
    let pre = solve_shards trees in
    let name = Printf.sprintf "instance %d" i in
    match F.validate forest ~trees ~w pre with
    | Ok _ ->
        (* Nothing to repair: the pass must be the identity. *)
        let r = Repair.repair forest ~trees ~w pre in
        check ci (name ^ ": no pushdowns") 0 r.Repair.stats.Repair.pushdowns;
        Array.iteri
          (fun o sol ->
            check solution_testable
              (Printf.sprintf "%s shard %d untouched" name o)
              pre.(o) sol)
          r.Repair.placements
    | Error _ ->
        incr exercised;
        let r = Repair.repair forest ~trees ~w pre in
        check (Alcotest.list Alcotest.unit)
          (name ^ ": repair clears every violation")
          []
          (List.map (fun _ -> ()) r.Repair.violations);
        Array.iteri
          (fun o sol ->
            (* Supersets of the solver placements, still per-shard valid. *)
            Solution.nodes pre.(o)
            |> List.iter (fun j ->
                   check cb
                     (Printf.sprintf "%s shard %d keeps node %d" name o j)
                     true (Solution.mem sol j));
            check cb
              (Printf.sprintf "%s shard %d per-shard valid" name o)
              true
              (Solution.is_valid trees.(o) ~w sol))
          r.Repair.placements;
        (match F.validate forest ~trees ~w r.Repair.placements with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail (name ^ ": repaired forest still violated"));
        let opt =
          match Brute.solve forest ~trees ~w with
          | Some opt -> opt
          | None -> Alcotest.fail (name ^ ": oracle found no coupled solution")
        in
        (match F.validate forest ~trees ~w opt with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail (name ^ ": oracle solution invalid"));
        check cb
          (name ^ ": repair never beats the optimum")
          true
          (Brute.total_servers opt <= Brute.total_servers r.Repair.placements)
  done;
  (* The suite must actually stress the coupled path, not just pass
     vacuously on already-feasible instances. *)
  check cb "suite exercises repair" true (!exercised >= 20)

let ecfg =
  Engine.config ~policy:Update_policy.Systematic ~w
    (Engine.Min_cost (Cost.basic ~create:0.5 ~delete:0.25 ()))

let small_forest () =
  F.generate
    {
      F.trees = 3;
      objects = 6;
      servers = 20;
      profile = profile ~nodes:10 ~max_requests:4;
      seed = 7;
    }

let test_decoupled_bit_identity () =
  let forest = small_forest () in
  let ft =
    FT.generate forest ~horizon:6. ~seed:8
      (FT.Diurnal { period = 3.; floor = 0.25 })
  in
  let grid = FT.epochs ft forest ~window:1. in
  let run domains =
    let e = FE.create forest { FE.engine = ecfg; coupling = false; domains } in
    let tl = FTl.of_entries (List.map (FE.step e) grid) in
    (tl, FE.placements e)
  in
  let tl1, p1 = run 1 in
  let tl3, p3 = run 3 in
  Array.iteri
    (fun o sol ->
      check solution_testable
        (Printf.sprintf "shard %d identical at 1 vs 3 domains" o)
        sol p3.(o))
    p1;
  List.iter2
    (fun (a : FTl.entry) (b : FTl.entry) ->
      check ci "demand" a.FTl.demand b.FTl.demand;
      check ci "reconfigured" a.FTl.reconfigured_shards
        b.FTl.reconfigured_shards;
      check ci "servers" a.FTl.servers b.FTl.servers;
      check cf "step cost" a.FTl.step_cost b.FTl.step_cost)
    tl1.FTl.entries tl3.FTl.entries;
  (* The decoupled forest is exactly O independent engines. *)
  let solo = Array.map (fun _ -> Engine.create ecfg) (F.shards forest) in
  List.iter
    (fun views -> List.iteri (fun o v -> ignore (Engine.step solo.(o) v)) views)
    grid;
  Array.iteri
    (fun o e ->
      check solution_testable
        (Printf.sprintf "shard %d identical to independent engine" o)
        (Engine.placement e) p1.(o))
    solo

(* The epoch's [counters] are the solvers' registry movement. The
   forest's own unlabeled counters (repair push-downs, added replicas,
   overloads) live in the same registry and move after the shards
   solve; the closing snapshot must precede them. *)
let test_coupled_counters_exclude_forest () =
  let forest =
    F.generate
      {
        F.trees = 2;
        objects = 6;
        servers = 12;
        profile =
          Replica_experiments.Workload.profile Replica_experiments.Workload.Fat
            ~nodes:10 ~max_requests:6;
        seed = 1;
      }
  in
  let ft =
    FT.generate forest ~horizon:6. ~seed:2
      (FT.Diurnal { period = 24.; floor = 0.25 })
  in
  let cfg =
    Engine.config ~w:Replica_experiments.Workload.capacity
      (Engine.Min_cost (Cost.basic ~create:0.5 ~delete:0.25 ()))
  in
  let e = FE.create forest { FE.engine = cfg; coupling = true; domains = 1 } in
  let entries = List.map (FE.step e) (FT.epochs ft forest ~window:1.) in
  check cb "the run repairs" true
    (List.exists (fun (x : FTl.entry) -> x.FTl.repair_added > 0) entries);
  check cb "the run solves" true
    (List.exists (fun (x : FTl.entry) -> x.FTl.counters <> []) entries);
  List.iter
    (fun (x : FTl.entry) ->
      List.iter
        (fun (k, _) ->
          if String.starts_with ~prefix:"forest." k then
            Alcotest.failf "epoch %d counters carry %s" x.FTl.epoch k)
        x.FTl.counters)
    entries

let test_merge_conservation () =
  let forest = small_forest () in
  List.iter
    (fun (label, wk) ->
      let ft = FT.generate forest ~horizon:6. ~seed:9 wk in
      check cb (label ^ ": conservation") true (FT.conservation ft);
      check ci
        (label ^ ": merged length is the sum of the shards")
        (Array.fold_left
           (fun a t -> a + Replica_trace.Trace.length t)
           0 ft.FT.per_shard)
        (FT.total_events ft);
      let grid = FT.epochs ft forest ~window:1. in
      List.iter
        (fun views ->
          check ci
            (label ^ ": one view per shard")
            (F.num_shards forest) (List.length views))
        grid)
    [
      ("poisson", FT.Poisson);
      ("diurnal", FT.Diurnal { period = 3.; floor = 0.25 });
      ("flash", FT.Flash { multiplier = 3. });
    ]

let test_stream_stability () =
  (* Adding shards must not perturb the existing shards' streams: shard
     o's trace depends only on the root seed and o. *)
  let spec objects =
    {
      F.trees = 3;
      objects;
      servers = 20;
      profile = profile ~nodes:10 ~max_requests:4;
      seed = 7;
    }
  in
  let f4 = F.generate (spec 4) and f6 = F.generate (spec 6) in
  let t4 = FT.generate f4 ~horizon:6. ~seed:8 FT.Poisson in
  let t6 = FT.generate f6 ~horizon:6. ~seed:8 FT.Poisson in
  for o = 0 to 3 do
    check cb
      (Printf.sprintf "shard %d stream unchanged by growth" o)
      true
      (Replica_trace.Trace.events t4.FT.per_shard.(o)
      = Replica_trace.Trace.events t6.FT.per_shard.(o))
  done

let test_capability_gating () =
  let forest = small_forest () in
  let cfg ?algo coupling =
    {
      FE.engine =
        Engine.config ~policy:Update_policy.Systematic ?algo ~w
          (Engine.Min_cost (Cost.basic ~create:0.5 ~delete:0.25 ()));
      coupling;
      domains = 1;
    }
  in
  (* Registry ground truth: closest-policy cost solvers handle coupling,
     the access-policy extensions and power solvers do not. *)
  List.iter
    (fun (algo, expected) ->
      match Registry.find algo with
      | Some s ->
          check cb
            (algo ^ " coupling capability")
            expected s.Solver.capability.Solver.handles_coupling
      | None -> Alcotest.fail (algo ^ " not registered"))
    [
      ("greedy", true);
      ("dp-nopre", true);
      ("dp-withpre", true);
      ("heuristic-cost", true);
      ("dp-qos", true);
      ("greedy-qos", true);
      ("brute", true);
      ("upwards", false);
      ("multiple", false);
      ("dp-power", false);
    ];
  (* A coupled engine on a non-coupling solver is rejected at creation. *)
  (match FE.create forest (cfg ~algo:"upwards" true) with
  | exception Invalid_argument msg ->
      check cb "rejection names the solver" true
        (String.length msg > 0
        && String.sub msg 0 (String.length "Forest_engine: upwards")
           = "Forest_engine: upwards")
  | _ -> Alcotest.fail "coupled upwards engine must be rejected");
  (* The same solver decoupled, and a coupling-capable solver coupled,
     are both fine. *)
  ignore (FE.create forest (cfg ~algo:"upwards" false));
  ignore (FE.create forest (cfg ~algo:"greedy" true));
  (match FE.create forest { (cfg true) with FE.domains = 0 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "domains = 0 must be rejected")

let test_generate_validation () =
  let base =
    { F.trees = 2; objects = 4; servers = 12; profile = profile ~nodes:6 ~max_requests:2; seed = 1 }
  in
  ignore (F.generate base);
  List.iter
    (fun spec ->
      match F.generate spec with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "invalid spec must be rejected")
    [
      { base with F.trees = 0 };
      { base with F.objects = 0 };
      { base with F.servers = 5 };
    ]

let () =
  Alcotest.run "forest"
    [
      ( "coupling",
        [
          Alcotest.test_case "repair vs exhaustive oracle" `Slow
            test_repair_vs_oracle;
          Alcotest.test_case "capability gating" `Quick test_capability_gating;
        ] );
      ( "engine",
        [
          Alcotest.test_case "decoupled bit-identity" `Quick
            test_decoupled_bit_identity;
          Alcotest.test_case "coupled counters exclude forest series" `Quick
            test_coupled_counters_exclude_forest;
        ] );
      ( "trace",
        [
          Alcotest.test_case "merge conservation" `Quick
            test_merge_conservation;
          Alcotest.test_case "stream stability under growth" `Quick
            test_stream_stability;
        ] );
      ( "spec",
        [
          Alcotest.test_case "generate validation" `Quick
            test_generate_validation;
        ] );
    ]
