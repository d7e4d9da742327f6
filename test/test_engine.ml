(* The online reconfiguration engine.

   The load-bearing suite is differential: over 100+ seeded trace-driven
   runs, the incremental engine (subtree tables cached under demand
   fingerprints, only dirty paths recomputed) must pick bit-identical
   placements to the full re-solve it replaces — in cost mode
   (Dp_withpre) and in power mode (Dp_power). *)

open Replica_tree
open Replica_core
open Replica_engine
module Json = Replica_obs.Json
open Helpers

let policies =
  [|
    Update_policy.Systematic;
    Update_policy.Lazy;
    Update_policy.Periodic 2;
    Update_policy.Drift 0.15;
  |]

(* Traces come from the shared [Helpers.workload_trace] generator. *)

(* One seeded run under both solvers; every epoch's placement (and the
   decision/billing around it) must agree. *)
let differential_run ~seed ~objective_of ~w =
  let make rng = small_tree rng ~nodes:(6 + (seed mod 7)) ~max_requests:4 in
  let tree = make (Rng.create seed) in
  let rng = Rng.create (seed * 31) in
  let trace = workload_trace rng tree ~kind:(seed mod 3) ~horizon:8. in
  let policy = policies.(seed mod Array.length policies) in
  let run solver =
    let cfg = Engine.config ~policy ~solver ~w (objective_of ()) in
    Engine.run_trace cfg tree trace ~window:1.
  in
  let full = run Engine.Full in
  let incremental = run Engine.Incremental in
  check ci
    (Printf.sprintf "seed %d: same epoch count" seed)
    (List.length full.Timeline.entries)
    (List.length incremental.Timeline.entries);
  List.iter2
    (fun (a : Timeline.entry) (b : Timeline.entry) ->
      let label fmt = Printf.sprintf fmt seed a.Timeline.epoch in
      check cb
        (label "seed %d epoch %d: identical placement")
        true
        (Solution.equal a.Timeline.servers b.Timeline.servers);
      check cb
        (label "seed %d epoch %d: same decision")
        a.Timeline.reconfigured b.Timeline.reconfigured;
      check cf
        (label "seed %d epoch %d: same bill")
        a.Timeline.step_cost b.Timeline.step_cost;
      check cb (label "seed %d epoch %d: same validity") a.Timeline.valid
        b.Timeline.valid)
    full.Timeline.entries incremental.Timeline.entries

let test_differential_cost () =
  (* >= 100 seeded runs (the PR's acceptance bar) across all three
     workloads and all four update policies. *)
  let cost = Cost.basic ~create:0.5 ~delete:0.25 () in
  for seed = 1 to 110 do
    differential_run ~seed ~w:10
      ~objective_of:(fun () -> Engine.Min_cost cost)
  done

let test_differential_power () =
  let objective () =
    Engine.Min_power
      {
        modes = modes_2;
        power = power_exp3;
        cost = cost_cheap;
        bound = infinity;
      }
  in
  for seed = 1 to 20 do
    differential_run ~seed ~w:10 ~objective_of:objective
  done

(* --- unit behaviour --- *)

let drifting_demands tree seed epochs =
  let rng = Rng.create seed in
  List.init epochs (fun _ ->
      Tree.with_clients tree (fun j ->
          List.filter_map
            (fun r ->
              if Rng.bernoulli rng 0.2 then None
              else Some (min 4 (max 1 (r + Rng.int_in_range rng ~min:(-1) ~max:1))))
            (Tree.clients tree j)))

let test_create_validation () =
  let cost = Cost.basic ~create:0.5 ~delete:0.25 () in
  Alcotest.check_raises "w must be positive"
    (Invalid_argument "Engine: w must be positive") (fun () ->
      ignore (Engine.create (Engine.config ~w:0 (Engine.Min_cost cost))));
  Alcotest.check_raises "ladder mismatch"
    (Invalid_argument "Engine: w must equal the mode ladder's maximal capacity")
    (fun () ->
      ignore
        (Engine.create
           (Engine.config ~w:7
              (Engine.Min_power
                 {
                   modes = modes_2;
                   power = power_exp3;
                   cost = cost_cheap;
                   bound = infinity;
                 }))))

let test_systematic_reconfigures_every_epoch () =
  let tree = small_tree (Rng.create 3) ~nodes:8 ~max_requests:3 in
  let demands = drifting_demands tree 11 6 in
  let cfg =
    Engine.config ~policy:Update_policy.Systematic ~w:10
      (Engine.Min_cost (Cost.basic ~create:0.5 ~delete:0.25 ()))
  in
  let t = Engine.run cfg demands in
  check ci "reconfigured every epoch" 6 t.Timeline.reconfigurations;
  check ci "no invalid epochs" 0 t.Timeline.invalid_epochs;
  List.iter
    (fun (e : Timeline.entry) ->
      check ci
        (Printf.sprintf "epoch %d staleness" e.Timeline.epoch)
        0 e.Timeline.staleness)
    t.Timeline.entries

let test_incremental_memo_reuse () =
  (* Alternating between two demand phases: the memo must actually hit
     once both phases have been seen. *)
  let tree = small_tree (Rng.create 5) ~nodes:12 ~max_requests:3 in
  let other =
    Tree.with_clients tree (fun j ->
        match Tree.clients tree j with
        | c :: rest when j mod 2 = 0 -> (c + 1) :: rest
        | cs -> cs)
  in
  let demands =
    List.init 8 (fun i -> if i mod 2 = 0 then tree else other)
  in
  let cfg =
    Engine.config ~policy:Update_policy.Systematic ~w:10
      (Engine.Min_cost (Cost.basic ~create:0.5 ~delete:0.25 ()))
  in
  let t = Engine.create cfg in
  let entries = List.map (Engine.step t) demands in
  check cb "memo holds tables" true (Engine.memo_tables t > 0);
  let hits =
    List.fold_left
      (fun acc (e : Timeline.entry) ->
        acc
        + (try List.assoc "dp_withpre.memo_hits" e.Timeline.counters
           with Not_found -> 0))
      0 entries
  in
  check cb "memo hits on warm epochs" true (hits > 0)

let test_incremental_power_memo_reuse () =
  (* The power-mode counterpart: on alternating demand phases the
     Dp_power memo must serve cached tables on warm epochs — every one
     of them doing strictly less merge work than a full re-solve of the
     same epoch — while picking the same placements. (A warm epoch
     whose whole root fold is cached merges nothing and records no
     memo counter: prefix hits are not counted.) *)
  let tree = small_tree (Rng.create 5) ~nodes:12 ~max_requests:3 in
  let other =
    Tree.with_clients tree (fun j ->
        match Tree.clients tree j with
        | c :: rest when j mod 2 = 0 -> (c + 1) :: rest
        | cs -> cs)
  in
  let demands = List.init 8 (fun i -> if i mod 2 = 0 then tree else other) in
  let objective =
    Engine.Min_power
      {
        modes = modes_2;
        power = power_exp3;
        cost = cost_cheap;
        bound = infinity;
      }
  in
  let run solver =
    let t =
      Engine.create
        (Engine.config ~policy:Update_policy.Systematic ~solver ~w:10 objective)
    in
    List.map (Engine.step t) demands
  in
  let counter name (e : Timeline.entry) =
    try List.assoc name e.Timeline.counters with Not_found -> 0
  in
  let full = run Engine.Full and incremental = run Engine.Incremental in
  let warm = ref [] in
  List.iter2
    (fun (f : Timeline.entry) (i : Timeline.entry) ->
      let label what = Printf.sprintf "epoch %d: %s" f.Timeline.epoch what in
      check cb (label "identical placement") true
        (Solution.equal f.Timeline.servers i.Timeline.servers);
      if f.Timeline.epoch >= 2 then begin
        warm := i :: !warm;
        check cb (label "fewer merge products than full") true
          (counter "dp_power.merge_products" i
          < counter "dp_power.merge_products" f)
      end)
    full incremental;
  check cb "memo hits on warm epochs" true
    (List.exists (fun e -> counter "dp_power.memo_hits" e > 0) !warm)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_timeline_json_shape () =
  let tree = small_tree (Rng.create 9) ~nodes:6 ~max_requests:3 in
  let cfg =
    Engine.config ~w:10
      (Engine.Min_cost (Cost.basic ~create:0.5 ~delete:0.25 ()))
  in
  let t = Engine.run cfg [ tree; tree ] in
  let s =
    Json.to_string ~pretty:true
      (Timeline.to_json ~config:[ ("seed", Json.Int 9) ] t)
  in
  List.iter
    (fun needle ->
      check cb (Printf.sprintf "json mentions %s" needle) true (contains s needle))
    [
      "\"schema_version\": 1";
      "\"bench\": \"engine_timeline\"";
      "\"seed\": 9";
      "\"summary\"";
      "\"epochs\"";
      "\"reconfigured\"";
    ]

(* --- invalid epochs: shortfall read off the violations --- *)

(* A registry entry that places whatever [preset] holds, or fails the
   solve when it holds nothing, so a test can put an invalid placement
   in force. *)
let preset = ref None

let preset_solver =
  lazy
    (Solver.register
       {
         Solver.name = "preset-placement";
         summary = "places a preset set of servers (test fixture)";
         capability =
           Solver.capability ~handles_cost:true ~handles_pre:true
             ~handles_qos:true ~handles_bw:true ();
         solve =
           (fun _ _ -> Option.map (Solver.outcome ~objective_value:0.) !preset);
         make_memo = None;
         memo_size = None;
       })

(* The evaluate-based shortfall: requests escaping past the root plus
   per-server load beyond capacity. *)
let evaluated_shortfall tree ~w servers =
  let ev = Solution.evaluate tree servers in
  List.fold_left
    (fun acc (_, load) -> acc + max 0 (load - w))
    ev.Solution.unserved ev.Solution.loads

(* Each kind of invalid placement, once as the epoch's new placement and
   once held because the next solve fails: unserved and overloaded agree
   with an evaluation of the placement. *)
let test_invalid_epoch_shortfall () =
  Lazy.force preset_solver;
  let w = 10 in
  let leaves l1 l2 =
    Tree.build
      (Tree.node [ Tree.node ~clients:[ l1 ] []; Tree.node ~clients:[ l2 ] [] ])
  in
  List.iter
    (fun (kind, demand, nodes, shortfall, overloaded) ->
      let servers = Solution.of_nodes nodes in
      let engine =
        Engine.create
          (Engine.config ~policy:Update_policy.Systematic
             ~algo:"preset-placement" ~w
             (Engine.Min_cost (Cost.basic ())))
      in
      preset := Some servers;
      let placed = Engine.step engine demand in
      preset := None;
      let held = Engine.step engine demand in
      List.iter
        (fun (path, (e : Timeline.entry)) ->
          let label = Printf.sprintf "%s, %s placement: " kind path in
          check solution_testable (label ^ "servers") servers
            e.Timeline.servers;
          check cb (label ^ "invalid") false e.Timeline.valid;
          check ci (label ^ "shortfall") shortfall e.Timeline.unserved;
          check ci (label ^ "evaluated shortfall")
            (evaluated_shortfall demand ~w servers)
            e.Timeline.unserved;
          check ci (label ^ "overloaded") overloaded e.Timeline.overloaded)
        [ ("new", placed); ("held", held) ];
      check cb (kind ^ ": held epoch kept the placement") false
        held.Timeline.reconfigured)
    [
      ("overloaded", leaves 6 7, [ 0 ], 3, 1);
      ("unserved requests", leaves 6 7, [ 2 ], 6, 0);
      ( "qos violation only",
        Tree.with_qos (leaves 6 3) (fun _ _ -> 0),
        [ 0 ],
        0,
        0 );
    ]

let () =
  Alcotest.run "engine"
    [
      ( "differential",
        [
          Alcotest.test_case "cost mode: 110 trace runs" `Slow
            test_differential_cost;
          Alcotest.test_case "power mode: 20 trace runs" `Slow
            test_differential_power;
        ] );
      ( "engine",
        [
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "systematic policy" `Quick
            test_systematic_reconfigures_every_epoch;
          Alcotest.test_case "memo reuse" `Quick test_incremental_memo_reuse;
          Alcotest.test_case "power memo reuse" `Quick
            test_incremental_power_memo_reuse;
          Alcotest.test_case "timeline json" `Quick test_timeline_json_shape;
          Alcotest.test_case "invalid epoch shortfall" `Quick
            test_invalid_epoch_shortfall;
        ] );
    ]
