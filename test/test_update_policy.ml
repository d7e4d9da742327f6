open Replica_tree
open Replica_core
open Replica_engine
open Helpers

let w = 10
let cost = Cost.basic ~create:0.5 ~delete:0.25 ()

(* A fixed 3-node chain whose leaf demand ramps up then collapses. *)
let demand_sequence loads =
  let base =
    Tree.build (Tree.node [ Tree.node [ Tree.node [] ] ])
  in
  List.map
    (fun load -> Tree.with_clients base (fun j -> if j = 2 then [ load ] else []))
    loads

let config policy = Engine.config ~policy ~w (Engine.Min_cost cost)
let run policy demands = Engine.run (config policy) demands
let simulate policy loads = run policy (demand_sequence loads)

let test_systematic_reconfigures_every_epoch () =
  let s = simulate Update_policy.Systematic [ 3; 4; 5; 6 ] in
  check ci "four reconfigurations" 4 s.Timeline.reconfigurations;
  check ci "no invalid epoch" 0 s.Timeline.invalid_epochs;
  List.iter
    (fun e -> check cb "reconfigured" true e.Timeline.reconfigured)
    s.Timeline.entries

let test_lazy_keeps_valid_placement () =
  (* Demand stays under W: one reconfiguration, then the same server. *)
  let s = simulate Update_policy.Lazy [ 3; 4; 5; 6 ] in
  check ci "single reconfiguration" 1 s.Timeline.reconfigurations;
  let first = List.hd s.Timeline.entries in
  List.iter
    (fun e ->
      check solution_testable "placement unchanged" first.Timeline.servers
        e.Timeline.servers)
    s.Timeline.entries

let test_lazy_reacts_to_overflow () =
  (* One server suffices for load <= 10; the jump to 11 is unserveable at
     a single node (total at the client node stays <= W though), so use
     two client nodes to overflow a shared server instead. *)
  let base =
    Tree.build
      (Tree.node [ Tree.node ~clients:[] []; Tree.node ~clients:[] [] ])
  in
  let at l1 l2 =
    Tree.with_clients base (fun j ->
        if j = 1 then [ l1 ] else if j = 2 then [ l2 ] else [])
  in
  let s = run Update_policy.Lazy [ at 3 3; at 4 4; at 8 8 ] in
  (* Epoch 1: place (root alone absorbs 6). Epoch 2: still fits (8).
     Epoch 3: 16 > 10 -> must reconfigure. *)
  check ci "two reconfigurations" 2 s.Timeline.reconfigurations;
  check ci "no invalid epoch" 0 s.Timeline.invalid_epochs

let test_periodic () =
  let s = simulate (Update_policy.Periodic 2) [ 3; 3; 3; 3; 3; 3 ] in
  (* Epochs 2, 4, 6 are forced; epoch 1 also reconfigures because the
     empty placement is invalid. *)
  check ci "four reconfigurations" 4 s.Timeline.reconfigurations

let test_drift () =
  let s = simulate (Update_policy.Drift 0.5) [ 4; 5; 4; 9; 9 ] in
  (* Epoch 1: invalid empty placement -> reconfigure (last_demand 4).
     Epochs 2-3: drift below 50%. Epoch 4: 9 vs 4 -> 125% drift ->
     reconfigure. Epoch 5: no drift. *)
  check ci "two reconfigurations" 2 s.Timeline.reconfigurations

let test_lazy_never_costs_more_than_systematic () =
  (* On any demand sequence, lazy pays at most systematic's total cost:
     it reconfigures on a subset of epochs with the same optimal
     single-step solver. (Not a theorem in general — lazy can inherit a
     worse pre-existing set — but holds on these monotone ramps.) *)
  List.iter
    (fun loads ->
      let lazy_sum = simulate Update_policy.Lazy loads in
      let sys_sum = simulate Update_policy.Systematic loads in
      check cb "lazy <= systematic" true
        (lazy_sum.Timeline.total_cost <= sys_sum.Timeline.total_cost +. 1e-9))
    [ [ 3; 4; 5 ]; [ 2; 2; 2; 2 ]; [ 1; 5; 9; 9; 9 ] ]

let test_unserveable_epoch_is_reported () =
  (* A demand of 11 at one node exceeds W: no placement at all works. *)
  let s = simulate Update_policy.Systematic [ 3; 11; 4 ] in
  check ci "one invalid epoch" 1 s.Timeline.invalid_epochs;
  let bad = List.nth s.Timeline.entries 1 in
  check cb "flagged" false bad.Timeline.valid;
  (* Whatever single server epoch 1 placed sits on the chain, so the 11
     requests reach it and overload it by 1. *)
  check ci "shortfall" 1 bad.Timeline.unserved;
  (* The previous placement survives the bad epoch. *)
  let before = List.nth s.Timeline.entries 0 in
  check solution_testable "placement kept" before.Timeline.servers
    bad.Timeline.servers

(* A bad policy parameter is rejected when an engine or a forest is
   created, before any epoch runs. *)
let test_validation () =
  let forest =
    Replica_forest.Forest.generate
      {
        Replica_forest.Forest.trees = 1;
        objects = 2;
        servers = 20;
        profile = Generator.high ~nodes:6 ();
        seed = 1;
      }
  in
  List.iter
    (fun (policy, msg) ->
      let name = Update_policy.policy_to_string policy in
      Alcotest.check_raises ("engine " ^ name) (Invalid_argument msg)
        (fun () -> ignore (Engine.create (config policy)));
      Alcotest.check_raises ("forest " ^ name) (Invalid_argument msg)
        (fun () ->
          ignore
            (Replica_forest.Forest_engine.create forest
               {
                 Replica_forest.Forest_engine.engine = config policy;
                 coupling = false;
                 domains = 1;
               })))
    [
      (Update_policy.Periodic 0, "Update_policy: period must be positive");
      (Update_policy.Periodic (-3), "Update_policy: period must be positive");
      (Update_policy.Drift (-0.1), "Update_policy: negative drift");
    ]

let test_policy_names () =
  check Alcotest.string "systematic" "systematic"
    (Update_policy.policy_to_string Update_policy.Systematic);
  check Alcotest.string "periodic" "periodic(3)"
    (Update_policy.policy_to_string (Update_policy.Periodic 3));
  check Alcotest.string "drift" "drift(0.25)"
    (Update_policy.policy_to_string (Update_policy.Drift 0.25))

let test_total_cost_matches_records () =
  let s = simulate Update_policy.Systematic [ 3; 7; 2; 9 ] in
  let sum =
    List.fold_left
      (fun acc e -> acc +. e.Timeline.step_cost)
      0. s.Timeline.entries
  in
  check cf "sum of steps" sum s.Timeline.total_cost

(* --- Engine.run against the frozen batch loop ({!Frozen_simulate}) --- *)

(* Every run: each entry's epoch, decision, placement, cost bits,
   validity and shortfall, and the summary's cost bits and counts,
   equal the frozen loop's. Returns the frozen run's invalid (there:
   unserveable) epochs. *)
let check_against_frozen ~label ~w ~solver policy demands =
  let expected = Frozen_simulate.simulate ~w ~cost policy demands in
  let got =
    Engine.run
      (Engine.config ~policy ~solver ~w (Engine.Min_cost cost))
      demands
  in
  let bits = Int64.bits_of_float in
  check ci (label ^ ": epochs")
    (List.length expected.Frozen_simulate.records)
    (List.length got.Timeline.entries);
  List.iter2
    (fun (r : Frozen_simulate.step_record) (e : Timeline.entry) ->
      let label = Printf.sprintf "%s epoch %d" label r.epoch in
      check ci (label ^ ": epoch") r.epoch e.epoch;
      check cb (label ^ ": reconfigured") r.reconfigured e.reconfigured;
      check solution_testable (label ^ ": servers") r.servers e.servers;
      check Alcotest.int64 (label ^ ": step_cost bits") (bits r.step_cost)
        (bits e.step_cost);
      check cb (label ^ ": valid") r.valid e.valid;
      check ci (label ^ ": unserved") r.unserved e.unserved)
    expected.records got.entries;
  check Alcotest.int64 (label ^ ": total_cost bits")
    (bits expected.total_cost) (bits got.total_cost);
  check ci (label ^ ": reconfigurations") expected.reconfigurations
    got.reconfigurations;
  check ci (label ^ ": invalid epochs") expected.invalid_epochs
    got.invalid_epochs;
  expected.invalid_epochs

(* Drifting demand (fat and high trees at three volatilities) and
   diurnal trace epochs (three windows), each at the ablations' W and a
   tighter one that leaves some epochs unserveable, under five policies
   and both re-solving strategies. *)
let test_frozen_oracle () =
  let runs = ref 0 and unserveable = ref 0 in
  let against ~label demands =
    List.iter
      (fun w ->
        List.iter
          (fun policy ->
            List.iter
              (fun (name, solver) ->
                incr runs;
                let label =
                  Printf.sprintf "%s w=%d %s %s" label w
                    (Update_policy.policy_to_string policy)
                    name
                in
                unserveable :=
                  !unserveable
                  + check_against_frozen ~label ~w ~solver policy demands)
              [ ("full", Engine.Full); ("incremental", Engine.Incremental) ])
          Update_policy.
            [ Systematic; Lazy; Periodic 3; Drift 0.05; Drift 0.2 ])
      [ 10; 7 ]
  in
  let open Replica_experiments in
  List.iter
    (fun shape ->
      List.iter
        (fun intensity ->
          let config =
            {
              (Exp_policy.default_config ~shape ()) with
              Exp_policy.nodes = 24;
              epochs = 10;
            }
          in
          for seed = 1 to 12 do
            against
              ~label:
                (Printf.sprintf "%s drift %.2f seed %d"
                   (Workload.shape_to_string shape)
                   intensity seed)
              (Exp_policy.demand_sequence ~intensity (Rng.create seed) config)
          done)
        [ 0.25; 1.; 4. ])
    [ Workload.Fat; Workload.High ];
  for seed = 1 to 10 do
    let rng = Rng.create (100 + seed) in
    let tree = Generator.random rng (Generator.high ~nodes:20 ()) in
    let trace =
      Replica_trace.Arrivals.diurnal rng tree ~horizon:24. ~period:24.
        ~floor:0.25
    in
    List.iter
      (fun window ->
        against
          ~label:(Printf.sprintf "diurnal seed %d window %.1f" seed window)
          (Replica_trace.Epochs.epochs trace tree ~window))
      [ 0.5; 2.; 8. ]
  done;
  check cb (Printf.sprintf "%d runs >= 2000" !runs) true (!runs >= 2000);
  check cb
    (Printf.sprintf "%d unserveable epochs >= 500" !unserveable)
    true (!unserveable >= 500)

let () =
  Alcotest.run "update_policy"
    [
      ( "policies",
        [
          Alcotest.test_case "systematic" `Quick test_systematic_reconfigures_every_epoch;
          Alcotest.test_case "lazy keeps valid" `Quick test_lazy_keeps_valid_placement;
          Alcotest.test_case "lazy reacts" `Quick test_lazy_reacts_to_overflow;
          Alcotest.test_case "periodic" `Quick test_periodic;
          Alcotest.test_case "drift" `Quick test_drift;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "lazy cheaper" `Quick test_lazy_never_costs_more_than_systematic;
          Alcotest.test_case "unserveable epoch" `Quick test_unserveable_epoch_is_reported;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "names" `Quick test_policy_names;
          Alcotest.test_case "cost bookkeeping" `Quick test_total_cost_matches_records;
        ] );
      ( "frozen oracle",
        [ Alcotest.test_case "engine runs" `Slow test_frozen_oracle ] );
    ]
