(* QoS/bandwidth-constrained placement, proven against the exhaustive
   oracle and the frozen frontier DP.

   The load-bearing suites are differential:
   - on 250 random constrained instances where [Brute] (whose validity
     check includes the constraint violations) is affordable, the exact
     DP [Dp_withpre] matches it on feasibility and optimal cost,
     through the registry adapter, and the constrained greedy agrees
     on feasibility exactly and is sandwiched (valid, never below the
     optimum);
   - relaxing QoS or bandwidth never increases the optimal cost and
     never loses feasibility (constraint monotonicity);
   - on 2000 constrained instances of up to 60 nodes, and on
     unconstrained ones, [Dp_withpre] is bit-identical to the frozen
     (flow, slack) frontier DP [Frozen_qos] (placement, cost bits,
     servers, reused), and so are memo solves and engine timelines on
     constrained epoch streams. *)

open Replica_tree
open Replica_core
open Replica_engine
open Helpers

let w = 5
let cost = Cost.basic ~create:0.4 ~delete:0.3 ()

let get_entry name =
  match Registry.find name with
  | Some s -> s
  | None -> Alcotest.failf "registry entry %S missing" name

let dp_entry = get_entry "dp-withpre"
let greedy_qos_entry = get_entry "greedy-qos"

(* Run a registry solver, mapping infeasibility to [None]. *)
let run_entry entry t =
  let problem = Problem.min_cost t ~w ~cost in
  match Solver.run entry problem Solver.default_request with
  | Ok r -> r
  | Error e -> Alcotest.failf "%s rejected a compatible problem: %s"
                 entry.Solver.name e

let min_servers t ~w =
  Option.map
    (fun r -> (r.Dp_withpre.servers, r.Dp_withpre.solution))
    (Dp_withpre.solve t ~w ~cost:(Cost.basic ()))

(* --- differential: Dp_withpre and Greedy_qos vs the extended oracle --- *)

let test_dp_vs_brute () =
  List.iter
    (fun seed ->
      let rng = Rng.create (seed * 9001) in
      for rep = 1 to 25 do
        let t = constrained_instance rng in
        let tag = Printf.sprintf "seed=%d rep=%d" seed rep in
        let oracle = Brute.min_basic_cost t ~w ~cost in
        let dp = run_entry dp_entry t in
        let greedy = run_entry greedy_qos_entry t in
        (match (dp, oracle) with
        | None, None -> ()
        | Some d, Some (bc, _) ->
            check cf (tag ^ ": optimal cost") bc
              (Option.value d.Solver.cost ~default:nan);
            check cb
              (tag ^ ": dp placement satisfies the constraints")
              true
              (Solution.is_valid t ~w d.Solver.solution)
        | Some _, None -> Alcotest.fail (tag ^ ": dp found a phantom solution")
        | None, Some _ -> Alcotest.fail (tag ^ ": dp missed a solution"));
        match (greedy, oracle) with
        | None, None -> ()
        | Some g, Some (bc, _) ->
            (* Feasibility-complete and sandwiched, not optimal. *)
            check cb
              (tag ^ ": greedy placement satisfies the constraints")
              true
              (Solution.is_valid t ~w g.Solver.solution);
            let gc = Option.value g.Solver.cost ~default:nan in
            check cb
              (Printf.sprintf "%s: greedy never beats the optimum (%f >= %f)"
                 tag gc bc)
              true
              (gc >= bc -. 1e-9)
        | Some _, None ->
            Alcotest.fail (tag ^ ": greedy found a phantom solution")
        | None, Some _ ->
            Alcotest.fail (tag ^ ": greedy missed a feasible instance")
      done)
    seeds

(* --- constraint relaxation is monotone --- *)

let loosen_qos t =
  Tree.with_qos t (fun j i ->
      let q = List.nth (Tree.client_qos t j) i in
      if q = Tree.unbounded then q else q + 1)

let lift_bandwidth t = Tree.with_bandwidth t (fun _ -> Tree.unbounded)

let unconstrain t = lift_bandwidth (Tree.with_qos t (fun _ _ -> Tree.unbounded))

let test_relaxation_monotone () =
  List.iter
    (fun seed ->
      let rng = Rng.create (seed * 9103) in
      for rep = 1 to 10 do
        let t = constrained_instance rng in
        let tag = Printf.sprintf "seed=%d rep=%d" seed rep in
        match Dp_withpre.solve t ~w ~cost with
        | None ->
            (* Infeasible under constraints means infeasible without
               them too: capacity is the only true blocker under the
               closest policy. *)
            check cb
              (tag ^ ": relaxed instance infeasible too")
              true
              (Dp_withpre.solve (unconstrain t) ~w ~cost = None)
        | Some tight ->
            List.iter
              (fun (label, loosened) ->
                match Dp_withpre.solve loosened ~w ~cost with
                | None ->
                    Alcotest.failf "%s: %s lost feasibility" tag label
                | Some r ->
                    check cb
                      (Printf.sprintf
                         "%s: %s never increases the optimum (%f <= %f)" tag
                         label r.Dp_withpre.cost tight.Dp_withpre.cost)
                      true
                      (r.Dp_withpre.cost <= tight.Dp_withpre.cost +. 1e-9))
              [
                ("looser qos", loosen_qos t);
                ("lifted bandwidth", lift_bandwidth t);
                ("fully relaxed", unconstrain t);
              ]
      done)
    seeds

(* --- Dp_withpre against the frozen frontier DP ({!Frozen_qos}) --- *)

(* On unconstrained trees every cell has one class and the frontier
   one point. *)
let test_unconstrained_equivalence () =
  List.iter
    (fun seed ->
      let rng = Rng.create (seed * 9209) in
      for rep = 1 to 10 do
        let t = instance rng ~max_pre:3 in
        let tag = Printf.sprintf "seed=%d rep=%d" seed rep in
        check cb (tag ^ ": instance is unconstrained") false
          (Tree.is_constrained t);
        same_result tag
          (Frozen_qos.solve t ~w ~cost)
          (Dp_withpre.solve t ~w ~cost)
      done)
    seeds

let oracle_ws = [ 3; 5; 7; 10; 17 ]

let oracle_costs =
  [
    Cost.basic ();
    Cost.basic ~create:0.4 ~delete:0.3 ();
    Cost.basic ~delete:3. ();
    Cost.basic ~create:2. ~delete:5.5 ();
  ]

(* The two presets, QoS only, bandwidth only, and bounds of 10^6 and
   more beside tight ones: classes every depth satisfies that the
   frontier still tells apart from "no bound". *)
let oracle_constrain rng t =
  match Rng.int rng 5 with
  | 0 -> Generator.tight_constraints rng t
  | 1 -> Generator.loose_constraints rng t
  | 2 -> Generator.add_qos rng t ~min_qos:0 ~max_qos:3
  | 3 -> Generator.add_bandwidth rng t ~slack:(0.5 +. Rng.float rng 1.5)
  | _ ->
      Tree.with_bandwidth
        (Tree.with_qos t (fun _ _ ->
             if Rng.bool rng then 1_000_000 + Rng.int rng 3 else Rng.int rng 3))
        (fun _ -> if Rng.bool rng then 1_000_000 else Tree.unbounded)

let test_frozen_oracle () =
  let rng = Rng.create 2026 in
  let instances = ref 0 and feasible = ref 0 in
  for i = 0 to 99 do
    let nodes = 5 + Rng.int rng 56 in
    let profile =
      if i mod 2 = 0 then Generator.fat ~nodes () else Generator.high ~nodes ()
    in
    let t =
      Generator.add_pre_existing rng
        (Generator.random rng profile)
        (Rng.int rng ((nodes / 2) + 1))
    in
    let t = oracle_constrain rng t in
    List.iter
      (fun w ->
        List.iteri
          (fun k cost ->
            incr instances;
            let expected = Frozen_qos.solve t ~w ~cost in
            if expected <> None then incr feasible;
            same_result
              (Printf.sprintf "tree %d (N=%d, E=%d) w=%d cost %d" i
                 (Tree.size t) (Tree.num_pre_existing t) w k)
              expected
              (Dp_withpre.solve t ~w ~cost))
          oracle_costs)
      oracle_ws
  done;
  check cb "at least 2000 instances" true (!instances >= 2000);
  check cb "feasible and infeasible instances both common" true
    (!feasible >= !instances / 4 && !instances - !feasible >= !instances / 10)

(* Memo solves equal memo-less ones while single internal nodes flip
   their clients' QoS bounds (0-2, high trees): a flip leaves every
   child fingerprint of the node alone, so only the node's own class
   in the memo key keeps its cached table from being reused. Demand
   drifts on a random node every fourth step. *)
let test_memo_qos_flips () =
  let rng = Rng.create 4242 in
  for stream = 0 to 29 do
    let nodes = 15 + Rng.int rng 40 in
    let base =
      Generator.add_pre_existing rng
        (Generator.random rng (Generator.high ~nodes ()))
        (Rng.int rng ((nodes / 4) + 1))
    in
    let t = ref (Generator.add_qos rng base ~min_qos:0 ~max_qos:2) in
    let flippable =
      List.filter
        (fun j -> Tree.children base j <> [] && Tree.clients base j <> [])
        (List.init nodes Fun.id)
    in
    let w = List.nth [ 5; 7; 10; 17 ] (Rng.int rng 4) in
    let cost = List.nth oracle_costs (stream mod List.length oracle_costs) in
    let memo = Dp_withpre.memo () in
    for step = 1 to 40 do
      let cur = !t in
      (if step mod 4 = 0 then
         let j = Rng.int rng nodes in
         t :=
           Tree.with_clients cur (fun k ->
               let cl = Tree.clients cur k in
               if k = j then List.map (fun r -> 1 + ((r + 1) mod 4)) cl else cl)
       else
         match flippable with
         | [] -> ()
         | _ ->
             let j = List.nth flippable (Rng.int rng (List.length flippable)) in
             let q = Rng.int rng 3 in
             t :=
               Tree.with_qos cur (fun k i ->
                   if k = j then q else List.nth (Tree.client_qos cur k) i));
      same_result
        (Printf.sprintf "stream %d step %d" stream step)
        (Dp_withpre.solve !t ~w ~cost)
        (Dp_withpre.solve ~memo !t ~w ~cost)
    done
  done

(* --- capability guards --- *)

let test_capability_rejection () =
  let t =
    Tree.build
      (Tree.node ~clients:[ 2 ]
         [ Tree.node ~clients:[ 3 ] ~qos:[ 1 ] [] ])
  in
  let problem = Problem.min_cost t ~w ~cost in
  List.iter
    (fun name ->
      match Solver.run (get_entry name) problem Solver.default_request with
      | Error _ -> ()
      | Ok _ ->
          Alcotest.failf "%s accepted a qos-constrained tree" name)
    [ "dp-nopre"; "greedy"; "heuristic-cost" ];
  (* The bandwidth axis is guarded independently of the qos axis. *)
  let bw_only =
    Tree.build
      (Tree.node ~clients:[ 2 ] [ Tree.node ~clients:[ 3 ] ~bw:4 [] ])
  in
  (match
     Solver.run (get_entry "heuristic-cost")
       (Problem.min_cost bw_only ~w ~cost)
       Solver.default_request
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "heuristic-cost accepted a bandwidth-capped tree");
  (* Constraint-capable solvers accept both regimes, and brute stays an
     oracle for them. *)
  List.iter
    (fun name ->
      match Solver.run (get_entry name) problem Solver.default_request with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s rejected a constrained tree: %s" name e)
    [ "dp-withpre"; "dp-qos"; "greedy-qos"; "brute" ]

(* --- edge cases --- *)

(* QoS 0 forces a server at the attachment node; feasible whenever the
   node's own load fits. *)
let test_qos_zero_feasible () =
  let t =
    Tree.build
      (Tree.node [ Tree.node ~clients:[ 2 ] ~qos:[ 0 ] [] ])
  in
  match min_servers t ~w with
  | None -> Alcotest.fail "qos 0 with fitting load must be feasible"
  | Some (n, sol) ->
      check ci "one server suffices" 1 n;
      check cb "the server sits at the attachment node" true
        (Solution.mem sol 1)

(* A node whose own load exceeds [w] is infeasible under the closest
   policy no matter what; with qos 0 every solver must agree on
   [No_solution] (the ISSUE's uniform-infeasibility case). *)
let test_qos_zero_infeasible_uniform () =
  let t =
    Tree.build (Tree.node [ Tree.node ~clients:[ w + 1 ] ~qos:[ 0 ] [] ])
  in
  check cb "brute: no solution" true (Brute.min_basic_cost t ~w ~cost = None);
  check cb "dp-withpre: no solution" true (Dp_withpre.solve t ~w ~cost = None);
  check cb "greedy-qos: no solution" true (Greedy_qos.solve t ~w = None);
  check cb "registry dp-withpre: no solution" true
    (run_entry dp_entry t = None);
  check cb "registry greedy-qos: no solution" true
    (run_entry greedy_qos_entry t = None)

(* Bandwidth exactly equal to the flow a link must carry is feasible
   (the cap is inclusive); one unit less forces a server below it. *)
let test_bandwidth_boundary () =
  let build bw =
    Tree.build (Tree.node ~clients:[ 1 ] [ Tree.node ~clients:[ 3 ] ~bw [] ])
  in
  (match min_servers (build 3) ~w:10 with
  | Some (1, sol) ->
      check cb "single root server passes the saturated link" true
        (Solution.mem sol 0)
  | Some (n, _) -> Alcotest.failf "bw = demand: expected 1 server, got %d" n
  | None -> Alcotest.fail "bw = demand must be feasible");
  match min_servers (build 2) ~w:10 with
  | Some (2, sol) ->
      check cb "undersized link forces a server at the child" true
        (Solution.mem sol 1)
  | Some (n, _) -> Alcotest.failf "bw < demand: expected 2 servers, got %d" n
  | None -> Alcotest.fail "bw < demand stays feasible via a child server"

let test_single_node () =
  let feasible = Tree.build (Tree.node ~clients:[ 2 ] ~qos:[ 0 ] []) in
  (match min_servers feasible ~w with
  | Some (1, sol) -> check cb "server at the root" true (Solution.mem sol 0)
  | Some (n, _) -> Alcotest.failf "single node: expected 1 server, got %d" n
  | None -> Alcotest.fail "single node with fitting load must be feasible");
  let infeasible = Tree.build (Tree.node ~clients:[ w + 2 ] []) in
  check cb "brute: single node over capacity" true
    (Brute.min_basic_cost infeasible ~w ~cost = None);
  check cb "dp-withpre: single node over capacity" true
    (Dp_withpre.solve infeasible ~w ~cost = None);
  check cb "greedy-qos: single node over capacity" true
    (Greedy_qos.solve infeasible ~w = None)

(* --- serialization and epoch-view plumbing --- *)

let test_serialization_roundtrip () =
  List.iter
    (fun seed ->
      let rng = Rng.create (seed * 9311) in
      for rep = 1 to 5 do
        let t = constrained_instance rng in
        let tag = Printf.sprintf "seed=%d rep=%d" seed rep in
        check cb (tag ^ ": constrained round-trip") true
          (Tree.equal t (Tree.of_string (Tree.to_string t)));
        let u = instance rng ~max_pre:2 in
        let s = Tree.to_string u in
        check cb (tag ^ ": unconstrained round-trip") true
          (Tree.equal u (Tree.of_string s));
        check cb (tag ^ ": unconstrained strings carry no qos tokens") false
          (String.contains s '@')
      done)
    seeds

let test_with_clients_keeps_qos () =
  let t =
    Tree.build
      (Tree.node ~clients:[ 2; 1 ] ~qos:[ 3; 1 ]
         [ Tree.node ~clients:[ 4 ] ~qos:[ 2 ] [] ])
  in
  (* Same arity: bounds carried verbatim (the Epochs redraw path). *)
  let same = Tree.with_clients t (fun j -> List.map succ (Tree.clients t j)) in
  check (Alcotest.list ci) "same arity keeps qos verbatim" [ 3; 1 ]
    (Tree.client_qos same 0);
  check (Alcotest.list ci) "child bounds kept too" [ 2 ]
    (Tree.client_qos same 1);
  (* Changed arity: every new client inherits the node's tightest old
     bound, so a redraw can only preserve or tighten the constraint. *)
  let shrunk =
    Tree.with_clients t (fun j -> if j = 0 then [ 9 ] else Tree.clients t j)
  in
  check (Alcotest.list ci) "changed arity replicates the tightest bound"
    [ 1 ]
    (Tree.client_qos shrunk 0)

(* --- engine: constraints tightened mid-trace --- *)

let tighten_from ~epoch demands =
  List.mapi
    (fun i d ->
      if i + 1 >= epoch then
        Tree.with_bandwidth
          (Tree.with_qos d (fun _ _ -> 2))
          (fun j ->
            let demand = Tree.subtree_demand d j in
            if demand = 0 then Tree.unbounded else 2 * demand)
      else d)
    demands

let drifting_demands tree seed epochs =
  let rng = Rng.create seed in
  List.init epochs (fun _ ->
      Tree.with_clients tree (fun j ->
          List.filter_map
            (fun r ->
              if Rng.bernoulli rng 0.2 then None
              else
                Some
                  (min 4 (max 1 (r + Rng.int_in_range rng ~min:(-1) ~max:1))))
            (Tree.clients tree j)))

let test_engine_mid_trace_tightening () =
  let tree = small_tree (Rng.create 47) ~nodes:9 ~max_requests:3 in
  let demands = tighten_from ~epoch:4 (drifting_demands tree 11 7) in
  let cfg =
    Engine.config ~policy:Update_policy.Systematic ~algo:"dp-withpre" ~w:10
      (Engine.Min_cost cost)
  in
  let engine = Engine.create cfg in
  List.iteri
    (fun i demand ->
      let entry = Engine.step engine demand in
      check cb
        (Printf.sprintf "epoch %d placement stays valid" (i + 1))
        true entry.Timeline.valid;
      (* The recorded placement satisfies the epoch's own constraints —
         including from the tightening epoch on. *)
      check cb
        (Printf.sprintf "epoch %d placement honours the epoch constraints"
           (i + 1))
        true
        (Solution.is_valid demand ~w:10 entry.Timeline.servers))
    demands

let test_engine_rejects_incapable_solver () =
  let tree = small_tree (Rng.create 48) ~nodes:6 ~max_requests:3 in
  let cfg =
    Engine.config ~policy:Update_policy.Systematic ~algo:"heuristic-cost" ~w:10
      (Engine.Min_cost cost)
  in
  let engine = Engine.create cfg in
  (* Unconstrained epochs sail through... *)
  let entry = Engine.step engine tree in
  check cb "unconstrained epoch accepted" true entry.Timeline.valid;
  (* ...but the epoch that turns constraints on fails fast instead of
     silently emitting constraint-violating placements. *)
  Alcotest.check_raises "constrained epoch rejected"
    (Invalid_argument
       "Engine: heuristic-cost cannot enforce the epoch's QoS bounds (use \
        a qos-capable solver, e.g. dp-withpre)") (fun () ->
      ignore (Engine.step engine (Tree.with_qos tree (fun _ _ -> 1))));
  Alcotest.check_raises "bandwidth-capped epoch rejected"
    (Invalid_argument
       "Engine: heuristic-cost cannot enforce the epoch's bandwidth caps \
        (use a bw-capable solver, e.g. dp-withpre)") (fun () ->
      ignore
        (Engine.step engine (Tree.with_bandwidth tree (fun j -> 100 + j))))

(* The frozen frontier DP as a registry entry, so that an engine can
   run on it and serve as the reference timeline. *)
let frozen_solver =
  lazy
    (Solver.register
       {
         Solver.name = "frozen-qos-oracle";
         summary = "frozen (flow, slack) frontier DP (test oracle)";
         capability =
           Solver.capability ~handles_cost:true ~handles_pre:true
             ~handles_qos:true ~handles_bw:true ~exactness:Solver.Exact ();
         solve =
           (fun p _ ->
             let cost =
               match p.Problem.objective with
               | Problem.Min_cost c -> c
               | _ -> Cost.basic ()
             in
             Option.map
               (fun (r : Dp_withpre.result) ->
                 Solver.outcome ~cost:r.Dp_withpre.cost
                   ~reused:r.Dp_withpre.reused
                   ~objective_value:r.Dp_withpre.cost r.Dp_withpre.solution)
               (Frozen_qos.solve p.Problem.tree ~w:p.Problem.w ~cost));
         make_memo = None;
         memo_size = None;
       })

(* Epoch streams whose QoS bounds, bandwidth caps or both switch on
   mid-run and tighten again later: full and incremental dp-withpre
   timelines equal the frozen DP's. *)
let test_engine_streams_vs_frozen () =
  Lazy.force frozen_solver;
  let rng = Rng.create 53 in
  for stream = 0 to 5 do
    let nodes = 20 + Rng.int rng 40 in
    let profile =
      if stream mod 2 = 0 then Generator.fat ~nodes ()
      else Generator.high ~nodes ()
    in
    let tree = Generator.random rng profile in
    let trace = workload_trace rng tree ~kind:(stream mod 3) ~horizon:24. in
    let epochs = Replica_trace.Epochs.epochs trace tree ~window:2. in
    let first = 2 + Rng.int rng 4 in
    let constrain i d =
      let q = if i + 1 >= first + 4 then 1 else 2 in
      let s = if i + 1 >= first + 4 then 1 else 2 in
      if i + 1 < first then d
      else
        let d =
          if stream mod 3 = 1 then d else Tree.with_qos d (fun _ _ -> q)
        in
        if stream mod 3 = 0 then d
        else
          Tree.with_bandwidth d (fun j ->
              let demand = Tree.subtree_demand d j in
              if demand = 0 then Tree.unbounded else s * demand)
    in
    let epochs = List.mapi constrain epochs in
    let w = 10 + Rng.int rng 10 in
    let cost = List.nth oracle_costs (stream mod List.length oracle_costs) in
    List.iter
      (fun policy ->
        let run ?algo solver =
          Engine.run
            (Engine.config ~policy ~solver ?algo ~w (Engine.Min_cost cost))
            epochs
        in
        let reference = run ~algo:"frozen-qos-oracle" Engine.Full in
        List.iter
          (fun (name, solver) ->
            let got = run ~algo:"dp-withpre" solver in
            List.iter2
              (fun (a : Timeline.entry) (b : Timeline.entry) ->
                let msg =
                  Printf.sprintf "stream %d %s %s epoch %d" stream
                    (Update_policy.policy_to_string policy) name
                    a.Timeline.epoch
                in
                check cb (msg ^ ": reconfigured") a.Timeline.reconfigured
                  b.Timeline.reconfigured;
                check cb (msg ^ ": servers") true
                  (Solution.equal a.Timeline.servers b.Timeline.servers);
                check Alcotest.int64 (msg ^ ": step cost bits")
                  (Int64.bits_of_float a.Timeline.step_cost)
                  (Int64.bits_of_float b.Timeline.step_cost))
              reference.Timeline.entries got.Timeline.entries)
          [ ("full", Engine.Full); ("incremental", Engine.Incremental) ])
      [ Update_policy.Systematic; Update_policy.Lazy ]
  done

let () =
  Alcotest.run "qos"
    [
      ( "differential",
        [
          Alcotest.test_case "250 instances vs brute" `Slow test_dp_vs_brute;
          Alcotest.test_case "relaxation monotone" `Slow
            test_relaxation_monotone;
          Alcotest.test_case "unconstrained = dp-withpre" `Slow
            test_unconstrained_equivalence;
        ] );
      ( "frozen oracle",
        [
          Alcotest.test_case "2000 constrained instances" `Slow
            test_frozen_oracle;
          Alcotest.test_case "memo across qos flips" `Slow test_memo_qos_flips;
          Alcotest.test_case "engine streams" `Slow
            test_engine_streams_vs_frozen;
        ] );
      ( "capability",
        [
          Alcotest.test_case "incapable solvers reject" `Quick
            test_capability_rejection;
        ] );
      ( "edge",
        [
          Alcotest.test_case "qos 0, fitting load" `Quick
            test_qos_zero_feasible;
          Alcotest.test_case "qos 0, uniform infeasibility" `Quick
            test_qos_zero_infeasible_uniform;
          Alcotest.test_case "bandwidth boundary" `Quick
            test_bandwidth_boundary;
          Alcotest.test_case "single node" `Quick test_single_node;
          Alcotest.test_case "serialization round-trip" `Quick
            test_serialization_roundtrip;
          Alcotest.test_case "with_clients keeps qos" `Quick
            test_with_clients_keeps_qos;
        ] );
      ( "engine",
        [
          Alcotest.test_case "mid-trace tightening" `Quick
            test_engine_mid_trace_tightening;
          Alcotest.test_case "incapable solver raises" `Quick
            test_engine_rejects_incapable_solver;
        ] );
    ]
