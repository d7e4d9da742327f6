open Replica_tree
open Replica_core
open Helpers

let default_cost = Cost.basic ~create:0.1 ~delete:0.01 ()

let test_figure1_reuse_when_root_light () =
  (* §3.1: with 2 requests at the root, keep pre-existing B. *)
  let t = figure1_tree ~root_requests:2 in
  match Dp_withpre.solve t ~w:10 ~cost:default_cost with
  | Some r ->
      check cb "B reused" true (Solution.mem r.Dp_withpre.solution fig1_b);
      check ci "reused count" 1 r.Dp_withpre.reused;
      check ci "two servers" 2 r.Dp_withpre.servers;
      check cb "root serves the rest" true (Solution.mem r.Dp_withpre.solution fig1_root);
      (* cost: 2 servers + 1 create + 0 delete *)
      check cf "cost" 2.1 r.Dp_withpre.cost
  | None -> Alcotest.fail "expected a solution"

let test_figure1_drop_when_root_heavy () =
  (* §3.1: with 4 requests at the root, two servers are needed anyway and
     B becomes useless: keep a server at C and one at the root. *)
  let t = figure1_tree ~root_requests:4 in
  match Dp_withpre.solve t ~w:10 ~cost:default_cost with
  | Some r ->
      check cb "C chosen" true (Solution.mem r.Dp_withpre.solution fig1_c);
      check cb "B dropped" false (Solution.mem r.Dp_withpre.solution fig1_b);
      check ci "two servers" 2 r.Dp_withpre.servers;
      check ci "nothing reused" 0 r.Dp_withpre.reused;
      (* cost: 2 servers + 2 creates + 1 delete *)
      check cf "cost" 2.21 r.Dp_withpre.cost
  | None -> Alcotest.fail "expected a solution"

let test_no_pre_matches_dp_nopre () =
  (* With E = ∅ and zero create/delete costs, the optimal cost is the
     minimal server count. *)
  List.iter
    (fun seed ->
      let rng = Rng.create (seed + 13) in
      for _ = 1 to 10 do
        let nodes = 2 + Rng.int rng 12 in
        let t = small_tree rng ~nodes ~max_requests:4 in
        let w = 3 + Rng.int rng 6 in
        let with_pre = Dp_withpre.solve t ~w ~cost:zero_cost in
        let nopre = Dp_nopre.solve t ~w in
        match (with_pre, nopre) with
        | None, None -> ()
        | Some a, Some b ->
            check ci "same server count" b.Dp_nopre.servers a.Dp_withpre.servers
        | Some _, None | None, Some _ -> Alcotest.fail "feasibility mismatch"
      done)
    seeds

let test_matches_brute () =
  List.iter
    (fun seed ->
      let rng = Rng.create (seed + 17) in
      for _ = 1 to 15 do
        let nodes = 2 + Rng.int rng 9 in
        let pre = Rng.int rng (nodes + 1) in
        let t = small_tree_with_pre rng ~nodes ~max_requests:4 ~pre in
        let w = 3 + Rng.int rng 6 in
        let cost =
          Cost.basic
            ~create:(Rng.float rng 2.)
            ~delete:(Rng.float rng 2.)
            ()
        in
        let dp = Dp_withpre.solve t ~w ~cost in
        let brute = Brute.min_basic_cost t ~w ~cost in
        match (dp, brute) with
        | None, None -> ()
        | Some d, Some (bc, _) ->
            check cf
              (Printf.sprintf "optimal cost (seed %d)" seed)
              bc d.Dp_withpre.cost
        | Some _, None -> Alcotest.fail "dp found a phantom solution"
        | None, Some _ -> Alcotest.fail "dp missed a solution"
      done)
    seeds

let test_zero_load_reuse_when_delete_expensive () =
  (* A pre-existing root above a self-sufficient subtree: with delete > 1
     it is cheaper to keep the root server idling than to delete it. *)
  let t =
    Tree.build
      (Tree.node ~pre:1 [ Tree.node ~clients:[ 2 ] ~pre:1 [] ])
  in
  let expensive = Cost.basic ~create:0.5 ~delete:3. () in
  (match Dp_withpre.solve t ~w:10 ~cost:expensive with
  | Some r ->
      check ci "both kept" 2 r.Dp_withpre.servers;
      check ci "both reused" 2 r.Dp_withpre.reused;
      check cf "cost 2" 2. r.Dp_withpre.cost
  | None -> Alcotest.fail "expected a solution");
  (* With cheap deletion the idle root goes away. *)
  let cheap = Cost.basic ~create:0.5 ~delete:0.1 () in
  match Dp_withpre.solve t ~w:10 ~cost:cheap with
  | Some r ->
      check ci "one server" 1 r.Dp_withpre.servers;
      check cf "cost 1.1" 1.1 r.Dp_withpre.cost
  | None -> Alcotest.fail "expected a solution"

let test_reuse_priority () =
  (* Two 5-request branches at W = 5: two servers are unavoidable, and
     with create > 0, delete > 0 every optimal solution keeps the
     pre-existing node 1. (At W = 10 the same instance is consolidated
     onto the root instead: create + 2*delete < 1, §2.1.) *)
  let t =
    Tree.build
      (Tree.node
         [
           Tree.node ~clients:[ 5 ] ~pre:1 [];
           Tree.node ~clients:[ 5 ] [];
         ])
  in
  (match Dp_withpre.solve t ~w:10 ~cost:default_cost with
  | Some r ->
      check ci "consolidated on the root" 1 r.Dp_withpre.servers;
      check cf "consolidation cost" 1.11 r.Dp_withpre.cost
  | None -> Alcotest.fail "expected a solution");
  match Dp_withpre.solve t ~w:5 ~cost:default_cost with
  | Some r ->
      check cb "pre-existing node kept" true (Solution.mem r.Dp_withpre.solution 1);
      check ci "reused" 1 r.Dp_withpre.reused
  | None -> Alcotest.fail "expected a solution"

let test_section21_consolidation_boundary () =
  (* §2.1: "if create + 2·delete < 1, it is always advantageous to
     replace two pre-existing servers by a new one (if capacities
     permit)". Two 4-request pre-existing branches consolidatable onto
     the root at W = 10. *)
  let t =
    Tree.build
      (Tree.node
         [
           Tree.node ~clients:[ 4 ] ~pre:1 [];
           Tree.node ~clients:[ 4 ] ~pre:1 [];
         ])
  in
  (* create + 2*delete = 0.9 < 1: consolidate. *)
  (match Dp_withpre.solve t ~w:10 ~cost:(Cost.basic ~create:0.5 ~delete:0.2 ()) with
  | Some r ->
      check ci "one new server" 1 r.Dp_withpre.servers;
      check ci "nothing reused" 0 r.Dp_withpre.reused;
      check cf "cost" 1.9 r.Dp_withpre.cost
  | None -> Alcotest.fail "expected a solution");
  (* create + 2*delete = 1.2 > 1: keep both pre-existing servers. *)
  (match Dp_withpre.solve t ~w:10 ~cost:(Cost.basic ~create:0.8 ~delete:0.2 ()) with
  | Some r ->
      check ci "two servers kept" 2 r.Dp_withpre.servers;
      check ci "both reused" 2 r.Dp_withpre.reused;
      check cf "cost" 2. r.Dp_withpre.cost
  | None -> Alcotest.fail "expected a solution");
  (* Exactly at the boundary (0.6 + 2*0.2 = 1.0) both cost 2.0; the DP
     must return that optimal value either way. *)
  match Dp_withpre.solve t ~w:10 ~cost:(Cost.basic ~create:0.6 ~delete:0.2 ()) with
  | Some r -> check cf "boundary cost" 2. r.Dp_withpre.cost
  | None -> Alcotest.fail "expected a solution"

let test_capacity_blocks_consolidation () =
  (* The §2.1 rule is conditional on capacity: at W = 7 the two branches
     cannot merge, so even cheap creation keeps both servers. *)
  let t =
    Tree.build
      (Tree.node
         [
           Tree.node ~clients:[ 4 ] ~pre:1 [];
           Tree.node ~clients:[ 4 ] ~pre:1 [];
         ])
  in
  match Dp_withpre.solve t ~w:7 ~cost:(Cost.basic ~create:0.5 ~delete:0.2 ()) with
  | Some r ->
      check ci "two servers" 2 r.Dp_withpre.servers;
      check ci "both reused" 2 r.Dp_withpre.reused
  | None -> Alcotest.fail "expected a solution"

let test_result_invariants () =
  List.iter
    (fun seed ->
      let rng = Rng.create (seed + 23) in
      for _ = 1 to 10 do
        let nodes = 2 + Rng.int rng 20 in
        let pre = Rng.int rng (nodes + 1) in
        let t = small_tree_with_pre rng ~nodes ~max_requests:5 ~pre in
        let w = 4 + Rng.int rng 8 in
        match Dp_withpre.solve t ~w ~cost:default_cost with
        | None -> ()
        | Some r ->
            check cb "valid" true (Solution.is_valid t ~w r.Dp_withpre.solution);
            check ci "server count" r.Dp_withpre.servers
              (Solution.cardinal r.Dp_withpre.solution);
            check ci "reuse count" r.Dp_withpre.reused
              (Solution.reused t r.Dp_withpre.solution);
            check cf "reported cost is the solution's cost"
              (Solution.basic_cost t default_cost r.Dp_withpre.solution)
              r.Dp_withpre.cost
      done)
    seeds

let test_root_table_shape () =
  let t = figure1_tree ~root_requests:2 in
  let table = Dp_withpre.root_table t ~w:10 in
  (* One pre-existing node (B) and two others (A, C) below the root. *)
  check ci "pre dimension" 2 (Array.length table);
  check ci "new dimension" 3 (Array.length table.(0));
  let opt = Alcotest.option ci in
  (* (e, n) = (0, 0): all 13 requests reach the root, above W: pruned. *)
  check opt "(0,0) infeasible" None table.(0).(0);
  (* (1, 0): reuse B, 2 + 7 pass. *)
  check opt "(1,0)" (Some 9) table.(1).(0);
  (* (0, 1): new server at C, 2 + 4 pass. *)
  check opt "(0,1)" (Some 6) table.(0).(1);
  (* (1, 1): B and C (or B and A), only the root client passes. *)
  check opt "(1,1)" (Some 2) table.(1).(1)

(* --- Staircase tables against the frozen dense DP ({!Dense_withpre}) --- *)

let oracle_ws = [ 1; 3; 5; 10; 17; 40 ]

let oracle_costs =
  [
    Cost.basic ();
    Cost.basic ~create:0.1 ~delete:0.01 ();
    Cost.basic ~create:0.5 ~delete:0.25 ();
    Cost.basic ~create:1. ~delete:1. ();
    Cost.basic ~delete:3. ();
    Cost.basic ~create:2. ~delete:5.5 ();
  ]

(* Fat and high trees of 5-80 nodes with E = 0..N/2 pre-existing. *)
let oracle_tree rng i =
  let nodes = 5 + Rng.int rng 76 in
  let profile =
    if i mod 2 = 0 then Generator.fat ~nodes () else Generator.high ~nodes ()
  in
  let t = Generator.random rng profile in
  Generator.add_pre_existing rng t (Rng.int rng ((nodes / 2) + 1))

(* The staircase of a dense table: in each row, the cells whose flow is
   strictly below that of every cell with fewer new servers. *)
let staircase dense =
  Array.map
    (fun row ->
      let floor = ref max_int in
      Array.map
        (function
          | Some f when f < !floor ->
              floor := f;
              Some f
          | _ -> None)
        row)
    dense

let test_oracle_random () =
  let rng = Rng.create 2024 in
  let instances = ref 0 in
  for i = 0 to 99 do
    let t = oracle_tree rng i in
    List.iter
      (fun w ->
        List.iteri
          (fun k cost ->
            incr instances;
            same_result
              (Printf.sprintf "tree %d (N=%d, E=%d) w=%d cost %d" i
                 (Tree.size t) (Tree.num_pre_existing t) w k)
              (Dense_withpre.solve t ~w ~cost)
              (Dp_withpre.solve t ~w ~cost))
          oracle_costs)
      oracle_ws
  done;
  check cb "at least 500 instances" true (!instances >= 500)

let test_oracle_root_table () =
  let rng = Rng.create 77 in
  let opt_table = Alcotest.(array (array (option int))) in
  for i = 0 to 59 do
    let t = oracle_tree rng i in
    List.iter
      (fun w ->
        check opt_table
          (Printf.sprintf "tree %d w=%d" i w)
          (staircase (Dense_withpre.root_table t ~w))
          (Dp_withpre.root_table t ~w))
      oracle_ws
  done

(* The frozen dense DP as a registry entry, so that an engine can run
   on it and serve as the reference timeline. *)
let oracle_solver =
  let solver =
    {
      Solver.name = "dense-withpre-oracle";
      summary = "frozen dense MinCost-WithPre DP (test oracle)";
      capability =
        Solver.capability ~handles_cost:true ~handles_pre:true
          ~exactness:Solver.Exact ();
      solve =
        (fun p _ ->
          let cost =
            match p.Problem.objective with
            | Problem.Min_cost c -> c
            | _ -> Cost.basic ()
          in
          Option.map
            (fun (r : Dp_withpre.result) ->
              Solver.outcome ~cost:r.Dp_withpre.cost ~reused:r.Dp_withpre.reused
                ~objective_value:r.Dp_withpre.cost r.Dp_withpre.solution)
            (Dense_withpre.solve p.Problem.tree ~w:p.Problem.w ~cost));
      make_memo = None;
      memo_size = None;
    }
  in
  lazy (Solver.register solver)

let test_oracle_engine_streams () =
  Lazy.force oracle_solver;
  let module Engine = Replica_engine.Engine in
  let module Timeline = Replica_engine.Timeline in
  let rng = Rng.create 31 in
  for stream = 0 to 5 do
    let nodes = 30 + Rng.int rng 50 in
    let tree = Generator.random rng (Generator.fat ~nodes ()) in
    let trace = workload_trace rng tree ~kind:(stream mod 3) ~horizon:24. in
    let epochs = Replica_trace.Epochs.epochs trace tree ~window:2. in
    let w = 10 + Rng.int rng 10 in
    let cost = List.nth oracle_costs (stream mod List.length oracle_costs) in
    List.iter
      (fun policy ->
        let run ?algo solver =
          Engine.run
            (Engine.config ~policy ~solver ?algo ~w (Engine.Min_cost cost))
            epochs
        in
        let reference = run ~algo:"dense-withpre-oracle" Engine.Full in
        List.iter
          (fun (name, solver) ->
            let got = run solver in
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

(* A warm memo-less solve allocates only its result: tables, grid and
   arena come from the domain's scratch. *)
let test_warm_solve_allocation () =
  let nodes = 100 in
  let rng = Rng.create 9 in
  let tree =
    Generator.add_pre_existing rng
      (Generator.random rng (Generator.fat ~nodes ()))
      25
  in
  let cost = Cost.basic ~create:0.5 ~delete:0.25 () in
  Replica_obs.Span.set_enabled false;
  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  ignore (Dp_withpre.solve tree ~w:10 ~cost : Dp_withpre.result option);
  let before = words () in
  let r = Dp_withpre.solve tree ~w:10 ~cost in
  let used = words () -. before in
  check cb "solved" true (r <> None);
  if used >= float_of_int (32 * nodes) then
    Alcotest.failf "warm Dp_withpre.solve allocated %.0f words (%.1f per node)"
      used (used /. float_of_int nodes)

let () =
  Alcotest.run "dp_withpre"
    [
      ( "paper examples",
        [
          Alcotest.test_case "figure 1: reuse" `Quick test_figure1_reuse_when_root_light;
          Alcotest.test_case "figure 1: drop" `Quick test_figure1_drop_when_root_heavy;
        ] );
      ( "optimality",
        [
          Alcotest.test_case "reduces to NoPre" `Quick test_no_pre_matches_dp_nopre;
          Alcotest.test_case "matches brute force" `Slow test_matches_brute;
          Alcotest.test_case "zero-load reuse" `Quick test_zero_load_reuse_when_delete_expensive;
          Alcotest.test_case "reuse priority" `Quick test_reuse_priority;
          Alcotest.test_case "§2.1 consolidation boundary" `Quick test_section21_consolidation_boundary;
          Alcotest.test_case "capacity blocks consolidation" `Quick test_capacity_blocks_consolidation;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "result invariants" `Quick test_result_invariants;
          Alcotest.test_case "root table" `Quick test_root_table_shape;
          Alcotest.test_case "warm solve allocation" `Quick
            test_warm_solve_allocation;
        ] );
      ( "dense oracle",
        [
          Alcotest.test_case "random instances" `Slow test_oracle_random;
          Alcotest.test_case "root table is the staircase" `Quick
            test_oracle_root_table;
          Alcotest.test_case "engine streams" `Slow test_oracle_engine_streams;
        ] );
    ]
