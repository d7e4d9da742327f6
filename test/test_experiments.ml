(* Tests for the experiment harness: statistics, tables, workloads, and
   small end-to-end runs of the three experiments. *)

open Replica_experiments
open Helpers

(* --- Stats --- *)

let test_mean_stddev () =
  check cf "mean" 2.5 (Stats.mean [ 1.; 2.; 3.; 4. ]);
  check cf "mean empty" 0. (Stats.mean []);
  check cf "stddev" (sqrt 1.25) (Stats.stddev [ 1.; 2.; 3.; 4. ]);
  check cf "stddev singleton" 0. (Stats.stddev [ 5. ]);
  check cf "mean_int" 2. (Stats.mean_int [ 1; 2; 3 ])

let test_extrema_median () =
  check cf "min" 1. (Stats.minimum [ 3.; 1.; 2. ]);
  check cf "max" 3. (Stats.maximum [ 3.; 1.; 2. ]);
  check cf "median odd" 2. (Stats.median [ 3.; 1.; 2. ]);
  check cf "median even (lower)" 2. (Stats.median [ 4.; 1.; 2.; 3. ]);
  check cf "quantile 0" 1. (Stats.quantile 0. [ 3.; 1.; 2. ]);
  check cf "quantile 1" 3. (Stats.quantile 1. [ 3.; 1.; 2. ]);
  Alcotest.check_raises "bad quantile"
    (Invalid_argument "Stats.quantile: q out of [0,1]") (fun () ->
      ignore (Stats.quantile 1.5 [ 1. ]))

let test_histogram () =
  check
    (Alcotest.list (Alcotest.pair ci ci))
    "histogram"
    [ (-1, 1); (0, 2); (3, 3) ]
    (Stats.histogram [ 0; 3; -1; 3; 0; 3 ]);
  check (Alcotest.list (Alcotest.pair ci ci)) "empty" [] (Stats.histogram [])

let test_confidence () =
  check cf "singleton" 0. (Stats.confidence95 [ 1. ]);
  let ci95 = Stats.confidence95 [ 1.; 2.; 3.; 4. ] in
  check cb "positive" true (ci95 > 0.)

(* --- Table --- *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  at 0

let test_table_render () =
  let t = Table.make ~header:[ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "10" ];
  let rendered = Table.render t in
  check cb "contains header" true
    (String.length rendered > 0 && contains rendered "bb");
  check cb "pads short rows" true (contains rendered "10");
  (* Rows render in insertion order. *)
  let index_of needle =
    let n = String.length needle in
    let rec go i =
      if i + n > String.length rendered then -1
      else if String.sub rendered i n = needle then i
      else go (i + 1)
    in
    go 0
  in
  check cb "order" true
    (index_of "|  1 " >= 0 && index_of "|  1 " < index_of "| 10 ")

let test_table_too_long () =
  let t = Table.make ~header:[ "a" ] in
  Alcotest.check_raises "too long" (Invalid_argument "Table.add_row: row too long")
    (fun () -> Table.add_row t [ "1"; "2" ])

let test_table_csv () =
  let t = Table.make ~header:[ "x"; "y" ] in
  Table.add_row t [ "1"; "a,b" ];
  Table.add_float_row t ~decimals:1 [ 2.5; 3.25 ];
  check Alcotest.string "csv" "x,y\n1,\"a,b\"\n2.5,3.2\n" (Table.to_csv t)

let test_fmt_float () =
  check Alcotest.string "nan" "-" (Table.fmt_float Float.nan);
  check Alcotest.string "inf" "inf" (Table.fmt_float infinity);
  check Alcotest.string "value" "1.500" (Table.fmt_float 1.5);
  check Alcotest.string "decimals" "1.5" (Table.fmt_float ~decimals:1 1.5)

(* --- Par --- *)

let test_par_map_equivalence () =
  let l = List.init 100 Fun.id in
  let f x = (x * x) + 1 in
  List.iter
    (fun domains ->
      check (Alcotest.list ci)
        (Printf.sprintf "map @ %d domains" domains)
        (List.map f l)
        (Par.map ~domains f l))
    [ 1; 2; 4 ];
  check (Alcotest.list ci) "default domains" (List.map f l) (Par.map f l);
  check (Alcotest.list ci) "empty" [] (Par.map ~domains:4 f []);
  check (Alcotest.list ci) "singleton" [ 2 ] (Par.map ~domains:4 f [ 1 ])

let test_par_map2 () =
  let a = [ 1; 2; 3 ] and b = [ 10; 20; 30 ] in
  check (Alcotest.list ci) "map2" [ 11; 22; 33 ] (Par.map2 ~domains:2 ( + ) a b);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Par.map2: length mismatch") (fun () ->
      ignore (Par.map2 ( + ) [ 1 ] [ 1; 2 ]))

let test_par_exception_propagates () =
  let f x = if x = 37 then failwith "boom" else x in
  (match Par.map ~domains:3 f (List.init 100 Fun.id) with
  | exception Failure msg -> check Alcotest.string "message" "boom" msg
  | _ -> Alcotest.fail "expected the worker exception to propagate");
  (* Sequential path too. *)
  match Par.map ~domains:1 f [ 37 ] with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected failure"

(* --- Workload --- *)

let test_workload_profiles () =
  let p = Workload.profile Workload.Fat ~nodes:30 ~max_requests:5 in
  check ci "nodes" 30 p.Replica_tree.Generator.nodes;
  check ci "max requests" 5 p.Replica_tree.Generator.max_requests;
  check ci "fat children" 9 p.Replica_tree.Generator.max_children;
  let h = Workload.profile Workload.High ~nodes:30 ~max_requests:6 in
  check ci "high children" 4 h.Replica_tree.Generator.max_children;
  check Alcotest.string "names" "fat" (Workload.shape_to_string Workload.Fat)

let test_workload_draws () =
  let rng = Replica_tree.Rng.create 5 in
  let cc = { (Workload.default_cost_config ()) with Workload.cc_nodes = 25 } in
  let t = Workload.draw_cost_tree rng cc in
  check ci "cost tree size" 25 (Replica_tree.Tree.size t);
  check ci "no pre-existing" 0 (Replica_tree.Tree.num_pre_existing t);
  let pc =
    { (Workload.default_power_config ()) with Workload.pc_nodes = 25; pc_pre = 4 }
  in
  let t = Workload.draw_power_tree rng pc in
  check ci "power tree size" 25 (Replica_tree.Tree.size t);
  check ci "pre-existing" 4 (Replica_tree.Tree.num_pre_existing t);
  List.iter
    (fun j ->
      check (Alcotest.option ci) "initial mode 2" (Some 2)
        (Replica_tree.Tree.initial_mode t j))
    (Replica_tree.Tree.pre_existing t)

(* Tiny configs so the end-to-end runs stay fast. *)
let tiny_cost_config =
  {
    (Workload.default_cost_config ()) with
    Workload.cc_trees = 4;
    cc_nodes = 15;
    cc_seed = 11;
  }

let tiny_power_config =
  {
    (Workload.default_power_config ()) with
    Workload.pc_trees = 4;
    pc_nodes = 12;
    pc_pre = 2;
    pc_seed = 11;
    pc_bounds = 6;
  }

let test_par_domain_count_invariance_on_experiments () =
  (* The flagship property: experiment results are bit-identical at any
     domain count. *)
  let a = Exp1.run ~domains:1 tiny_cost_config in
  let b = Exp1.run ~domains:4 tiny_cost_config in
  check cb "exp1 invariant" true (a = b);
  let a3 = Exp3.run ~domains:1 tiny_power_config in
  let b3 = Exp3.run ~domains:4 tiny_power_config in
  check cb "exp3 invariant" true (a3 = b3)

(* --- Exp1 --- *)

let test_exp1_structure () =
  let points = Exp1.run tiny_cost_config in
  check cb "has points" true (List.length points >= 2);
  let first = List.hd points and last = List.nth points (List.length points - 1) in
  check ci "starts at E=0" 0 first.Exp1.pre_existing;
  check ci "ends at E=N" 15 last.Exp1.pre_existing;
  (* At the extremes both algorithms coincide. *)
  check cf "E=0 no reuse (DP)" 0. first.Exp1.dp_reused;
  check cf "E=0 no reuse (GR)" 0. first.Exp1.gr_reused;
  check cf "E=N same reuse" last.Exp1.gr_reused last.Exp1.dp_reused;
  List.iter
    (fun p ->
      (* Both algorithms produce minimum-size solutions. *)
      check cf "same server count" p.Exp1.gr_servers p.Exp1.dp_servers;
      (* The DP never reuses fewer servers on average. *)
      check cb "dp >= gr" true (p.Exp1.dp_reused >= p.Exp1.gr_reused -. 1e-9))
    points

let test_exp1_deterministic () =
  let a = Exp1.run tiny_cost_config and b = Exp1.run tiny_cost_config in
  check cb "same results" true (a = b)

(* --- Exp2 --- *)

let test_exp2_structure () =
  let r = Exp2.run ~steps:6 tiny_cost_config in
  check ci "six step points" 6 (List.length r.Exp2.steps);
  (* Cumulative series are non-decreasing. *)
  let rec monotone extract = function
    | a :: (b :: _ as rest) ->
        check cb "non-decreasing" true (extract b >= extract a -. 1e-9);
        monotone extract rest
    | _ -> ()
  in
  monotone (fun p -> p.Exp2.dp_cumulative_reused) r.Exp2.steps;
  monotone (fun p -> p.Exp2.gr_cumulative_reused) r.Exp2.steps;
  (* Step 1 starts from no servers: nothing to reuse. *)
  let first = List.hd r.Exp2.steps in
  check cf "step 1 dp" 0. first.Exp2.dp_cumulative_reused;
  check cf "step 1 gr" 0. first.Exp2.gr_cumulative_reused;
  (* Histogram masses average to steps per tree: totals must equal 6. *)
  let mass = List.fold_left (fun acc (_, c) -> acc +. c) 0. r.Exp2.histogram in
  check cf "histogram mass" 6. mass;
  (* The paper: "they always reach the same total number of servers
     since they have the same requests" (given the ordering condition on
     the cost function). *)
  List.iter
    (fun p -> check cf "same mean server count" p.Exp2.gr_servers p.Exp2.dp_servers)
    r.Exp2.steps

(* --- Exp3 --- *)

let test_exp3_structure () =
  let r = Exp3.run tiny_power_config in
  check ci "bound count" 6 (List.length r.Exp3.points);
  List.iter
    (fun p ->
      (* DP is optimal: pointwise at least GR on inverse power and
         feasibility. *)
      check cb "dp inverse >= gr" true
        (p.Exp3.dp_inverse_power >= p.Exp3.gr_inverse_power -. 1e-12);
      check cb "dp feasible >= gr" true (p.Exp3.dp_feasible >= p.Exp3.gr_feasible))
    r.Exp3.points;
  (* Inverse power grows with the bound for each algorithm. *)
  let rec monotone extract = function
    | a :: (b :: _ as rest) ->
        check cb "non-decreasing in bound" true (extract b >= extract a -. 1e-12);
        monotone extract rest
    | _ -> ()
  in
  monotone (fun p -> p.Exp3.dp_inverse_power) r.Exp3.points;
  monotone (fun p -> p.Exp3.gr_inverse_power) r.Exp3.points;
  check cb "overconsumption non-negative" true
    (r.Exp3.gr_overconsumption_percent >= -1e-9);
  check cb "peak >= avg" true
    (r.Exp3.gr_peak_overconsumption_percent
    >= r.Exp3.gr_overconsumption_percent -. 1e-9)

(* --- Scaling --- *)

let test_scaling_smoke () =
  let ms =
    Scaling.measure_cost_algorithms ~sizes:[ 12; 18 ] ~shape:Workload.Fat ()
  in
  check ci "five registry cost solvers x two sizes" 10 (List.length ms);
  List.iter
    (fun m ->
      check cb "time non-negative" true (m.Scaling.seconds >= 0.);
      check cb "solved" true (m.Scaling.servers >= 0))
    ms;
  let power = Scaling.measure_power_dp ~sizes:[ 10 ] ~shape:Workload.Fat () in
  check ci "five registry power solvers x one size" 5 (List.length power)

let test_exp_policy_smoke () =
  let config =
    {
      (Exp_policy.default_config ()) with
      Exp_policy.trees = 3;
      nodes = 15;
      epochs = 5;
      seed = 3;
    }
  in
  let rows = Exp_policy.run config in
  check ci "one row per policy" 4 (List.length rows);
  let costs = List.map (fun r -> r.Exp_policy.avg_total_cost) rows in
  let systematic = List.hd costs in
  List.iter
    (fun c -> check cb "systematic pays the most" true (c <= systematic +. 1e-9))
    costs;
  List.iter
    (fun r ->
      check cb "reconfigurations within epochs" true
        (r.Exp_policy.avg_reconfigurations <= 5. +. 1e-9))
    rows

let test_exp_policy_drift_sweep () =
  let config =
    {
      (Exp_policy.default_config ()) with
      Exp_policy.trees = 3;
      nodes = 15;
      epochs = 6;
      seed = 3;
    }
  in
  let rows = Exp_policy.run_drift_sweep config [ 0.25; 4.0 ] in
  check ci "two rows" 2 (List.length rows);
  let calm = List.hd rows and wild = List.nth rows 1 in
  (* More volatility -> more lazy reconfigurations. *)
  check cb "volatility increases reconfigurations" true
    (wild.Exp_policy.lazy_reconfigurations
    >= calm.Exp_policy.lazy_reconfigurations -. 1e-9);
  List.iter
    (fun r ->
      check cb "lazy never beats systematic backwards" true
        (r.Exp_policy.lazy_cost <= r.Exp_policy.systematic_cost +. 1e-9))
    rows

let test_exp_heuristics_smoke () =
  let config =
    {
      (Exp_heuristics.default_config ()) with
      Exp_heuristics.trees = 3;
      nodes = 12;
      pre = 2;
      seed = 5;
    }
  in
  let rows = Exp_heuristics.run config in
  check ci "five solvers" 5 (List.length rows);
  let dp = List.hd rows in
  check Alcotest.string "dp first" "dp-power" dp.Exp_heuristics.algorithm;
  check cf "dp overhead zero" 0. dp.Exp_heuristics.avg_power_overhead_percent;
  List.iter
    (fun r ->
      check cb "overhead non-negative" true
        (r.Exp_heuristics.avg_power_overhead_percent >= -1e-6);
      check cb "worst >= avg" true
        (r.Exp_heuristics.worst_power_overhead_percent
        >= r.Exp_heuristics.avg_power_overhead_percent -. 1e-6))
    rows

let test_exp_update_smoke () =
  let config =
    {
      (Exp_update.default_config ()) with
      Exp_update.trees = 3;
      nodes = 15;
      pre = 5;
      seed = 5;
    }
  in
  let rows = Exp_update.run config in
  check ci "five registry cost solvers" 5 (List.length rows);
  let dp =
    List.find (fun r -> r.Exp_update.algorithm = "dp-withpre") rows
  in
  check cf "dp overhead zero" 0. dp.Exp_update.avg_cost_overhead_percent;
  List.iter
    (fun r ->
      check cb "overhead non-negative" true
        (r.Exp_update.avg_cost_overhead_percent >= -1e-6))
    rows

let test_exp_shapes_smoke () =
  let config =
    {
      (Exp_shapes.default_config ()) with
      Exp_shapes.trees = 2;
      nodes = 15;
      pre = 4;
      seed = 5;
    }
  in
  let rows = Exp_shapes.run config in
  check ci "five shapes" 5 (List.length rows);
  let chain = List.hd rows in
  check cb "chain is tallest" true
    (List.for_all
       (fun r -> r.Exp_shapes.mean_height <= chain.Exp_shapes.mean_height)
       rows);
  List.iter
    (fun r ->
      check cb "dp reuses at least gr" true
        (r.Exp_shapes.dp_reused >= r.Exp_shapes.gr_reused -. 1e-9))
    rows

let test_exp_trace_smoke () =
  let config =
    {
      (Exp_trace.default_config ()) with
      Exp_trace.trees = 2;
      nodes = 12;
      horizon = 8.;
      seed = 4;
    }
  in
  let rows = Exp_trace.run config [ 1.; 4. ] in
  check ci "two rows" 2 (List.length rows);
  let short = List.hd rows and long = List.nth rows 1 in
  check cb "short window, more epochs" true
    (short.Exp_trace.epochs > long.Exp_trace.epochs);
  check cb "short window, more reconfigurations" true
    (short.Exp_trace.reconfigurations >= long.Exp_trace.reconfigurations);
  List.iter
    (fun r ->
      check cb "stale fraction is a fraction" true
        (r.Exp_trace.stale_fraction >= 0. && r.Exp_trace.stale_fraction <= 1.);
      check cb "cost per time consistent" true
        (abs_float
           ((r.Exp_trace.total_cost /. 8.) -. r.Exp_trace.cost_per_time)
        < 1e-9))
    rows

let test_tables_render () =
  (* The table constructors must accept every experiment's output. *)
  let p = Exp1.run tiny_cost_config in
  check cb "exp1 table" true (String.length (Table.render (Exp1.to_table p)) > 0);
  let r = Exp2.run ~steps:3 tiny_cost_config in
  check cb "exp2 tables" true
    (String.length (Table.render (Exp2.steps_table r)) > 0
    && String.length (Table.render (Exp2.histogram_table r)) > 0);
  let e3 = Exp3.run tiny_power_config in
  check cb "exp3 table" true
    (String.length (Table.render (Exp3.to_table e3)) > 0);
  let ms = Scaling.measure_power_dp ~sizes:[ 8 ] ~shape:Workload.High () in
  check cb "scaling table" true
    (String.length (Table.render (Scaling.to_table ms)) > 0)

let () =
  Alcotest.run "experiments"
    [
      ( "stats",
        [
          Alcotest.test_case "mean/stddev" `Quick test_mean_stddev;
          Alcotest.test_case "extrema/median" `Quick test_extrema_median;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "confidence" `Quick test_confidence;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "row too long" `Quick test_table_too_long;
          Alcotest.test_case "csv" `Quick test_table_csv;
          Alcotest.test_case "fmt_float" `Quick test_fmt_float;
        ] );
      ( "par",
        [
          Alcotest.test_case "map equivalence" `Quick test_par_map_equivalence;
          Alcotest.test_case "map2" `Quick test_par_map2;
          Alcotest.test_case "exceptions" `Quick test_par_exception_propagates;
          Alcotest.test_case "domain-count invariance" `Quick test_par_domain_count_invariance_on_experiments;
        ] );
      ( "workload",
        [
          Alcotest.test_case "profiles" `Quick test_workload_profiles;
          Alcotest.test_case "draws" `Quick test_workload_draws;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "exp1 structure" `Quick test_exp1_structure;
          Alcotest.test_case "exp1 deterministic" `Quick test_exp1_deterministic;
          Alcotest.test_case "exp2 structure" `Quick test_exp2_structure;
          Alcotest.test_case "exp3 structure" `Quick test_exp3_structure;
          Alcotest.test_case "scaling smoke" `Quick test_scaling_smoke;
          Alcotest.test_case "tables render" `Quick test_tables_render;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "policies smoke" `Quick test_exp_policy_smoke;
          Alcotest.test_case "drift sweep" `Quick test_exp_policy_drift_sweep;
          Alcotest.test_case "heuristics smoke" `Quick test_exp_heuristics_smoke;
          Alcotest.test_case "update smoke" `Quick test_exp_update_smoke;
          Alcotest.test_case "shapes smoke" `Quick test_exp_shapes_smoke;
          Alcotest.test_case "trace smoke" `Quick test_exp_trace_smoke;
        ] );
    ]
