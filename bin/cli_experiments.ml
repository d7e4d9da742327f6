(* replica_cli exp1/exp2/exp3/policies/heuristics/scaling: the paper's
   experiments and the repo's ablations. *)

open Replica_experiments
open Cmdliner
open Cli_common

let exp1_cmd =
  let run shape trees nodes seed quiet csv domains =
    let config =
      {
        (Workload.default_cost_config ~shape ()) with
        Workload.cc_trees = trees;
        cc_nodes = nodes;
        cc_seed = seed;
      }
    in
    let points =
      Exp1.run ?domains
        ~on_progress:(fun e -> progress quiet "exp1: E=%d done\n%!" e)
        config
    in
    emit csv (Exp1.to_table points)
  in
  Cmd.v
    (Cmd.info "exp1"
       ~doc:"Experiment 1 (Fig. 4/6): reuse of pre-existing servers vs E.")
    Term.(
      const run $ shape_arg $ trees_arg 200 $ nodes_arg 100 $ seed_arg
      $ quiet_progress $ csv_flag $ domains_arg)

let exp2_cmd =
  let steps_arg =
    Arg.(
      value & opt int 20
      & info [ "steps" ] ~docv:"K" ~doc:"Number of reconfiguration steps.")
  in
  let run shape trees nodes seed steps quiet csv domains =
    let config =
      {
        (Workload.default_cost_config ~shape ()) with
        Workload.cc_trees = trees;
        cc_nodes = nodes;
        cc_seed = seed;
      }
    in
    let result =
      Exp2.run ?domains ~steps
        ~on_progress:(fun i -> progress quiet "exp2: tree %d done\n%!" i)
        config
    in
    if not csv then print_endline "cumulative reuse per step:";
    emit csv (Exp2.steps_table result);
    if not csv then print_endline "histogram of reused(DP) - reused(GR):";
    emit csv (Exp2.histogram_table result)
  in
  Cmd.v
    (Cmd.info "exp2"
       ~doc:"Experiment 2 (Fig. 5/7): consecutive reconfiguration steps.")
    Term.(
      const run $ shape_arg $ trees_arg 200 $ nodes_arg 100 $ seed_arg
      $ steps_arg $ quiet_progress $ csv_flag $ domains_arg)

let exp3_cmd =
  let expensive_arg =
    Arg.(
      value & flag
      & info [ "expensive" ]
          ~doc:"Use the Fig. 11 cost function (create=delete=1, changed=0.1).")
  in
  let run shape trees (nodes, pre) seed expensive quiet csv domains =
    let config =
      {
        (Workload.default_power_config ~shape ~pre ~expensive ()) with
        Workload.pc_trees = trees;
        pc_nodes = nodes;
        pc_seed = seed;
      }
    in
    let result =
      Exp3.run ?domains
        ~on_progress:(fun i -> progress quiet "exp3: tree %d done\n%!" i)
        config
    in
    emit csv (Exp3.to_table result);
    if not csv then
      Printf.printf
        "GR consumes on average %.1f%% more power than DP (peak bound: %.1f%%)\n"
        result.Exp3.gr_overconsumption_percent
        result.Exp3.gr_peak_overconsumption_percent
  in
  Cmd.v
    (Cmd.info "exp3"
       ~doc:
         "Experiment 3 (Fig. 8-11): power minimization under a cost bound.")
    Term.(
      const run $ shape_arg $ trees_arg 100 $ nodes_pre_args ~nodes:50 ~pre:5
      $ seed_arg $ expensive_arg $ quiet_progress $ csv_flag $ domains_arg)

let policies_cmd =
  let epochs_arg =
    Arg.(
      value & opt int 20
      & info [ "epochs" ] ~docv:"K" ~doc:"Number of demand epochs.")
  in
  let run shape trees nodes seed epochs csv domains trace =
    let config =
      {
        (Exp_policy.default_config ~shape ()) with
        Exp_policy.trees;
        nodes;
        seed;
        epochs;
      }
    in
    with_tracing trace (fun () ->
        emit csv (Exp_policy.to_table (Exp_policy.run ?domains config)))
  in
  Cmd.v
    (Cmd.info "policies"
       ~doc:
         "Ablation: lazy/systematic/periodic/drift update policies over \
          drifting demand (the §6 trade-off).")
    Term.(
      const run $ shape_arg $ trees_arg 20 $ nodes_arg 50 $ seed_arg
      $ epochs_arg $ csv_flag $ domains_arg $ trace_file_arg)

let heuristics_cmd =
  let fraction_arg =
    Arg.(
      value & opt float 0.35
      & info [ "bound-fraction" ] ~docv:"F"
          ~doc:"Cost bound as a fraction of each tree's frontier range.")
  in
  let no_time_flag =
    Arg.(
      value & flag
      & info [ "no-time" ]
          ~doc:
            "Print '-' instead of wall-clock timings, making the output \
             fully deterministic for a fixed seed (used by the cram \
             test).")
  in
  let setup_domains_arg =
    positive_opt "--domains"
      Arg.(
        value & opt (some int) None
        & info [ "j"; "domains" ] ~docv:"D"
            ~doc:
              "Domains for the untimed setup solves (frontier sweep and \
               reference optima). The measured heuristic runs stay \
               sequential, so reported timings remain meaningful; \
               results are identical at any value.")
  in
  let run shape trees (nodes, pre) seed fraction csv no_time domains =
    let config =
      {
        (Exp_heuristics.default_config ~shape ()) with
        Exp_heuristics.trees;
        nodes;
        pre;
        seed;
        bound_fraction = fraction;
      }
    in
    emit csv
      (Exp_heuristics.to_table ~no_time (Exp_heuristics.run ?domains config))
  in
  Cmd.v
    (Cmd.info "heuristics"
       ~doc:
         "Ablation: every registered power heuristic (gr-power, \
          hill-climb, multi-start, annealing) vs the DP optimum.")
    Term.(
      const run $ shape_arg $ trees_arg 20 $ nodes_pre_args ~nodes:40 ~pre:4
      $ seed_arg $ fraction_arg $ csv_flag $ no_time_flag
      $ setup_domains_arg)

let scaling_cmd =
  let power_flag =
    Arg.(
      value & flag
      & info [ "power" ] ~doc:"Measure the power DP instead of the cost solvers.")
  in
  let large_flag =
    Arg.(
      value & flag
      & info [ "large" ]
          ~doc:
            "With --power: the large-N preset (dp-power and gr-power on a \
             sparse workload) instead of the paper-scale mode ladder.")
  in
  let sizes_arg =
    let check = function
      | Some sizes when List.exists (fun n -> n <= 0) sizes ->
          die "--sizes must be positive"
      | sizes -> sizes
    in
    Term.(
      const check
      $ Arg.(
          value
          & opt (some (list int)) None
          & info [ "sizes" ] ~docv:"N,N,..."
              ~doc:"Tree sizes to sweep, overriding the preset's defaults."))
  in
  let run shape seed power large sizes =
    let measurements =
      if power && large then Scaling.measure_power_dp_large ?sizes ~seed ~shape ()
      else if power then Scaling.measure_power_dp ?sizes ~seed ~shape ()
      else Scaling.measure_cost_algorithms ?sizes ~seed ~shape ()
    in
    Table.print (Scaling.to_table measurements)
  in
  Cmd.v
    (Cmd.info "scaling" ~doc:"Runtime scaling measurements (§5 claims).")
    Term.(const run $ shape_arg $ seed_arg $ power_flag $ large_flag $ sizes_arg)
