(* Command-line interface to the replicaml library: generate trees, solve
   single instances with any registered algorithm, and run the paper's
   experiments. Each subcommand lives in its own Cli_* module; this file
   only assembles the group. *)

open Cmdliner

let () =
  let doc =
    "Power-aware replica placement in tree networks (Benoit, Renaud-Goud, \
     Robert)"
  in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "replica_cli" ~doc)
          [
            Cli_generate.cmd;
            Cli_solve.cmd;
            Cli_experiments.exp1_cmd;
            Cli_experiments.exp2_cmd;
            Cli_experiments.exp3_cmd;
            Cli_experiments.policies_cmd;
            Cli_experiments.heuristics_cmd;
            Cli_engine.cmd;
            Cli_forest.cmd;
            Cli_top.cmd;
            Cli_obs.profile_cmd;
            Cli_obs.bench_diff_cmd;
            Cli_obs.bench_history_cmd;
            Cli_obs.obs_validate_cmd;
            Cli_experiments.scaling_cmd;
          ]))
