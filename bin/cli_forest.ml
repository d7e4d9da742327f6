(* replica_cli forest: lock-step online runs over a forest of sharded
   trees sharing one physical server pool, with optional cross-object
   capacity coupling. *)

open Replica_core
open Replica_experiments
open Replica_engine
open Replica_forest
module Json = Replica_obs.Json
open Cmdliner
open Cli_common

let trees_arg =
  positive ~zero:0 "--trees"
    Arg.(
      value & opt int 4
      & info [ "trees" ] ~docv:"K"
          ~doc:"Number of distinct tree topologies in the forest.")

let objects_arg =
  Arg.(
    value & opt int 8
    & info [ "objects" ] ~docv:"O"
        ~doc:
          "Number of replicated objects (shards), assigned round-robin to \
           the topologies.")

let servers_arg =
  Arg.(
    value & opt (some int) None
    & info [ "servers" ] ~docv:"S"
        ~doc:
          "Physical server pool size the tree nodes map onto (default: \
           twice the tree size; must be at least the tree size).")

let coupling_flag =
  Arg.(
    value & flag
    & info [ "coupling" ]
        ~doc:
          "Enforce cross-object capacity coupling on the shared physical \
           servers: after each epoch's solves, overloaded machines are \
           repaired by greedy push-down and the repaired placements carry \
           into the next epoch.")

let domains_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "domains" ] ~docv:"D"
        ~doc:
          "Domains for the parallel per-shard solves. Placements are \
           identical at any value.")

let cmd =
  let run shape nodes seed trees objects servers horizon window workload
      policy solver algo coupling domains w no_time tele =
    let servers = match servers with Some s -> s | None -> 2 * nodes in
    let profile = Workload.profile shape ~nodes ~max_requests:6 in
    let forest =
      try Forest.generate { Forest.trees; objects; servers; profile; seed }
      with Invalid_argument msg -> die "%s" msg
    in
    let ft =
      let wk =
        match workload with
        | `Poisson -> Forest_trace.Poisson
        | `Diurnal -> Forest_trace.Diurnal { period = 24.; floor = 0.25 }
        | `Flash -> Forest_trace.Flash { multiplier = 3. }
      in
      Forest_trace.generate forest ~horizon ~seed:(seed + 1) wk
    in
    let ecfg =
      Engine.config ~policy ~solver ?algo ~w
        (Engine.Min_cost (Cost.basic ~create:0.5 ~delete:0.25 ()))
    in
    let cfg = { Forest_engine.engine = ecfg; coupling; domains } in
    (* Capability problems — unknown --algo, a coupled run on a solver
       without the coupling capability — surface as Invalid_argument
       from Forest_engine.create; shared exit-2 path. *)
    let engine =
      try Forest_engine.create forest cfg
      with Invalid_argument msg -> die "%s" msg
    in
    Printf.printf
      "forest: %d trees, %d shards, %d servers, %d requests over %.1f time \
       units\n"
      (Forest.num_trees forest) (Forest.num_shards forest)
      (Forest.num_servers forest)
      (Forest_trace.total_events ft)
      (Replica_trace.Trace.duration ft.Forest_trace.merged);
    let entries, timeseries =
      run_epochs tele
        ~epoch:(fun e -> e.Forest_timeline.epoch)
        ~latency:(fun e -> e.Forest_timeline.epoch_seconds)
        (Forest_engine.step engine)
        (fun () -> Forest_trace.epochs ft forest ~window)
    in
    let timeline = Forest_timeline.of_entries entries in
    Forest_timeline.print ~times:(not no_time) stdout timeline;
    Option.iter
      (fun path ->
        let config =
          [
            ("trees", Json.Int trees);
            ("objects", Json.Int objects);
            ("servers", Json.Int servers);
            ("nodes", Json.Int nodes);
            ("shape", Json.String (Workload.shape_to_string shape));
            ("seed", Json.Int seed);
            ("horizon", Json.Float horizon);
            ("window", Json.Float window);
            ("workload", Json.String (name_of workloads workload));
            ("policy", Json.String (Update_policy.policy_to_string policy));
            ("solver", Json.String (name_of solvers solver));
            ("algo", Json.String (Forest_engine.solver_name engine));
            ("coupling", Json.Bool coupling);
            ("domains", Json.Int domains);
            ("w", Json.Int w);
          ]
        in
        write_json path (Forest_timeline.to_json ~config ?timeseries timeline))
      tele.json
  in
  Cmd.v
    (Cmd.info "forest"
       ~doc:
         "Run the lock-step online engine over a forest of sharded trees \
          sharing one physical server pool: per-shard traces merged onto \
          one epoch grid, parallel per-shard re-solves, and (with \
          $(b,--coupling)) cross-object capacity repair on the shared \
          machines.")
    Term.(
      const run $ shape_arg $ nodes_arg 20 $ seed_arg $ trees_arg
      $ objects_arg $ servers_arg $ horizon_arg 8. $ window_arg
      $ workload_arg $ policy_arg $ solver_arg $ algo_arg $ coupling_flag
      $ domains_arg $ w_arg $ no_time_flag $ telemetry_term)
