(* replica_cli solve: one random instance through any registered solver.

   The algorithm enum, the --list-algos table and the capability checks
   all come from the registry, so a solver registered in
   Replica_core.Registry is selectable here with no CLI change. *)

open Replica_core
open Cmdliner
open Cli_common

let cmd =
  let algo_arg =
    (* Plain string, resolved through the registry at run time: an
       unknown name exits 2 through the shared error path rather than
       cmdliner's usage error. *)
    Arg.(
      value & opt string "dp-withpre"
      & info [ "algo" ] ~docv:"ALGO" ~doc:(algo_doc ()))
  in
  let list_algos_flag =
    Arg.(
      value & flag
      & info [ "list-algos" ]
          ~doc:
            "Print the registry's capability matrix (one row per \
             registered solver) and exit.")
  in
  let bound_arg =
    Arg.(
      value & opt float infinity
      & info [ "bound" ] ~docv:"COST" ~doc:"Cost bound for power solvers.")
  in
  let w_arg =
    positive ~zero:0 "-w"
      Arg.(
        value & opt int 10 & info [ "w" ] ~docv:"W" ~doc:"Server capacity.")
  in
  let stats_flag =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "After solving, print the solver's counter registry (table \
             cells created, merge products attempted, capacity-rejected \
             pairs, dominance-pruned cells, peak table size). \
             Deterministic for a fixed instance; combine with \
             $(b,--verbose) for wall-clock phase timers on stderr.")
  in
  let prune_arg =
    Arg.(
      value & opt (some bool) None
      & info [ "prune" ] ~docv:"BOOL"
          ~doc:
            "Force dominance pruning on or off for $(b,dp-power) \
             (default: automatic — on exactly where it is provably \
             exact).")
  in
  let run shape nodes pre seed qos bw algo bound w verbose stats prune domains
      trace list_algos =
    if list_algos then print_string (Registry.list_algos ())
    else begin
      setup_logs verbose;
      let solver = resolve_algo algo in
      let cap = solver.Solver.capability in
      (* Shared capability-mismatch UX: a finite bound on a solver that
         cannot honour it is an error (the result would silently be a
         different problem's optimum); an ignored tuning flag only
         warns. *)
      if bound < infinity && not cap.Solver.handles_bound then
        die "%s does not support a finite cost bound" solver.Solver.name;
      List.iter
        (fun msg -> warn "%s" msg)
        (Solver.option_warnings solver (Solver.request ?prune ?domains ()));
      let t = make_tree ~shape ~nodes ~pre ~seed ~max_requests:5 ~pre_mode:2 in
      let t = constrain_tree ~qos ~bw ~seed t in
      let modes =
        if w >= 2 then Modes.make [ w / 2; w ] else Modes.make [ w ]
      in
      let power = Power.paper_exp3 ~modes in
      let mcost = Cost.paper_cheap ~modes:(Modes.count modes) in
      let bcost = Cost.basic ~create:0.1 ~delete:0.01 () in
      (* Power-only solvers get the Eq. 3/4 power instance; everything
         else (including dual-objective oracles) the Eq. 2 cost
         instance. *)
      let is_power = cap.Solver.handles_power && not cap.Solver.handles_cost in
      let problem =
        if is_power then
          Problem.min_power t ~modes ~power ~cost:mcost ~bound ()
        else Problem.min_cost t ~w ~cost:bcost
      in
      (match Solver.mismatch solver problem with
      | Some reason -> die "%s" reason
      | None -> ());
      with_tracing trace (fun () ->
          match
            Solver.run solver problem (Solver.request ?prune ?domains ())
          with
          | Error reason -> die "%s" reason
          | Ok None ->
              if is_power then Format.printf "no solution within bound@."
              else Format.printf "no solution@."
          | Ok (Some o) ->
              if is_power then
                print_string
                  (Report.power_report t modes power mcost o.Solver.solution)
              else
                print_string (Report.cost_report t ~w bcost o.Solver.solution));
      if stats then
        if verbose then prerr_string (Report.stats_report ~timers:true ())
        else print_string (Report.stats_report ())
    end
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Solve one random instance with a chosen algorithm.")
    Term.(
      const run $ shape_arg $ nodes_arg 20 $ pre_arg 3 $ seed_arg $ qos_arg
      $ bw_arg $ algo_arg $ bound_arg $ w_arg $ verbose_flag $ stats_flag
      $ prune_arg $ domains_arg $ trace_file_arg $ list_algos_flag)
