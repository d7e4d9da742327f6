(* replica_cli engine: online runs over synthetic traces. *)

open Replica_tree
open Replica_core
open Replica_experiments
open Replica_engine
module Json = Replica_obs.Json
open Cmdliner
open Cli_common

let cmd =
  let power_flag =
    Arg.(
      value & flag
      & info [ "power" ]
          ~doc:
            "Minimize power under a cost bound (the Eq. 3/4 objective, \
             modes W/2 and W) instead of reconfiguration cost alone.")
  in
  let bound_arg =
    Arg.(
      value & opt float infinity
      & info [ "bound" ] ~docv:"COST"
          ~doc:"Per-reconfiguration cost bound for $(b,--power).")
  in
  (* --qos Q[@E] / --bw S[@E]: constrain the epoch demand trees from
     epoch E on (default 1 = the whole run), so a run can tighten QoS or
     shrink bandwidth mid-trace. *)
  let at_arg name docv doc =
    let parse s =
      let value, epoch =
        match String.index_opt s '@' with
        | None -> (s, "1")
        | Some i ->
            (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
      in
      match (float_of_string_opt value, int_of_string_opt epoch) with
      | Some v, Some e when e >= 1 -> Ok (v, e)
      | _ ->
          Error
            (`Msg
               (Printf.sprintf "invalid --%s %S: expected VALUE or VALUE@EPOCH"
                  name s))
    in
    let print ppf (v, e) = Format.fprintf ppf "%g@%d" v e in
    Arg.(
      value
      & opt (some (conv (parse, print))) None
      & info [ name ] ~docv ~doc)
  in
  let qos_at_arg =
    at_arg "qos" "Q[@E]"
      "Bound every client's distance to its server at Q hops, from epoch E \
       on (default: the whole run). Cost objective only."
  in
  let bw_at_arg =
    at_arg "bw" "S[@E]"
      "Cap every link at S times its subtree demand, from epoch E on \
       (default: the whole run). Cost objective only."
  in
  let run shape nodes seed horizon window workload policy solver algo w power
      bound qos bw no_time tele =
    let open Replica_trace in
    let rng = Rng.create seed in
    let tree =
      Generator.random rng (Workload.profile shape ~nodes ~max_requests:6)
    in
    let trace =
      match workload with
      | `Poisson -> Arrivals.poisson rng tree ~horizon
      | `Diurnal -> Arrivals.diurnal rng tree ~horizon ~period:24. ~floor:0.25
      | `Flash ->
          let base = Arrivals.poisson rng tree ~horizon in
          let node =
            match Tree.children tree (Tree.root tree) with
            | c :: _ -> c
            | [] -> Tree.root tree
          in
          Arrivals.flash_crowd rng tree ~base ~at:(horizon /. 3.)
            ~duration:(horizon /. 4.) ~node ~multiplier:3.
    in
    let objective =
      if power then
        let modes =
          if w >= 2 then Modes.make [ w / 2; w ] else Modes.make [ w ]
        in
        Engine.Min_power
          {
            modes;
            power = Power.paper_exp3 ~modes;
            cost = Cost.paper_cheap ~modes:(Modes.count modes);
            bound;
          }
      else Engine.Min_cost (Cost.basic ~create:0.5 ~delete:0.25 ())
    in
    let qos =
      Option.map
        (fun (q, e) ->
          if Float.is_integer q && q >= 0. then (int_of_float q, e)
          else die "--qos must be a non-negative integer")
        qos
    in
    (match bw with
    | Some (s, _) when s <= 0. -> die "--bw must be positive"
    | _ -> ());
    let cfg = Engine.config ~policy ~solver ?algo ~w objective in
    (* Capability problems (unknown --algo, wrong objective family, a
       finite bound the solver cannot honour) surface as
       Invalid_argument from Engine.create; route them through the
       shared exit-2 error path. *)
    let engine =
      try Engine.create cfg with Invalid_argument msg -> die "%s" msg
    in
    Printf.printf "trace: %d requests over %.1f time units\n"
      (Trace.length trace) (Trace.duration trace);
    let constrain i t =
      let t =
        match qos with
        | Some (q, e) when i >= e -> Tree.with_qos t (fun _ _ -> q)
        | _ -> t
      in
      match bw with
      | Some (s, e) when i >= e ->
          Generator.add_bandwidth (Rng.create seed) t ~slack:s
      | _ -> t
    in
    let entries, timeseries =
      run_epochs tele
        ~epoch:(fun e -> e.Timeline.epoch)
        ~latency:(fun e -> e.Timeline.solve_seconds)
        (Engine.step engine)
        (fun () ->
          List.mapi
            (fun i t -> constrain (i + 1) t)
            (Epochs.epochs trace tree ~window))
    in
    let timeline = Timeline.of_entries entries in
    Timeline.print ~times:(not no_time) stdout timeline;
    Option.iter
      (fun path ->
        let config =
          [
            ("workload", Json.String (name_of workloads workload));
            ("policy", Json.String (Update_policy.policy_to_string policy));
            ("solver", Json.String (name_of solvers solver));
            ("algo", Json.String (Engine.solver_name engine));
            ( "objective",
              Json.String (if power then "min_power" else "min_cost") );
            ("w", Json.Int w);
            ("nodes", Json.Int nodes);
            ("seed", Json.Int seed);
            ("horizon", Json.Float horizon);
            ("window", Json.Float window);
          ]
        in
        write_json path (Timeline.to_json ~config ?timeseries timeline))
      tele.json
  in
  Cmd.v
    (Cmd.info "engine"
       ~doc:
         "Run the online reconfiguration engine over a synthetic trace: \
          aggregate arrivals into epochs, fire the update policy each \
          epoch, re-solve (fully or incrementally, with any capable \
          registry solver) and print the timeline.")
    Term.(
      const run $ shape_arg $ nodes_arg 40 $ seed_arg $ horizon_arg 24.
      $ window_arg $ workload_arg $ policy_arg $ solver_arg $ algo_arg
      $ w_arg $ power_flag $ bound_arg $ qos_at_arg $ bw_at_arg
      $ no_time_flag $ telemetry_term)
