(* replica_cli trace/engine: online runs over synthetic traces. *)

open Replica_tree
open Replica_core
open Replica_experiments
open Replica_engine
module Json = Replica_obs.Json
open Cmdliner
open Cli_common

let horizon_arg =
  Arg.(
    value & opt float 24.
    & info [ "horizon" ] ~docv:"T" ~doc:"Trace length in time units.")

let window_arg =
  Arg.(
    value & opt float 1.
    & info [ "window" ] ~docv:"T" ~doc:"Epoch aggregation window.")

let policy_arg =
  let parse s =
    let fail () =
      Error
        (`Msg
           (Printf.sprintf
              "invalid policy %S: expected lazy, systematic, periodic:K or \
               drift:F"
              s))
    in
    match String.lowercase_ascii s with
    | "lazy" -> Ok Update_policy.Lazy
    | "systematic" -> Ok Update_policy.Systematic
    | s -> (
        match String.index_opt s ':' with
        | None -> fail ()
        | Some i -> (
            let kind = String.sub s 0 i
            and v = String.sub s (i + 1) (String.length s - i - 1) in
            match kind with
            | "periodic" -> (
                match int_of_string_opt v with
                | Some k when k > 0 -> Ok (Update_policy.Periodic k)
                | _ -> fail ())
            | "drift" -> (
                match float_of_string_opt v with
                | Some f when f > 0. -> Ok (Update_policy.Drift f)
                | _ -> fail ())
            | _ -> fail ()))
  in
  let print ppf p =
    Format.pp_print_string ppf (Update_policy.policy_to_string p)
  in
  Arg.(
    value
    & opt (conv (parse, print)) Update_policy.Lazy
    & info [ "policy" ] ~docv:"POLICY"
        ~doc:
          "Update policy: $(b,lazy), $(b,systematic), $(b,periodic:K) \
           (every K epochs) or $(b,drift:F) (relative demand drift \
           threshold F).")

let trace_cmd =
  let run shape nodes seed horizon window policy =
    let open Replica_trace in
    let rng = Rng.create seed in
    let tree =
      Generator.random rng (Workload.profile shape ~nodes ~max_requests:6)
    in
    let trace = Arrivals.diurnal rng tree ~horizon ~period:24. ~floor:0.25 in
    Printf.printf "trace: %d requests over %.1f time units\n"
      (Trace.length trace) (Trace.duration trace);
    let cost = Cost.basic ~create:0.5 ~delete:0.25 () in
    let cfg =
      Engine.config ~policy ~w:Workload.capacity (Engine.Min_cost cost)
    in
    Timeline.print stdout (Engine.run_trace cfg tree trace ~window)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Synthesize a diurnal request trace, aggregate it into epochs and \
          serve it through the online engine under an update policy.")
    Term.(
      const run $ shape_arg $ nodes_arg 40 $ seed_arg $ horizon_arg
      $ window_arg $ policy_arg)

let engine_cmd =
  let workload_arg =
    let workload_conv =
      Arg.enum [ ("poisson", `Poisson); ("diurnal", `Diurnal); ("flash", `Flash) ]
    in
    Arg.(
      value & opt workload_conv `Diurnal
      & info [ "workload" ] ~docv:"KIND"
          ~doc:
            "Arrival process: $(b,poisson) (homogeneous), $(b,diurnal) \
             (day/night modulation) or $(b,flash) (Poisson plus a flash \
             crowd on the root's first subtree).")
  in
  let solver_arg =
    let solver_conv =
      Arg.enum [ ("full", Engine.Full); ("incremental", Engine.Incremental) ]
    in
    Arg.(
      value & opt solver_conv Engine.Incremental
      & info [ "solver" ] ~docv:"SOLVER"
          ~doc:
            "Re-solving strategy: $(b,full) rebuilds every DP table each \
             reconfiguration; $(b,incremental) reuses subtree tables \
             cached under demand fingerprints. Placements are identical; \
             only the work differs (visible in the per-epoch counter \
             deltas and solve times).")
  in
  let algo_arg =
    Arg.(
      value & opt (some string) None
      & info [ "algo" ] ~docv:"ALGO"
          ~doc:
            "Registry solver to reconfigure with (default: the exact DP \
             for the objective — $(b,dp-withpre) for cost, $(b,dp-power) \
             for $(b,--power)). See $(b,solve --list-algos).")
  in
  let w_arg =
    Arg.(
      value & opt int Workload.capacity
      & info [ "w" ] ~docv:"W" ~doc:"Server capacity (maximal mode).")
  in
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
  let json_arg =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the full machine-readable timeline to $(docv).")
  in
  let no_time_flag =
    Arg.(
      value & flag
      & info [ "no-time" ]
          ~doc:
            "Omit wall-clock figures from the printed timeline, making \
             the output fully deterministic for a fixed seed (used by the \
             cram test). The JSON artifact always records solve times.")
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
      bound qos bw json no_time trace_file metrics timeseries ts_stride
      openmetrics flight_record anomaly_k =
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
    let tele =
      make_telemetry ~json ~timeseries ~stride:ts_stride ~openmetrics
        ~flight_record ~anomaly_k ~trace_file ()
    in
    let timeline =
      try
        with_tracing ~counters:(telemetry_counters tele) trace_file (fun () ->
          let epochs = Epochs.epochs trace tree ~window in
          let epochs = List.mapi (fun i t -> constrain (i + 1) t) epochs in
          let tl =
            Timeline.of_entries
              (List.map
                 (fun t ->
                   let e = Engine.step engine t in
                   telemetry_epoch tele ~epoch:e.Timeline.epoch
                     ~latency_ns:
                       (int_of_float (e.Timeline.solve_seconds *. 1e9));
                   e)
                 epochs)
          in
          (* Metrics are written inside the traced region: with_tracing's
             cleanup resets the span buffers (and the dropped-span count
             the exposition includes), so snapshotting after it would
             always report obs.spans_dropped 0. *)
          Option.iter write_metrics metrics;
          tl)
      with Invalid_argument msg ->
        (* An epoch's constraints outran the solver's capability
           (Engine.step's per-epoch guard): same exit-2 path as the
           creation-time checks. *)
        die "%s" msg
    in
    telemetry_finish tele ~timeseries ~openmetrics;
    Timeline.print ~times:(not no_time) stdout timeline;
    Option.iter
      (fun path ->
        let config =
          [
            ( "workload",
              Json.String
                (match workload with
                | `Poisson -> "poisson"
                | `Diurnal -> "diurnal"
                | `Flash -> "flash") );
            ("policy", Json.String (Update_policy.policy_to_string policy));
            ( "solver",
              Json.String
                (match solver with
                | Engine.Full -> "full"
                | Engine.Incremental -> "incremental") );
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
        let oc = open_out path in
        output_string oc
          (Timeline.to_json_string ~config ?timeseries:tele.tele_ts timeline);
        output_char oc '\n';
        close_out oc)
      json
  in
  Cmd.v
    (Cmd.info "engine"
       ~doc:
         "Run the online reconfiguration engine over a synthetic trace: \
          aggregate arrivals into epochs, fire the update policy each \
          epoch, re-solve (fully or incrementally, with any capable \
          registry solver) and print the timeline.")
    Term.(
      const run $ shape_arg $ nodes_arg 40 $ seed_arg $ horizon_arg
      $ window_arg $ workload_arg $ policy_arg $ solver_arg $ algo_arg
      $ w_arg $ power_flag $ bound_arg $ qos_at_arg $ bw_at_arg $ json_arg
      $ no_time_flag $ trace_file_arg $ metrics_file_arg
      $ timeseries_file_arg $ timeseries_stride_arg $ openmetrics_file_arg
      $ flight_record_arg $ anomaly_k_arg)
