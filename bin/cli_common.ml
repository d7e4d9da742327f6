(* Arguments, helpers and the shared error path used by every
   replica_cli subcommand module. *)

open Replica_tree
open Replica_core
open Replica_experiments
open Cmdliner

(* --- shared error path ---

   Unknown algorithm names and capability mismatches all exit through
   here, so the CLI has exactly one failure shape (stderr line + exit
   2) for "you asked a solver for something it cannot do". The cram
   suite pins both the message and the status. *)

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("replica_cli: " ^ s);
      exit 2)
    fmt

let warn fmt =
  Printf.ksprintf (fun s -> Printf.eprintf "replica_cli: warning: %s\n%!" s) fmt

(* --- shared arguments --- *)

(* A size flag is checked where it is defined: zero or less is a usage
   error on the shared path, not an [Invalid_argument] from deep inside
   a generator or an all-zero table. *)
let must_be_positive ~zero flag v =
  if v > zero then v else die "%s must be positive" flag

let positive ~zero flag arg = Term.(const (must_be_positive ~zero flag) $ arg)

let positive_opt flag arg =
  Term.(const (Option.map (must_be_positive ~zero:0 flag)) $ arg)

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let nodes_arg default =
  positive ~zero:0 "--nodes"
    Arg.(
      value & opt int default
      & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Number of internal nodes.")

let shape_arg =
  let shape_conv =
    Arg.enum [ ("fat", Workload.Fat); ("high", Workload.High) ]
  in
  Arg.(
    value & opt shape_conv Workload.Fat
    & info [ "shape" ] ~docv:"SHAPE"
        ~doc:"Tree shape: $(b,fat) (6-9 children) or $(b,high) (2-4).")

(* --pre is checked against --nodes here, once for every command that
   draws pre-existing servers, rather than by the generator's
   [invalid_arg]. *)
let nodes_pre_args ~nodes ~pre =
  let check nodes pre =
    if pre < 0 || pre > nodes then
      die "--pre must be between 0 and --nodes (%d)" nodes;
    (nodes, pre)
  in
  Term.(
    const check $ nodes_arg nodes
    $ Arg.(
        value & opt int pre
        & info [ "pre" ] ~docv:"E" ~doc:"Number of pre-existing servers."))

let trees_arg default =
  positive ~zero:0 "--trees"
    Arg.(
      value & opt int default
      & info [ "trees" ] ~docv:"T"
          ~doc:"Number of random trees to average over.")

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let verbose_flag =
  Arg.(
    value & flag
    & info [ "v"; "verbose" ] ~doc:"Enable debug logging of the DP internals.")

let quiet_progress =
  Arg.(
    value & flag & info [ "q"; "quiet" ] ~doc:"Suppress progress output.")

let domains_arg =
  positive_opt "--domains"
    Arg.(
      value & opt (some int) None
      & info [ "j"; "domains" ] ~docv:"D"
          ~doc:
            "Domains for parallel per-tree solves (default: the machine's \
             recommended count). Results are identical at any value.")

let csv_flag =
  Arg.(
    value & flag
    & info [ "csv" ] ~doc:"Emit CSV instead of an aligned table.")

let emit csv table =
  if csv then print_string (Table.to_csv table) else Table.print table

let progress quiet fmt =
  if quiet then Printf.ifprintf stderr fmt else Printf.eprintf fmt

let make_tree ~shape ~nodes ~pre ~seed ~max_requests ~pre_mode =
  let rng = Rng.create seed in
  let t =
    Generator.random rng (Workload.profile shape ~nodes ~max_requests)
  in
  Generator.add_pre_existing rng ~mode:pre_mode t pre

(* --- QoS / bandwidth constraint flags (shared by generate, solve and
   the engine's tightening variants) --- *)

let qos_arg =
  Arg.(
    value & opt (some int) None
    & info [ "qos" ] ~docv:"Q"
        ~doc:
          "Bound every client's distance to its server at $(docv) hops \
           ($(b,0) = a server at the attachment node).")

let bw_arg =
  Arg.(
    value & opt (some float) None
    & info [ "bw" ] ~docv:"S"
        ~doc:
          "Cap every link at $(docv) times its subtree demand (slack \
           factor; values below 1 make links bind).")

let constrain_tree ~qos ~bw ~seed t =
  let t =
    match qos with
    | None -> t
    | Some q ->
        if q < 0 then die "--qos must be non-negative";
        Tree.with_qos t (fun _ _ -> q)
  in
  match bw with
  | None -> t
  | Some s ->
      if s <= 0.0 then die "--bw must be positive";
      Generator.add_bandwidth (Rng.create seed) t ~slack:s

(* --- observability --- *)

let trace_file_arg =
  Arg.(
    value & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a span trace of the run and write it as Chrome \
           trace-event JSON to $(docv), loadable in Perfetto \
           (ui.perfetto.dev) or chrome://tracing.")

(* --trace implies allocation capture: a written trace should carry the
   memory axis without a second run. The capture is side-effect-only
   (allocation-free GC reads into span columns), so placements are
   bit-identical either way — the cram timeline goldens pin this. *)
let with_tracing ?counters trace f =
  let module Span = Replica_obs.Span in
  match trace with
  | None -> f ()
  | Some path ->
      Span.set_enabled true;
      Span.set_alloc true;
      Fun.protect
        ~finally:(fun () ->
          Span.set_alloc false;
          Span.set_enabled false;
          let counters =
            match counters with None -> [] | Some get -> get ()
          in
          Replica_obs.Chrome_trace.write_file ~dropped:(Span.dropped ())
            ~counters path (Span.export ());
          if Span.dropped () > 0 then
            Printf.eprintf "trace: %d spans dropped (buffer cap reached)\n%!"
              (Span.dropped ());
          Span.reset ())
        f

let metrics_file_arg =
  Arg.(
    value & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "After the run, write a Prometheus text-exposition snapshot of \
           the whole metrics registry (labeled instruments, counters, \
           timers and histograms) to $(docv).")

let write_string_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

(* The Metrics registry sees everything: the solvers' counters, timers
   and histograms, the labeled engine/forest instruments, the Gc_stats
   heap collector and the span drop counter. *)
let write_metrics path =
  Replica_obs.Gc_stats.register ();
  write_string_file path (Replica_obs.Prometheus.expose ())

(* --- live telemetry (timeseries + flight recorder) --- *)

let timeseries_file_arg =
  Arg.(
    value & opt (some string) None
    & info [ "timeseries" ] ~docv:"FILE"
        ~doc:
          "Sample the metrics registry once per epoch and write the \
           per-epoch series (counter deltas, gauges, histogram \
           count/sum/p50/p99) as JSON to $(docv). The same series also \
           lands in the $(b,--json) envelope's $(b,timeseries) field.")

let timeseries_stride_arg =
  Arg.(
    value & opt int 1
    & info [ "timeseries-stride" ] ~docv:"K"
        ~doc:"Record every K-th epoch in the time series (default 1).")

let openmetrics_file_arg =
  Arg.(
    value & opt (some string) None
    & info [ "openmetrics" ] ~docv:"FILE"
        ~doc:
          "Write the per-epoch series as OpenMetrics gauge families \
           (epoch index in the timestamp column, # EOF terminator) to \
           $(docv).")

let flight_record_arg =
  Arg.(
    value & opt (some string) None
    & info [ "flight-record" ] ~docv:"FILE"
        ~doc:
          "Keep tracing on with a bounded flight-recorder ring and dump a \
           Chrome trace of the lead-up to $(docv) whenever an epoch's \
           solve latency exceeds $(b,--anomaly-k) times the trailing \
           median. Conflicts with $(b,--trace).")

let anomaly_k_arg =
  Arg.(
    value & opt float 3.0
    & info [ "anomaly-k" ] ~docv:"K"
        ~doc:
          "Anomaly threshold multiplier for $(b,--flight-record): dump \
           when epoch latency > K x trailing median (default 3.0; 0 dumps \
           every epoch, useful for smoke tests).")

let json_file_arg =
  Arg.(
    value & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Write the full machine-readable timeline to $(docv).")

let write_json path json =
  write_string_file path (Replica_obs.Json.to_string ~pretty:true json ^ "\n")

type telemetry = {
  json : string option;
  trace : string option;
  metrics : string option;
  timeseries : string option;
  stride : int;
  openmetrics : string option;
  flight_record : string option;
  anomaly_k : float;
}

let telemetry_term =
  let make json trace metrics timeseries stride openmetrics flight_record
      anomaly_k =
    {
      json;
      trace;
      metrics;
      timeseries;
      stride;
      openmetrics;
      flight_record;
      anomaly_k;
    }
  in
  Term.(
    const make $ json_file_arg $ trace_file_arg $ metrics_file_arg
    $ timeseries_file_arg $ timeseries_stride_arg $ openmetrics_file_arg
    $ flight_record_arg $ anomaly_k_arg)

(* Serve [epochs ()] through [step] under the run's telemetry, reading
   each entry's epoch number with [epoch] and its latency in seconds
   with [latency]. Returns the entries and the per-epoch time series,
   recorded whenever a consumer wants it: --timeseries, --openmetrics
   or the --json envelope. Sampling, heap counters and the flight
   recorder read state only, so entries are identical with telemetry on
   or off. *)
let run_epochs tele ~epoch ~latency step epochs =
  let module Span = Replica_obs.Span in
  let module Ts = Replica_obs.Timeseries in
  let module F = Replica_obs.Flight_recorder in
  if tele.stride < 1 then die "--timeseries-stride must be >= 1";
  if tele.anomaly_k < 0. then die "--anomaly-k must be non-negative";
  (* Telemetry always carries the memory axis: the gc.* collector feeds
     the registry (hence Prometheus/Timeseries/--json), and pure reads
     cannot perturb placements. *)
  Replica_obs.Gc_stats.register ();
  let ts =
    if tele.json <> None || tele.timeseries <> None || tele.openmetrics <> None
    then Some (Ts.create ~stride:tele.stride ())
    else None
  in
  let fr =
    Option.map
      (fun path ->
        if tele.trace <> None then
          die
            "--flight-record conflicts with --trace (the recorder owns the \
             span buffers)";
        Span.set_enabled true;
        Span.set_alloc true;
        F.create ~k:tele.anomaly_k ~path ())
      tele.flight_record
  in
  let heap = ref [] in
  let entries =
    try
      with_tracing
        ~counters:(fun () -> List.rev !heap)
        tele.trace
        (fun () ->
          let entries =
            List.map
              (fun x ->
                let e = step x in
                let epoch = epoch e in
                Option.iter (fun ts -> Ts.sample ts ~epoch) ts;
                if tele.trace <> None then
                  heap :=
                    Replica_obs.Gc_stats.heap_counter
                      ~ts_ns:(Replica_obs.Clock.now_ns ())
                    :: !heap;
                Option.iter
                  (fun fr ->
                    ignore
                      (F.record fr ~epoch
                         ~latency_ns:(int_of_float (latency e *. 1e9))))
                  fr;
                e)
              (epochs ())
          in
          (* Metrics are written inside the traced region: with_tracing's
             cleanup resets the span buffers (and the dropped-span count
             the exposition includes), so snapshotting after it would
             always report obs.spans_dropped 0. *)
          Option.iter write_metrics tele.metrics;
          entries)
    with Invalid_argument msg ->
      (* An epoch's constraints outran the solver's capability
         (Engine.step's per-epoch guard): same exit-2 path as the
         creation-time checks. *)
      die "%s" msg
  in
  Option.iter
    (fun fr ->
      Span.set_alloc false;
      Span.set_enabled false;
      Span.reset ();
      match F.last_dump_epoch fr with
      | Some e ->
          Printf.eprintf
            "flight-recorder: %d dump(s), last at epoch %d -> %s\n%!"
            (F.dumps fr) e (F.path fr)
      | None -> Printf.eprintf "flight-recorder: no anomaly, no dump\n%!")
    fr;
  Option.iter
    (fun ts ->
      Option.iter
        (fun path ->
          let module Json = Replica_obs.Json in
          write_json path
            (Json.envelope ~kind:"timeseries" ~config:[]
               [
                 ("stride", Json.Int (Ts.stride ts));
                 ("points", Ts.to_json ts);
               ]))
        tele.timeseries;
      Option.iter
        (fun path -> write_string_file path (Ts.to_openmetrics ts))
        tele.openmetrics)
    ts;
  (entries, ts)

(* --- online run flags (engine, forest, top) --- *)

let horizon_arg default =
  positive ~zero:0. "--horizon"
    Arg.(
      value & opt float default
      & info [ "horizon" ] ~docv:"T" ~doc:"Trace length in time units.")

let window_arg =
  positive ~zero:0. "--window"
    Arg.(
      value & opt float 1.
      & info [ "window" ] ~docv:"T" ~doc:"Epoch aggregation window.")

let w_arg =
  positive ~zero:0 "-w"
    Arg.(
      value & opt int Workload.capacity
      & info [ "w" ] ~docv:"W" ~doc:"Server capacity (maximal mode).")

(* Enum tables give each name once: the flag parser and the --json
   config both read them. *)
let workloads =
  [ ("poisson", `Poisson); ("diurnal", `Diurnal); ("flash", `Flash) ]

let solvers =
  Replica_engine.Engine.[ ("full", Full); ("incremental", Incremental) ]

let name_of table v = fst (List.find (fun (_, x) -> x = v) table)

let workload_arg =
  Arg.(
    value & opt (enum workloads) `Diurnal
    & info [ "workload" ] ~docv:"KIND"
        ~doc:
          "Arrival process: $(b,poisson) (homogeneous), $(b,diurnal) \
           (day/night modulation) or $(b,flash) (Poisson plus a flash \
           crowd on the root's first subtree; in a forest, on each \
           shard's).")

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

let solver_arg =
  Arg.(
    value & opt (enum solvers) Replica_engine.Engine.Incremental
    & info [ "solver" ] ~docv:"SOLVER"
        ~doc:
          "Re-solving strategy: $(b,full) rebuilds every DP table each \
           reconfiguration; $(b,incremental) reuses subtree tables cached \
           under demand fingerprints (in a forest, each shard keeps its \
           own memo). Placements are identical; only the work differs \
           (visible in the per-epoch counter deltas and solve times).")

let algo_arg =
  Arg.(
    value & opt (some string) None
    & info [ "algo" ] ~docv:"ALGO"
        ~doc:
          "Registry solver to reconfigure with (default: the exact DP for \
           the objective — $(b,dp-withpre) for cost, $(b,dp-power) for \
           $(b,engine --power)). $(b,forest --coupling) accepts only \
           solvers whose capability row shows $(b,coupling). See \
           $(b,solve --list-algos).")

let no_time_flag =
  Arg.(
    value & flag
    & info [ "no-time" ]
        ~doc:
          "Omit wall-clock figures from the printed timeline, making the \
           output fully deterministic for a fixed seed (used by the cram \
           test). The JSON artifact always records times.")

(* Read to end of file, so pipes such as /dev/stdin work too. *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

(* --- solver selection (registry-backed) --- *)

let algo_doc () =
  Printf.sprintf
    "Solver name from the registry: %s. See $(b,--list-algos) for the \
     capability matrix."
    (String.concat ", "
       (List.map (fun n -> Printf.sprintf "$(b,%s)" n) (Registry.names ())))

(* The name is parsed as a plain string and resolved at run time so an
   unknown name flows through the shared [die] path (exit 2) instead of
   cmdliner's usage error (exit 124). *)
let resolve_algo name =
  match Registry.find name with
  | Some s -> s
  | None ->
      die "unknown algorithm %S (try --list-algos for the registry)" name
