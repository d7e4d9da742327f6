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

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let nodes_arg default =
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

let pre_arg default =
  Arg.(
    value & opt int default
    & info [ "pre" ] ~docv:"E" ~doc:"Number of pre-existing servers.")

let trees_arg default =
  Arg.(
    value & opt int default
    & info [ "trees" ] ~docv:"T" ~doc:"Number of random trees to average over.")

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

(* The Metrics registry sees everything: labeled engine/forest
   instruments, the Stats_counters collector, the Gc_stats heap
   collector, the legacy histogram registry and the span drop
   counter. *)
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

type telemetry = {
  tele_ts : Replica_obs.Timeseries.t option;
  tele_fr : Replica_obs.Flight_recorder.t option;
  tele_heap : Replica_obs.Chrome_trace.counter list ref option;
}

(* The time series is recorded whenever any consumer wants it: the
   --timeseries / --openmetrics artifacts or the --json envelope. *)
let make_telemetry ~json ~timeseries ~stride ~openmetrics ~flight_record
    ~anomaly_k ~trace_file () =
  if stride < 1 then die "--timeseries-stride must be >= 1";
  if anomaly_k < 0. then die "--anomaly-k must be non-negative";
  (* Telemetry always carries the memory axis: the gc.* collector feeds
     the registry (hence Prometheus/Timeseries/--json), and pure reads
     cannot perturb placements. *)
  Replica_obs.Gc_stats.register ();
  let tele_ts =
    if json <> None || timeseries <> None || openmetrics <> None then
      Some (Replica_obs.Timeseries.create ~stride ())
    else None
  in
  let tele_fr =
    Option.map
      (fun path ->
        if trace_file <> None then
          die
            "--flight-record conflicts with --trace (the recorder owns the \
             span buffers)";
        Replica_obs.Span.set_enabled true;
        Replica_obs.Span.set_alloc true;
        Replica_obs.Flight_recorder.create ~k:anomaly_k ~path ())
      flight_record
  in
  let tele_heap = Option.map (fun _ -> ref []) trace_file in
  { tele_ts; tele_fr; tele_heap }

(* Call once per epoch, after the epoch's work. Sampling reads the
   registry only — placements are identical with telemetry on or off. *)
let telemetry_epoch tele ~epoch ~latency_ns =
  Option.iter (fun ts -> Replica_obs.Timeseries.sample ts ~epoch) tele.tele_ts;
  Option.iter
    (fun heap ->
      heap :=
        Replica_obs.Gc_stats.heap_counter
          ~ts_ns:(Replica_obs.Clock.now_ns ())
        :: !heap)
    tele.tele_heap;
  Option.iter
    (fun fr ->
      ignore (Replica_obs.Flight_recorder.record fr ~epoch ~latency_ns))
    tele.tele_fr

(* Per-epoch heap counter events, oldest first, for the trace writer. *)
let telemetry_counters tele () =
  match tele.tele_heap with None -> [] | Some heap -> List.rev !heap

let telemetry_finish tele ~timeseries ~openmetrics =
  Option.iter
    (fun fr ->
      Replica_obs.Span.set_alloc false;
      Replica_obs.Span.set_enabled false;
      Replica_obs.Span.reset ();
      let module F = Replica_obs.Flight_recorder in
      match F.last_dump_epoch fr with
      | Some e ->
          Printf.eprintf
            "flight-recorder: %d dump(s), last at epoch %d -> %s\n%!"
            (F.dumps fr) e (F.path fr)
      | None -> Printf.eprintf "flight-recorder: no anomaly, no dump\n%!")
    tele.tele_fr;
  Option.iter
    (fun ts ->
      Option.iter
        (fun path ->
          let module Json = Replica_obs.Json in
          write_string_file path
            (Json.to_string ~pretty:true
               (Json.envelope ~kind:"timeseries" ~config:[]
                  [
                    ( "stride",
                      Json.Int (Replica_obs.Timeseries.stride ts) );
                    ("points", Replica_obs.Timeseries.to_json ts);
                  ])
            ^ "\n"))
        timeseries;
      Option.iter
        (fun path ->
          write_string_file path (Replica_obs.Timeseries.to_openmetrics ts))
        openmetrics)
    tele.tele_ts

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
