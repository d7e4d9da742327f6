(* replica_cli profile/bench-diff/obs-validate: offline analysis of
   observability artifacts. *)

open Cmdliner
open Cli_common

let profile_cmd =
  let trace_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Chrome trace-event JSON file to analyse (as written by \
             $(b,solve --trace) or $(b,engine --trace)).")
  in
  let folded_flag =
    Arg.(
      value & flag
      & info [ "folded" ]
          ~doc:
            "Emit Brendan Gregg collapsed-stack lines (stack frames joined \
             by ';', weighted by self time in nanoseconds) instead of the \
             hotspot table — pipe into inferno, speedscope or \
             flamegraph.pl to render a flamegraph.")
  in
  let critical_flag =
    Arg.(
      value & flag
      & info [ "critical-path" ]
          ~doc:
            "Print the longest chain of nested spans through the trace's \
             longest root span, with each phase's contribution to the \
             total.")
  in
  let top_arg =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"K"
          ~doc:"Rows in the hotspot table (default 10).")
  in
  let alloc_flag =
    Arg.(
      value & flag
      & info [ "alloc" ]
          ~doc:
            "Weight the analysis by allocated minor words instead of \
             nanoseconds: the hotspot table ranks by self-allocation, \
             $(b,--folded) emits alloc-weighted stacks, and \
             $(b,--critical-path) annotates each phase with its \
             allocation contribution. Requires a trace recorded with \
             alloc capture on ($(b,--trace) enables it); other traces \
             aggregate to zero columns.")
  in
  let run trace folded critical top alloc =
    let module Obs = Replica_obs in
    if top <= 0 then die "profile: --top must be positive (got %d)" top;
    match Obs.Trace_reader.of_file trace with
    | Error e ->
        Printf.eprintf "profile: %s: %s\n" trace e;
        exit 2
    | Ok t ->
        if t.Obs.Trace_reader.dropped > 0 then
          Printf.eprintf
            "profile: warning: %d spans were dropped while recording %s — \
             self times and counts undercount the truncated subtrees\n%!"
            t.Obs.Trace_reader.dropped (Filename.basename trace);
        let roots = t.Obs.Trace_reader.roots in
        if folded then
          print_string
            (if alloc then Obs.Profile.folded_alloc roots
             else Obs.Profile.folded roots);
        if critical then
          print_string
            (Obs.Critical_path.render ~alloc (Obs.Critical_path.longest roots));
        if not (folded || critical) then
          print_string
            (if alloc then Obs.Profile.alloc_table ~k:top roots
             else Obs.Profile.top_table ~k:top roots)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Analyse a recorded span trace: aggregate per-span self/total \
          times into a hotspot table (default), emit folded stacks for \
          flamegraph tooling ($(b,--folded)), or extract the critical \
          path ($(b,--critical-path)); $(b,--alloc) switches any of the \
          three from nanoseconds to allocated words. Warns when the \
          trace was truncated by the span-buffer cap.")
    Term.(
      const run $ trace_arg $ folded_flag $ critical_flag $ top_arg
      $ alloc_flag)

let bench_diff_cmd =
  let baseline_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"BASELINE" ~doc:"Committed BENCH_*.json baseline.")
  in
  let current_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"CURRENT" ~doc:"Freshly produced BENCH_*.json artifact.")
  in
  let threshold_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "threshold" ] ~docv:"PCT"
          ~doc:
            "Override every directional metric's relative tolerance with \
             $(docv) percent (exact-match metrics are unaffected).")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the comparison report as JSON.")
  in
  let run baseline current threshold json =
    let module Obs = Replica_obs in
    let parse what path =
      match Obs.Json.parse (read_file path) with
      | Ok v -> v
      | Error e ->
          Printf.eprintf "bench-diff: %s %s: %s\n" what path e;
          exit 2
    in
    let b = parse "baseline" baseline and c = parse "current" current in
    let rel_tol = Option.map (fun pct -> pct /. 100.) threshold in
    match Obs.Bench_history.diff ?rel_tol ~baseline:b ~current:c () with
    | Error e ->
        Printf.eprintf "bench-diff: %s\n" e;
        exit 2
    | Ok report ->
        if json then
          print_endline
            (Obs.Json.to_string ~pretty:true
               (Obs.Bench_history.to_json report))
        else print_string (Obs.Bench_history.render report);
        if report.Obs.Bench_history.hard_regressions > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Compare two BENCH_*.json artifacts of the same kind and schema \
          version with the noise-aware regression gate: deterministic \
          count metrics (merge products, optima, placements) hard-fail \
          with a nonzero exit on any worsening; wall-clock metrics only \
          warn unless they move beyond both a relative tolerance and an \
          absolute noise floor.")
    Term.(const run $ baseline_arg $ current_arg $ threshold_arg $ json_flag)

let bench_history_cmd =
  let action_arg =
    Arg.(
      required
      & pos 0 (some (enum [ ("trend", `Trend) ])) None
      & info [] ~docv:"ACTION"
          ~doc:"$(b,trend): per-metric direction and slope over recent runs.")
  in
  let file_arg =
    Arg.(
      value
      & opt string "BENCH_history.jsonl"
      & info [ "file" ] ~docv:"FILE"
          ~doc:
            "JSON-lines history file the bench harness appends every \
             artifact to (default BENCH_history.jsonl).")
  in
  let kind_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "kind" ] ~docv:"KIND"
          ~doc:
            "Bench kind to trend: $(b,dp_power), $(b,engine), $(b,qos), \
             $(b,forest) or $(b,obs).")
  in
  let last_arg =
    Arg.(
      value & opt int 10
      & info [ "last" ] ~docv:"K"
          ~doc:"Window: the last K matching runs (default 10).")
  in
  let run action file kind last =
    let module Obs = Replica_obs in
    match action with
    | `Trend ->
        if not (Sys.file_exists file) then
          die "history file %s does not exist (run `make bench' first)" file;
        (* A malformed line (say, a truncated append) would silently
           change the trend: reject the file instead. *)
        let history =
          String.split_on_char '\n' (read_file file)
          |> List.mapi (fun i l -> (i + 1, l))
          |> List.filter_map (fun (line, l) ->
                 if String.trim l = "" then None
                 else
                   match Obs.Json.parse l with
                   | Ok j -> Some j
                   | Error e -> die "%s:%d: %s" file line e)
        in
        (match Obs.Bench_history.trend ~kind ~last history with
        | Ok report -> print_string (Obs.Bench_history.render_trend report)
        | Error e -> die "bench-history: %s" e)
  in
  Cmd.v
    (Cmd.info "bench-history"
       ~doc:
         "Query the local bench history (BENCH_history.jsonl, appended by \
          the bench harness on every run): $(b,trend) fits a per-metric \
          slope over the last K runs of one bench kind and classifies each \
          metric as improving, worsening or flat against its regression \
          direction.")
    Term.(const run $ action_arg $ file_arg $ kind_arg $ last_arg)

let obs_validate_cmd =
  let trace_arg =
    Arg.(
      value & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Chrome trace-event JSON file to validate.")
  in
  let metrics_arg =
    Arg.(
      value & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:"Prometheus text-exposition file to validate.")
  in
  let run trace metrics =
    if trace = None && metrics = None then begin
      prerr_endline
        "obs-validate: nothing to validate (pass --trace and/or --metrics)";
      exit 2
    end;
    let read path =
      (* Sys_error messages lead with the path, as profile reports them. *)
      try read_file path
      with Sys_error e ->
        Printf.eprintf "obs-validate: %s\n" e;
        exit 2
    in
    let ok = ref true in
    Option.iter
      (fun path ->
        match Replica_obs.Chrome_trace.validate (read path) with
        | Ok events ->
            Printf.printf "trace %s: valid chrome trace, %d events\n"
              (Filename.basename path) events
        | Error e ->
            ok := false;
            Printf.printf "trace %s: INVALID: %s\n" (Filename.basename path) e)
      trace;
    Option.iter
      (fun path ->
        (* The sample count varies with latency bin occupancy, so only
           the verdict is printed — cram tests pin this output. *)
        match Replica_obs.Prometheus.validate (read path) with
        | Ok _ ->
            Printf.printf "metrics %s: valid prometheus exposition\n"
              (Filename.basename path)
        | Error e ->
            ok := false;
            Printf.printf "metrics %s: INVALID: %s\n" (Filename.basename path) e)
      metrics;
    if not !ok then exit 1
  in
  Cmd.v
    (Cmd.info "obs-validate"
       ~doc:
         "Validate observability artifacts without external tooling: a \
          Chrome trace-event JSON file ($(b,--trace)) and/or a Prometheus \
          text exposition ($(b,--metrics)). Exits nonzero on malformed \
          input; used by the cram suite and the CI smoke step.")
    Term.(const run $ trace_arg $ metrics_arg)
