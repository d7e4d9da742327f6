(* perfbench: one workload per process, closed loop, end-to-end metrics
   from an untraced run and per-layer metrics from a traced run.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
     perfbench.exe --smoke BENCHMARK.json

   The last line of standard output is one JSON object:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}. *)

open Harness

let end_to_end =
  [
    ("op_p50_ms", "ms");
    ("op_p90_ms", "ms");
    ("ops_per_s", "1/s");
    ("setup_s", "s");
    ("alloc_mb_per_op", "MB");
    ("objective", "units");
  ]

let share_name layer = "share." ^ layer ^ "_pct"

let per_layer =
  [
    ("tree.generate_s", "s");
    ("trace.generate_s", "s");
    ("trace.epochs_s", "s");
    ("dp_power.tables_ms", "ms");
    ("dp_power.enumerate_ms", "ms");
    ("dp_power.alloc_mb", "MB");
    ("dp_power.merge_products", "count");
    ("dp_power.cells_created", "count");
    ("dp_power.dominance_pruned", "count");
    ("dp_power.peak_table_size", "count");
    ("dp_power.cells_per_product", "ratio");
    ("greedy_power.solve_ms", "ms");
    ("greedy_power.alloc_mb", "MB");
    ("greedy_power.candidates", "count");
    ("dp_withpre.solve_ms", "ms");
    ("dp_withpre.merge_ms", "ms");
    ("dp_withpre.merge_products", "count");
    ("dp_withpre.memo_hit_ratio", "ratio");
    ("engine.demand_diff_us", "us");
    ("engine.policy_us", "us");
    ("engine.solve_ms", "ms");
    ("engine.apply_us", "us");
    ("engine.changed_nodes", "count");
    ("engine.dirty_nodes", "count");
    ("forest.coordinator_ms", "ms");
    ("forest.repair_added", "count");
    ("forest.coupling_overloads", "count");
    ("forest.unrepaired", "count");
    ("forest.shard_solve_p90_ms", "ms");
    ("par.busy_frac", "ratio");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("gc.promoted_mb", "MB");
    ("gc.peak_heap_mb", "MB");
    ("obs.trace_overhead_pct", "%");
    ("obs.spans_per_op", "count");
    ("obs.spans_dropped", "count");
    ("obs.span_alloc_mb_per_op", "MB");
    ("layers.unattributed_pct", "%");
    ("unserved_frac", "ratio");
  ]
  @ List.map (fun l -> (share_name l, "%")) op_layers

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  notes : string list;  (* human-readable lines printed before the JSON *)
}

let setups = 5
let mb words = words *. float_of_int (Sys.word_size / 8) /. 1e6
let ratio a b = if b = 0. then 0. else a /. b
let get tbl key = Option.value ~default:0. (Hashtbl.find_opt tbl key)

(* Every pass is the same operation mix, so each latency and throughput
   figure is taken per pass and then over passes at the decile on the
   fast side: a slow stretch of a shared machine, often several seconds
   long, moves only the passes it covers, and the decile ignores up to
   nine tenths of them. *)
let untraced w ~seconds =
  let first, s = timed_setup w in
  (* The other set-ups are spread over the run, like the passes, so a
     slow stretch of the machine cannot catch all of them. *)
  let p =
    run_phase s ~seconds ~min_ops:100
      ~sample:(setups - 1, fun () -> fst (timed_setup w))
  in
  let v = s.verify () in
  let over_passes q f = quantile (List.map f p.passes) q in
  let pass_ms lq = over_passes 0.1 (fun (lat, _) -> ms (percentile lat lq)) in
  let p90 = percentile p.lat_ns 0.9 in
  let beyond =
    Array.fold_left (fun n x -> if x > p90 then n + 1 else n) 0 p.lat_ns
  in
  {
    correct = p.raised + v.failed = 0;
    attempted = p.ops;
    failed = p.raised + v.failed;
    metrics =
      [
        ("op_p50_ms", pass_ms 0.5);
        ("op_p90_ms", pass_ms 0.9);
        ( "ops_per_s",
          over_passes 0.9 (fun (_, wall) -> float_of_int s.cycle /. secs wall) );
        ("setup_s", secs (median (first :: p.samples)));
        ("alloc_mb_per_op", mb p.alloc_words /. float_of_int p.ops);
        ("objective", v.objective);
      ];
    notes =
      [
        Printf.sprintf
          "%s: %d operations in %d passes of %d; over all operations p50 \
           %.3f ms, p90 %.3f ms (%d operations beyond it); unserved %d of \
           %d requests"
          w.name p.ops (List.length p.passes) s.cycle
          (ms (percentile p.lat_ns 0.5))
          (ms p90) beyond v.unserved v.offered;
      ];
  }

let traced_run w ~seconds =
  Span.set_enabled true;
  Span.set_alloc true;
  Span.reset ();
  (* Set-up phases: outermost span totals over every set-up. *)
  let setup_acc = acc () in
  let drain () =
    let spans = Span.export () in
    Span.reset ();
    walk_outer setup_acc (Trace_reader.forest_of_spans spans)
  in
  let set_up () =
    let _, s = timed_setup w in
    drain ();
    s
  in
  for _ = 2 to setups do
    ignore (set_up () : session)
  done;
  let s = set_up () in
  (* An untraced calibration phase first (trace overhead baseline, GC
     counts), then the traced phase. *)
  Span.set_enabled false;
  Span.reset ();
  let cal = run_phase s ~seconds:(seconds /. 3.) ~min_ops:20 in
  (* This process's major-heap high-water mark before any span is
     buffered: set-up plus untraced operations. *)
  let peak_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let a = acc () in
  Span.set_enabled true;
  let tr =
    run_phase ~around:(traced a) s ~seconds:(seconds *. 2. /. 3.) ~min_ops:20
  in
  Span.set_enabled false;
  let v = s.verify () in
  let ops = float_of_int a.ops in
  let per_op x = x /. ops in
  let per_setup name = get setup_acc.outer_ns name /. 1e9 /. float_of_int setups in
  let outer_ms name = per_op (get a.outer_ns name) /. 1e6 in
  let self_name_us name = per_op (get a.name_self_ns name) /. 1e3 in
  let counter name = per_op (get a.counters name) in
  let covered = float_of_int a.covered_ns in
  let share layer = 100. *. ratio (get a.self_ns layer) covered in
  let cal_ops = float_of_int cal.ops in
  let p50_untraced = float_of_int (percentile cal.lat_ns 0.5)
  and p50_traced = float_of_int (percentile tr.lat_ns 0.5) in
  let memo k = get a.counters ("dp_withpre.memo_" ^ k) in
  let shard_solve = Array.of_list a.shard_solve_ns in
  Array.sort compare shard_solve;
  let metrics =
    [
      ("tree.generate_s", per_setup "tree.generate");
      ("trace.generate_s", per_setup "trace.generate");
      ("trace.epochs_s", per_setup "trace.epochs");
      ("dp_power.tables_ms", outer_ms "dp_power.tables");
      ("dp_power.enumerate_ms", outer_ms "dp_power.enumerate");
      ("dp_power.alloc_mb", per_op (mb (get a.self_words "core.dp_power")));
      ("dp_power.merge_products", counter "dp_power.merge_products");
      ("dp_power.cells_created", counter "dp_power.cells_created");
      ("dp_power.dominance_pruned", counter "dp_power.dominance_pruned");
      ("dp_power.peak_table_size", get a.peaks "dp_power.peak_table_size");
      ( "dp_power.cells_per_product",
        ratio (get a.counters "dp_power.cells_created")
          (get a.counters "dp_power.merge_products") );
      ("greedy_power.solve_ms", outer_ms "greedy_power.solve");
      ("greedy_power.alloc_mb", per_op (mb (get a.self_words "core.greedy_power")));
      ("greedy_power.candidates", per_op (get a.calls "greedy.solve"));
      ("dp_withpre.solve_ms", outer_ms "dp_withpre.solve");
      ("dp_withpre.merge_ms", outer_ms "dp_withpre.merge");
      ("dp_withpre.merge_products", counter "dp_withpre.merge_products");
      ( "dp_withpre.memo_hit_ratio",
        ratio (memo "hits") (memo "hits" +. memo "partial" +. memo "misses") );
      ("engine.demand_diff_us", self_name_us "engine.demand_diff");
      ("engine.policy_us", self_name_us "engine.policy");
      ("engine.solve_ms", self_name_us "engine.solve" /. 1e3);
      ("engine.apply_us", self_name_us "engine.apply");
      ("engine.changed_nodes", per_op (get a.args "engine.demand_diff:changed"));
      ("engine.dirty_nodes", per_op (get a.args "engine.demand_diff:dirty"));
      ("forest.coordinator_ms", per_op (ms a.coordinator_ns));
      ("forest.repair_added", per_op (get tr.figures "forest.repair_added"));
      ( "forest.coupling_overloads",
        per_op (get tr.figures "forest.coupling_overloads") );
      ("forest.unrepaired", per_op (get tr.figures "forest.unrepaired"));
      ( "forest.shard_solve_p90_ms",
        if shard_solve = [||] then 0. else ms (percentile shard_solve 0.9) );
      ( "par.busy_frac",
        ratio
          (float_of_int a.par_busy_ns)
          (float_of_int (Workloads.domains * a.par_wall_ns)) );
      ("gc.minor_collections", float_of_int cal.minor_gcs /. cal_ops);
      ("gc.major_collections", float_of_int cal.major_gcs /. cal_ops);
      ("gc.promoted_mb", mb cal.promoted_words /. cal_ops);
      ("gc.peak_heap_mb", mb (float_of_int peak_words));
      ( "obs.trace_overhead_pct",
        100. *. ratio (p50_traced -. p50_untraced) p50_untraced );
      ("obs.spans_per_op", per_op (float_of_int a.spans));
      ("obs.spans_dropped", float_of_int a.dropped);
      ("obs.span_alloc_mb_per_op", per_op (mb a.root_words));
      ("layers.unattributed_pct", share "bench");
      ("unserved_frac", ratio (float_of_int v.unserved) (float_of_int v.offered));
    ]
    @ List.map (fun l -> (share_name l, share l)) op_layers
  in
  let exact = a.partition_error_ns = 0 && a.critical_path_error_ns = 0 in
  let top =
    List.fold_left
      (fun best l -> if share l > share best then l else best)
      (List.hd op_layers) op_layers
  in
  let failed = cal.raised + tr.raised + v.failed in
  {
    correct = failed = 0 && exact;
    attempted = cal.ops + tr.ops;
    failed;
    metrics;
    notes =
      [
        Printf.sprintf
          "%s traced: %d operations; largest self-time share %s (%.1f %%); \
           layer self times %s the traced operation time (error %d ns, \
           critical-path error %d ns)"
          w.name a.ops top (share top)
          (if exact then "partition" else "DO NOT partition")
          a.partition_error_ns a.critical_path_error_ns;
      ];
  }

(* --- output --- *)

let number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let print_result catalog r =
  List.iter print_endline r.notes;
  let metric (name, unit) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
      (number (List.assoc name r.metrics))
      unit
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    r.correct r.attempted r.failed
    (String.concat ", " (List.map metric catalog))

let measure size ~workload ~seed ~seconds ~trace =
  match
    List.find_opt
      (fun (w : workload) -> w.name = workload)
      (Workloads.all size ~seed)
  with
  | None -> Error (Printf.sprintf "unknown workload %S" workload)
  | Some w ->
      Ok (if trace then traced_run w ~seconds else untraced w ~seconds)

(* --- smoke check --- *)

(* [(name, unit)] of one metric list of BENCHMARK.json. *)
let catalog_of file key =
  let module J = Replica_obs.Json in
  let text = In_channel.with_open_bin file In_channel.input_all in
  match J.parse text with
  | Error e -> failwith (file ^ ": " ^ e)
  | Ok json -> (
      match J.member key json with
      | Some (J.List items) ->
          List.map
            (fun item ->
              match (J.member "name" item, J.member "unit" item) with
              | Some (J.String n), Some (J.String u) -> (n, u)
              | _ -> failwith (file ^ ": malformed " ^ key ^ " entry"))
            items
      | _ -> failwith (file ^ ": no " ^ key ^ " list"))

let smoke file =
  let sorted = List.sort compare in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun (key, ours) ->
      if sorted (catalog_of file key) <> sorted ours then
        problem "%s: %s differs from the benchmark's own metric list" file key)
    [ ("end_to_end", end_to_end); ("per_layer", per_layer) ];
  List.iter
    (fun (w : workload) ->
      List.iter
        (fun (trace, catalog) ->
          match
            measure Workloads.Tiny ~workload:w.name ~seed:1 ~seconds:0.3 ~trace
          with
          | Error e -> problem "%s" e
          | Ok r ->
              if not r.correct || r.failed > 0 then
                problem "%s (trace %b): %d of %d operations failed; %s" w.name
                  trace r.failed r.attempted (String.concat "; " r.notes);
              List.iter
                (fun (name, _) ->
                  match List.assoc_opt name r.metrics with
                  | Some x when Float.is_finite x -> ()
                  | _ -> problem "%s (trace %b): no finite %s" w.name trace name)
                catalog)
        [ (false, end_to_end); (true, per_layer) ])
    (Workloads.all Workloads.Tiny ~seed:1);
  match !problems with
  | [] -> ()
  | ps ->
      List.iter prerr_endline (List.rev ps);
      exit 1

(* --- command line --- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let smoke_file = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
      ( "--smoke",
        Arg.Set_string smoke_file,
        "FILE tiny-size self-check against FILE" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !smoke_file <> "" then smoke !smoke_file
  else
    match
      measure Workloads.Full ~workload:!workload ~seed:!seed ~seconds:!seconds
        ~trace:(!trace = 1)
    with
    | Error e ->
        prerr_endline e;
        exit 2
    | Ok r -> print_result (if !trace = 1 then per_layer else end_to_end) r
