(* The observability substrate: histograms, span tracing, the JSON
   parser and both exporters, plus the Stats_counters snapshot/diff and
   monotonic-clock regressions. *)

open Replica_core
open Helpers
module Obs = Replica_obs
module H = Obs.Histogram
module Span = Obs.Span
module Json = Obs.Json

(* --- Histogram --- *)

let observations_gen =
  QCheck2.Gen.(list_size (int_range 1 200) (int_range (-5) 1_000_000))

let prop_each_observation_in_one_bin =
  qcheck_case "histogram: every observation lands in exactly one bin"
    observations_gen (fun obs ->
      let h = H.make "test" in
      List.iter (H.observe h) obs;
      (* The last cumulative bucket count equals the observation count
         exactly when each observation incremented exactly one bin. A
         negative observation adds 0 to the sum, as bin 0 reports it. *)
      H.count h = List.length obs
      && (match List.rev (H.buckets h) with
         | (_, cum) :: _ -> cum = List.length obs
         | [] -> false)
      && H.sum h = List.fold_left (fun acc v -> acc + max 0 v) 0 obs)

let prop_quantiles_monotone =
  qcheck_case "histogram: p50 <= p90 <= p99" observations_gen (fun obs ->
      let h = H.make "test" in
      List.iter (H.observe h) obs;
      let s = H.summary h in
      s.H.p50 <= s.H.p90 && s.H.p90 <= s.H.p99)

let prop_quantile_brackets_value =
  qcheck_case "histogram: geometric-midpoint quantile within 2x of the value"
    QCheck2.Gen.(int_range 1 (1 lsl 40))
    (fun v ->
      let h = H.make "test" in
      H.observe h v;
      (* The estimate is the bin's geometric midpoint; value and
         estimate share a log2 bin, so they are within a factor 2 of
         each other in either direction. *)
      let q = H.quantile h 0.99 in
      q < 2 * v && v < 2 * q)

let test_histogram_edges () =
  let h = H.make "edges" in
  check ci "empty quantile" 0 (H.quantile h 0.5);
  H.observe h 0;
  H.observe h (-3);
  check ci "non-positive values in bin 0" 0 (H.quantile h 1.0);
  check ci "count" 2 (H.count h);
  check ci "non-positive values add 0 to the sum" 0 (H.sum h);
  H.observe h 5;
  check ci "sum" 5 (H.sum h);
  H.reset h;
  check ci "reset clears" 0 (H.count h)

let test_histogram_registry () =
  let a = H.create "test_obs.registered" in
  let b = H.create "test_obs.registered" in
  H.observe a 7;
  check ci "interned by name" (H.count a) (H.count b);
  check cb "snapshots sees it"
    true
    (List.mem_assoc "test_obs.registered" (H.snapshots ()));
  H.reset a

(* --- Span tracing --- *)

let with_tracing f =
  Span.reset ();
  Span.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Span.set_enabled false;
      Span.reset ())
    f

let record_nested () =
  Span.with_span "outer" (fun () ->
      Span.with_span ~args:[ ("k", Span.Int 1) ] "inner_a" (fun () -> ());
      Span.with_span "inner_b" (fun () ->
          Span.with_span "leaf" (fun () -> ())))

let test_span_nesting () =
  let spans = with_tracing (fun () ->
      record_nested ();
      Span.export ())
  in
  check ci "four spans" 4 (List.length spans);
  (* Well-formedness: every non-root span lies inside some span one
     level up on the same domain. *)
  List.iter
    (fun (s : Span.span) ->
      if s.Span.depth > 0 then
        check cb (Printf.sprintf "%s has an enclosing parent" s.Span.name) true
          (List.exists
             (fun (p : Span.span) ->
               p.Span.tid = s.Span.tid
               && p.Span.depth = s.Span.depth - 1
               && p.Span.start_ns <= s.Span.start_ns
               && s.Span.start_ns + s.Span.dur_ns
                  <= p.Span.start_ns + p.Span.dur_ns)
             spans))
    spans;
  List.iter
    (fun (s : Span.span) -> check cb "non-negative dur" true (s.Span.dur_ns >= 0))
    spans

let test_span_disabled_records_nothing () =
  Span.reset ();
  check cb "disabled by default" false (Span.enabled ());
  record_nested ();
  check ci "nothing recorded when disabled" 0 (Span.count ())

let test_span_exception_safety () =
  let spans = with_tracing (fun () ->
      (try Span.with_span "raises" (fun () -> failwith "boom")
       with Failure _ -> ());
      Span.export ())
  in
  check ci "span closed on exception" 1 (List.length spans)

let test_span_set_capacity_validation () =
  List.iter
    (fun c ->
      match Span.set_capacity c with
      | () -> Alcotest.failf "set_capacity %d accepted" c
      | exception Invalid_argument _ -> ())
    [ 0; -1; min_int ]

let test_span_alloc_capture () =
  (* With alloc capture on, every span carries its GC word deltas:
     the child sees its own allocation and the parent's columns
     include the child's (allocation counters are monotone). *)
  let spans =
    with_tracing (fun () ->
        Span.set_alloc true;
        Fun.protect
          ~finally:(fun () -> Span.set_alloc false)
          (fun () ->
            Span.with_span "outer" (fun () ->
                Span.with_span "inner" (fun () ->
                    ignore (Sys.opaque_identity (Array.make 100 0.0))));
            Span.export ()))
  in
  let find n = List.find (fun (s : Span.span) -> s.Span.name = n) spans in
  let outer = find "outer" and inner = find "inner" in
  check cb "inner span sees its own allocation" true
    (inner.Span.minor_w >= 100);
  check cb "parent minor words include the child's" true
    (outer.Span.minor_w >= inner.Span.minor_w);
  check cb "major words are non-negative" true
    (outer.Span.major_w >= 0 && inner.Span.major_w >= 0)

let test_span_alloc_off_records_zero () =
  (* Alloc capture defaults to off; spans then carry all-zero alloc
     columns (and the exporter omits the args entirely, keeping
     alloc-off traces byte-stable). *)
  check cb "alloc capture off by default" false (Span.alloc_enabled ());
  let spans = with_tracing (fun () ->
      record_nested ();
      Span.export ())
  in
  List.iter
    (fun (s : Span.span) ->
      check ci (s.Span.name ^ ": minor words zero") 0 s.Span.minor_w;
      check ci (s.Span.name ^ ": major words zero") 0 s.Span.major_w)
    spans

(* --- JSON parser --- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("null", Json.Null);
        ("bool", Json.Bool true);
        ("int", Json.Int (-42));
        ("float", Json.Float 1.5);
        ("nan_becomes_null", Json.Float Float.nan);
        ("string", Json.String "a \"quoted\"\nline\twith \\ escapes");
        ("list", Json.List [ Json.Int 1; Json.Int 2; Json.Int 3 ]);
        ("nested", Json.Obj [ ("empty_list", Json.List []); ("empty_obj", Json.Obj []) ]);
      ]
  in
  let printed = Json.to_string ~pretty:true v in
  match Json.parse printed with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok parsed ->
      check Alcotest.string "print/parse/print fixpoint" printed
        (Json.to_string ~pretty:true parsed)

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "parse accepted %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\" 1}"; "tru"; "\"unterminated"; "1 2" ]

(* --- Chrome trace exporter --- *)

let test_chrome_trace_valid () =
  let spans = with_tracing (fun () ->
      record_nested ();
      Span.export ())
  in
  let contents = Obs.Chrome_trace.to_string ~pretty:true spans in
  match Obs.Chrome_trace.validate contents with
  (* + 1 for the always-emitted spans_dropped metadata event *)
  | Ok n -> check ci "one event per span" (List.length spans + 1) n
  | Error e -> Alcotest.failf "exporter output invalid: %s" e

let test_chrome_trace_rejects () =
  List.iter
    (fun s ->
      match Obs.Chrome_trace.validate s with
      | Ok _ -> Alcotest.failf "validate accepted %S" s
      | Error _ -> ())
    [
      "{}";
      "{\"traceEvents\": 3}";
      "{\"traceEvents\": [{\"ph\": \"X\"}]}";
      (* an X event missing dur *)
      "{\"traceEvents\": [{\"name\": \"a\", \"ph\": \"X\", \"ts\": 0, \
       \"pid\": 1, \"tid\": 0}]}";
    ]

let test_chrome_trace_deterministic_structure () =
  (* Same workload twice: identical event names in identical order once
     timestamps are ignored — the structural determinism the cram test
     relies on. *)
  let names () =
    with_tracing (fun () ->
        record_nested ();
        List.map (fun (s : Span.span) -> (s.Span.name, s.Span.depth))
          (Span.export ()))
  in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "stable (name, depth) sequence" (names ()) (names ())

(* --- Prometheus exporter --- *)

let test_prometheus_valid () =
  let h = H.make "test_obs.latency_ns" in
  List.iter (H.observe h) [ 10; 100; 1000; 10_000 ];
  let out =
    Obs.Prometheus.render
      ~counters:[ ("dp.merge_products", 42); ("dp.cells", 7) ]
      ~timers_seconds:[ ("dp.tables", 0.25) ]
      ~histograms:[ ("test_obs.latency_ns", h) ]
      ()
  in
  match Obs.Prometheus.validate out with
  | Ok samples -> check cb "has samples" true (samples > 0)
  | Error e -> Alcotest.failf "exposition invalid: %s\n%s" e out

let test_prometheus_name_mangling () =
  check Alcotest.string "dotted name" "replicaml_dp_power_cells"
    (Obs.Prometheus.metric_name "dp_power.cells");
  check Alcotest.string "hostile characters" "replicaml_a_b_c"
    (Obs.Prometheus.metric_name "a b-c")

let test_prometheus_rejects () =
  List.iter
    (fun s ->
      match Obs.Prometheus.validate s with
      | Ok _ -> Alcotest.failf "validate accepted %S" s
      | Error _ -> ())
    [
      "not a metric line\n";
      "metric_without_value\n";
      "9starts_with_digit 1\n";
      "# TYPE replicaml_x counter\n";
      (* TYPE with no samples *)
    ]

let test_prometheus_histogram_semantics () =
  (* The validator understands histogram families semantically, not
     just lexically: buckets must be cumulative and monotone in [le],
     end at +Inf, and agree with _count; only _bucket/_sum/_count
     samples may appear under a histogram TYPE. *)
  let hist body = "# TYPE replicaml_h histogram\n" ^ body in
  let ok =
    hist
      "replicaml_h_bucket{le=\"1\"} 2\n\
       replicaml_h_bucket{le=\"10\"} 5\n\
       replicaml_h_bucket{le=\"+Inf\"} 7\n\
       replicaml_h_sum 40\n\
       replicaml_h_count 7\n"
  in
  (match Obs.Prometheus.validate ok with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "rejected a well-formed histogram: %s" e);
  List.iter
    (fun (what, s) ->
      match Obs.Prometheus.validate (hist s) with
      | Ok _ -> Alcotest.failf "validate accepted histogram with %s" what
      | Error _ -> ())
    [
      ( "no +Inf bucket",
        "replicaml_h_bucket{le=\"1\"} 2\nreplicaml_h_sum 1\nreplicaml_h_count \
         2\n" );
      ( "non-cumulative buckets",
        "replicaml_h_bucket{le=\"1\"} 5\n\
         replicaml_h_bucket{le=\"10\"} 3\n\
         replicaml_h_bucket{le=\"+Inf\"} 5\n\
         replicaml_h_sum 9\n\
         replicaml_h_count 5\n" );
      ( "count disagreeing with the +Inf bucket",
        "replicaml_h_bucket{le=\"1\"} 2\n\
         replicaml_h_bucket{le=\"+Inf\"} 7\n\
         replicaml_h_sum 40\n\
         replicaml_h_count 8\n" );
      ( "a stray sample under the histogram TYPE",
        "replicaml_h_bucket{le=\"+Inf\"} 1\n\
         replicaml_h_sum 1\n\
         replicaml_h_count 1\n\
         replicaml_h_quantile 3\n" );
      ( "a bucket missing its le label",
        "replicaml_h_bucket 2\n\
         replicaml_h_bucket{le=\"+Inf\"} 2\n\
         replicaml_h_sum 1\n\
         replicaml_h_count 2\n" );
      ("no buckets at all", "replicaml_h_sum 1\nreplicaml_h_count 2\n");
    ]

(* --- Metrics registry --- *)

module M = Obs.Metrics

let find_sample name labels =
  List.find_opt
    (fun s -> s.M.s_name = name && s.M.s_labels = labels)
    (M.samples ())

let test_metrics_interning () =
  let a = M.counter ~labels:[ ("b", "2"); ("a", "1") ] "test_obs.m.reqs" in
  let b = M.counter ~labels:[ ("a", "1"); ("b", "2") ] "test_obs.m.reqs" in
  M.incr a;
  M.add b 2;
  (* Label order is irrelevant: both handles hit the same cell, and the
     exported label set is canonical (sorted). *)
  match find_sample "test_obs.m.reqs" [ ("a", "1"); ("b", "2") ] with
  | Some { M.s_value = M.Sample_counter v; _ } ->
      check (Alcotest.float 0.) "one cell behind both label orders" 3. v
  | _ -> Alcotest.fail "labeled counter missing from samples"

let test_metrics_kind_conflict () =
  ignore (M.gauge "test_obs.m.depth");
  match M.counter "test_obs.m.depth" with
  | _ -> Alcotest.fail "re-registering under another kind must fail"
  | exception Invalid_argument _ -> ()

let test_metrics_samples_sorted () =
  ignore (M.gauge ~labels:[ ("shard", "1") ] "test_obs.m.zz");
  ignore (M.gauge ~labels:[ ("shard", "0") ] "test_obs.m.zz");
  ignore (M.gauge "test_obs.m.aa");
  let keys =
    List.map (fun s -> M.sample_key s) (M.samples ())
  in
  check (Alcotest.list Alcotest.string) "samples arrive sorted"
    (List.sort compare keys) keys

let test_metrics_collector_bridge () =
  M.register_collector ~name:"test_obs.m.bridge" (fun () ->
      [
        {
          M.s_name = "test_obs.m.external";
          s_labels = [ ("src", "bridge") ];
          s_value = M.Sample_gauge 7.;
        };
      ]);
  (match find_sample "test_obs.m.external" [ ("src", "bridge") ] with
  | Some { M.s_value = M.Sample_gauge v; _ } ->
      check (Alcotest.float 0.) "collector row surfaces" 7. v
  | _ -> Alcotest.fail "collector sample missing");
  (* Re-registering under the same name replaces, not duplicates. *)
  M.register_collector ~name:"test_obs.m.bridge" (fun () -> []);
  check cb "replaced collector is gone" true
    (find_sample "test_obs.m.external" [ ("src", "bridge") ] = None)

let test_prometheus_expose_labeled () =
  M.set (M.gauge ~labels:[ ("solver", "dp-test") ] "test_obs.m.load") 1.5;
  let out = Obs.Prometheus.expose () in
  (match Obs.Prometheus.validate out with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "expose output invalid: %s\n%s" e out);
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check cb "label set rendered" true
    (contains "solver=\"dp-test\"" out)

(* --- Gc_stats --- *)

module Gs = Obs.Gc_stats

let test_gc_stats_samples () =
  let names = List.map (fun (s : M.sample) -> s.M.s_name) (Gs.samples ()) in
  List.iter
    (fun n -> check cb (n ^ " present") true (List.mem n names))
    [
      "gc.minor_words";
      "gc.promoted_words";
      "gc.major_words";
      "gc.minor_collections";
      "gc.major_collections";
      "gc.compactions";
      "gc.heap_words";
      "gc.top_heap_words";
    ];
  check cb "peak major heap is positive" true (Gs.peak_major_words () > 0);
  check cb "live words are positive" true (Gs.live_words () > 0)

let test_gc_stats_register_bridges () =
  Gs.register ();
  match
    List.find_opt
      (fun (s : M.sample) -> s.M.s_name = "gc.minor_words")
      (M.samples ())
  with
  | Some { M.s_value = M.Sample_counter v; _ } ->
      check cb "minor-words counter is live and positive" true (v > 0.)
  | _ -> Alcotest.fail "gc collector rows missing from the registry"

let test_gc_heap_counter_shape () =
  let c = Gs.heap_counter ~ts_ns:123 in
  check Alcotest.string "counter name" "gc.heap" c.Obs.Chrome_trace.c_name;
  check ci "timestamp carried through" 123 c.Obs.Chrome_trace.c_ts_ns;
  List.iter
    (fun k ->
      check cb (k ^ " tracked") true
        (List.mem_assoc k c.Obs.Chrome_trace.c_values))
    [ "heap_words"; "minor_words"; "major_words" ]

(* --- Timeseries --- *)

module Ts = Obs.Timeseries

let test_timeseries_validation () =
  (match Ts.create ~capacity:0 () with
  | _ -> Alcotest.fail "capacity 0 must be rejected"
  | exception Invalid_argument _ -> ());
  match Ts.create ~stride:0 () with
  | _ -> Alcotest.fail "stride 0 must be rejected"
  | exception Invalid_argument _ -> ()

let test_timeseries_counter_deltas () =
  let c = M.counter "test_obs.ts.work" in
  let ts = Ts.create () in
  Ts.sample ts ~epoch:1;
  M.add c 5;
  Ts.sample ts ~epoch:2;
  M.add c 2;
  Ts.sample ts ~epoch:3;
  let deltas =
    List.filter_map
      (fun (e, v) -> if e >= 2 then Some (e, v) else None)
      (Ts.series ts "test_obs.ts.work")
  in
  check
    (Alcotest.list (Alcotest.pair ci (Alcotest.float 0.)))
    "counters report per-interval deltas"
    [ (2, 5.); (3, 2.) ]
    deltas

let test_timeseries_ring_and_stride () =
  let ts = Ts.create ~capacity:2 ~stride:2 () in
  List.iter (fun e -> Ts.sample ts ~epoch:e) [ 1; 2; 3; 4; 5 ];
  (* Stride 2 records epochs 1, 3, 5; capacity 2 drops the oldest. *)
  check (Alcotest.list ci) "ring keeps the newest strided epochs" [ 3; 5 ]
    (List.map (fun p -> p.Ts.pt_epoch) (Ts.points ts))

let test_timeseries_stride_beyond_run () =
  (* A stride longer than the run still records the first sample —
     the due check is "samples taken so far", not the epoch number. *)
  let ts = Ts.create ~stride:10 () in
  List.iter (fun e -> Ts.sample ts ~epoch:e) [ 1; 2; 3; 4; 5 ];
  check (Alcotest.list ci) "only the first epoch is due" [ 1 ]
    (List.map (fun p -> p.Ts.pt_epoch) (Ts.points ts))

let test_timeseries_wrap_at_capacity () =
  let ts = Ts.create ~capacity:3 () in
  List.iter (fun e -> Ts.sample ts ~epoch:e) [ 1; 2; 3 ];
  check (Alcotest.list ci) "an exactly-full ring keeps everything" [ 1; 2; 3 ]
    (List.map (fun p -> p.Ts.pt_epoch) (Ts.points ts));
  Ts.sample ts ~epoch:4;
  check (Alcotest.list ci) "one past capacity evicts only the oldest"
    [ 2; 3; 4 ]
    (List.map (fun p -> p.Ts.pt_epoch) (Ts.points ts))

let ts_wrap_id = ref 0

let prop_timeseries_deltas_across_wrap =
  qcheck_case "timeseries: counter deltas stay exact across ring wrap"
    QCheck2.Gen.(list_size (int_range 1 24) (int_range 0 100))
    (fun increments ->
      (* Fresh counter per case: the delta baseline is per-series. *)
      incr ts_wrap_id;
      let name = Printf.sprintf "test_obs.ts.wrap%d" !ts_wrap_id in
      let c = M.counter name in
      let ts = Ts.create ~capacity:4 () in
      List.iteri
        (fun i inc ->
          M.add c inc;
          Ts.sample ts ~epoch:(i + 1))
        increments;
      (* Retained points report exactly the increment applied before
         their sample, even after eviction rotated the ring. *)
      let expected =
        List.filteri
          (fun i _ -> i >= List.length increments - 4)
          (List.mapi (fun i inc -> (i + 1, float_of_int inc)) increments)
      in
      Ts.series ts name = expected)

let test_timeseries_openmetrics_validates () =
  let ts = Ts.create () in
  Ts.sample ts ~epoch:1;
  Ts.sample ts ~epoch:2;
  match Obs.Prometheus.validate (Ts.to_openmetrics ts) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "openmetrics export invalid: %s" e

(* --- Flight recorder --- *)

module Fr = Obs.Flight_recorder

let test_flight_recorder_validation () =
  match Fr.create ~k:(-1.) ~path:"/dev/null" () with
  | _ -> Alcotest.fail "negative k must be rejected"
  | exception Invalid_argument _ -> ()

let test_flight_recorder_k0_dumps_every_epoch () =
  let path = Filename.temp_file "test_obs_fr" ".json" in
  let fr = Fr.create ~k:0.0 ~path () in
  with_tracing (fun () ->
      for e = 1 to 3 do
        Span.with_span "epoch" (fun () -> ());
        check cb "k=0 dumps each epoch" true
          (Fr.record fr ~epoch:e ~latency_ns:(1_000 * e))
      done);
  check ci "three dumps" 3 (Fr.dumps fr);
  check (Alcotest.option ci) "last dump epoch" (Some 3) (Fr.last_dump_epoch fr);
  (match Obs.Trace_reader.of_file path with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "dump is not a readable trace: %s" e);
  Sys.remove path

let test_flight_recorder_anomaly_threshold () =
  let path = Filename.temp_file "test_obs_fr" ".json" in
  let fr = Fr.create ~k:3.0 ~path () in
  with_tracing (fun () ->
      (* Steady baseline: never anomalous, and no dump before five
         latencies are banked regardless. *)
      for e = 1 to 8 do
        Span.with_span "epoch" (fun () -> ());
        check cb "steady epoch never dumps" false
          (Fr.record fr ~epoch:e ~latency_ns:1_000)
      done;
      Span.with_span "spike" (fun () -> ());
      check cb "4x the median dumps" true
        (Fr.record fr ~epoch:9 ~latency_ns:4_000));
  check ci "exactly one dump" 1 (Fr.dumps fr);
  Sys.remove path

(* --- Bench history: trend --- *)

let obs_envelope guard =
  Json.Obj
    [
      ("schema_version", Json.Int Json.schema_version);
      ("bench", Json.String "obs");
      ("guard_ns_per_check", Json.Float guard);
    ]

let test_trend_direction () =
  let history = List.map obs_envelope [ 5.; 4.; 3. ] in
  match Obs.Bench_history.trend ~kind:"obs" history with
  | Error e -> Alcotest.failf "trend failed: %s" e
  | Ok r ->
      check ci "window holds all runs" 3 r.Obs.Bench_history.t_runs;
      let tm =
        List.find
          (fun m -> m.Obs.Bench_history.tm_metric = "guard_ns_per_check")
          r.Obs.Bench_history.t_metrics
      in
      check cb "falling lower-better metric improves" true
        (tm.Obs.Bench_history.tm_verdict = "improving");
      check cb "slope is negative" true (tm.Obs.Bench_history.tm_slope < 0.)

let test_trend_needs_two_runs () =
  match Obs.Bench_history.trend ~kind:"obs" [ obs_envelope 5. ] with
  | Ok _ -> Alcotest.fail "one run cannot trend"
  | Error _ -> ()

(* --- Stats_counters: snapshot/diff and the monotonic clock --- *)

let test_snapshot_diff () =
  let c = Stats_counters.counter "test_obs.diff_counter" in
  let before = Stats_counters.snapshot () in
  Stats_counters.add c 5;
  Stats_counters.incr c;
  let after = Stats_counters.snapshot () in
  let d = Stats_counters.diff before after in
  check ci "delta attributed" 6 (List.assoc "test_obs.diff_counter" d);
  check cb "zero deltas omitted" false
    (List.exists (fun (_, v) -> v = 0) d);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string ci))
    "quiescent diff is empty" []
    (Stats_counters.diff after (Stats_counters.snapshot ()))

let test_diff_counts_new_counters_from_zero () =
  let before = Stats_counters.snapshot () in
  let c = Stats_counters.counter "test_obs.registered_later" in
  Stats_counters.add c 3;
  let d = Stats_counters.diff before (Stats_counters.snapshot ()) in
  check ci "absent in before counts from 0" 3
    (List.assoc "test_obs.registered_later" d)

let test_timer_seconds_non_negative () =
  (* Regression: timers once used Unix.gettimeofday, which an NTP step
     can pull backwards mid-measurement; on the monotonic clock elapsed
     time can never be negative. *)
  let t = Stats_counters.timer "test_obs.timer" in
  for _ = 1 to 100 do
    Stats_counters.time t (fun () -> Sys.opaque_identity (Sys.opaque_identity 0))
    |> ignore
  done;
  check cb "accumulated seconds >= 0" true (Stats_counters.seconds t >= 0.)

let test_clock_monotone () =
  let rec loop prev n =
    if n > 0 then begin
      let now = Obs.Clock.now_ns () in
      check cb "clock never goes backwards" true (now >= prev);
      loop now (n - 1)
    end
  in
  loop (Obs.Clock.now_ns ()) 1000

let () =
  Alcotest.run "obs"
    [
      ( "histogram",
        [
          prop_each_observation_in_one_bin;
          prop_quantiles_monotone;
          prop_quantile_brackets_value;
          Alcotest.test_case "edge cases" `Quick test_histogram_edges;
          Alcotest.test_case "registry" `Quick test_histogram_registry;
        ] );
      ( "span",
        [
          Alcotest.test_case "nesting well-formed" `Quick test_span_nesting;
          Alcotest.test_case "disabled records nothing" `Quick
            test_span_disabled_records_nothing;
          Alcotest.test_case "exception safety" `Quick
            test_span_exception_safety;
          Alcotest.test_case "set_capacity rejects non-positive" `Quick
            test_span_set_capacity_validation;
          Alcotest.test_case "alloc capture attributes words" `Quick
            test_span_alloc_capture;
          Alcotest.test_case "alloc off records zeros" `Quick
            test_span_alloc_off_records_zero;
        ] );
      ( "gc-stats",
        [
          Alcotest.test_case "samples cover the gc axis" `Quick
            test_gc_stats_samples;
          Alcotest.test_case "register bridges into metrics" `Quick
            test_gc_stats_register_bridges;
          Alcotest.test_case "heap counter shape" `Quick
            test_gc_heap_counter_shape;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
        ] );
      ( "chrome-trace",
        [
          Alcotest.test_case "exporter validates" `Quick test_chrome_trace_valid;
          Alcotest.test_case "rejects malformed" `Quick
            test_chrome_trace_rejects;
          Alcotest.test_case "structurally deterministic" `Quick
            test_chrome_trace_deterministic_structure;
        ] );
      ( "prometheus",
        [
          Alcotest.test_case "exposition validates" `Quick test_prometheus_valid;
          Alcotest.test_case "name mangling" `Quick test_prometheus_name_mangling;
          Alcotest.test_case "rejects malformed" `Quick test_prometheus_rejects;
          Alcotest.test_case "histogram family semantics" `Quick
            test_prometheus_histogram_semantics;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "labeled interning" `Quick test_metrics_interning;
          Alcotest.test_case "kind conflict rejected" `Quick
            test_metrics_kind_conflict;
          Alcotest.test_case "samples sorted" `Quick test_metrics_samples_sorted;
          Alcotest.test_case "collector bridge" `Quick
            test_metrics_collector_bridge;
          Alcotest.test_case "expose renders labels" `Quick
            test_prometheus_expose_labeled;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "rejects bad sizes" `Quick
            test_timeseries_validation;
          Alcotest.test_case "counter deltas" `Quick
            test_timeseries_counter_deltas;
          Alcotest.test_case "ring and stride" `Quick
            test_timeseries_ring_and_stride;
          Alcotest.test_case "stride beyond the run" `Quick
            test_timeseries_stride_beyond_run;
          Alcotest.test_case "wrap at exactly capacity" `Quick
            test_timeseries_wrap_at_capacity;
          prop_timeseries_deltas_across_wrap;
          Alcotest.test_case "openmetrics validates" `Quick
            test_timeseries_openmetrics_validates;
        ] );
      ( "flight-recorder",
        [
          Alcotest.test_case "rejects bad config" `Quick
            test_flight_recorder_validation;
          Alcotest.test_case "k=0 dumps every epoch" `Quick
            test_flight_recorder_k0_dumps_every_epoch;
          Alcotest.test_case "anomaly threshold" `Quick
            test_flight_recorder_anomaly_threshold;
        ] );
      ( "bench-history",
        [
          Alcotest.test_case "trend direction" `Quick test_trend_direction;
          Alcotest.test_case "trend needs two runs" `Quick
            test_trend_needs_two_runs;
        ] );
      ( "stats-counters",
        [
          Alcotest.test_case "snapshot/diff" `Quick test_snapshot_diff;
          Alcotest.test_case "diff counts new counters from 0" `Quick
            test_diff_counts_new_counters_from_zero;
          Alcotest.test_case "timer seconds non-negative" `Quick
            test_timer_seconds_non_negative;
          Alcotest.test_case "monotonic clock" `Quick test_clock_monotone;
        ] );
    ]
