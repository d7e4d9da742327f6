(* The profile-analysis layer: Trace_reader forest reconstruction,
   Profile self-time aggregation and folded stacks, Critical_path
   extraction, and the Bench_history regression gate. *)

open Helpers
module Obs = Replica_obs
module Span = Obs.Span
module Json = Obs.Json
module TR = Obs.Trace_reader
module BH = Obs.Bench_history

(* --- well-formed span forest generator --- *)

(* A spec tree carries only structure and durations; [spans_of_spec]
   places children sequentially inside the parent with 1 ns gaps, so
   the resulting span list is well-formed by construction: children
   are disjoint and strictly contained, and every node has positive
   self time. *)
type spec = { s_dur : int; s_children : spec list }

let spec_dur children slack =
  slack + List.length children
  + List.fold_left (fun a c -> a + c.s_dur) 0 children

let spec_gen =
  let open QCheck2.Gen in
  sized_size (int_range 0 40) @@ fix (fun self n ->
      if n <= 0 then
        map (fun d -> { s_dur = d; s_children = [] }) (int_range 1 1000)
      else
        int_range 0 3 >>= fun k ->
        list_size (return k) (self (n / 4)) >>= fun children ->
        map
          (fun slack -> { s_dur = spec_dur children slack; s_children = children })
          (int_range 1 1000))

let spans_of_spec root =
  let acc = ref [] in
  let fresh =
    let c = ref 0 in
    fun () -> incr c; !c
  in
  let rec place start depth spec =
    let name = Printf.sprintf "f%d_%d" depth (fresh () mod 3) in
    (* Synthetic alloc columns derived from the durations: a span's
       words are 2x its ns, so parents strictly include their children
       on the alloc axis too and the self-alloc partition telescopes to
       2x the root duration. *)
    acc :=
      {
        Span.name;
        start_ns = start;
        dur_ns = spec.s_dur;
        tid = 0;
        depth = 0;
        minor_w = 2 * spec.s_dur;
        major_w = spec.s_dur / 2;
        args = [];
      }
      :: !acc;
    let cursor = ref (start + 1) in
    List.iter
      (fun c ->
        place !cursor (depth + 1) c;
        cursor := !cursor + c.s_dur + 1)
      spec.s_children
  in
  place 1000 0 root;
  !acc

let root_of_spec spec =
  match TR.forest_of_spans (spans_of_spec spec) with
  | [ root ] -> root
  | roots -> Alcotest.failf "expected one root, got %d" (List.length roots)

(* --- Trace_reader --- *)

let prop_forest_reconstruction =
  qcheck_case "trace_reader: one root, every span placed, wall = root dur"
    spec_gen (fun spec ->
      let spans = spans_of_spec spec in
      let root = root_of_spec spec in
      TR.fold (fun n _ -> n + 1) 0 [ root ] = List.length spans
      && TR.wall_ns [ root ] = spec.s_dur)

let prop_roundtrip_through_chrome_trace =
  qcheck_case "trace_reader: chrome-trace JSON roundtrip preserves the forest"
    spec_gen (fun spec ->
      let spans = spans_of_spec spec in
      let contents = Obs.Chrome_trace.to_string ~dropped:3 spans in
      match TR.of_string contents with
      | Error e -> QCheck2.Test.fail_reportf "roundtrip failed: %s" e
      | Ok t ->
          t.TR.span_count = List.length spans
          && t.TR.dropped = 3
          && Obs.Profile.folded t.TR.roots
             = Obs.Profile.folded [ root_of_spec spec ]
          (* The alloc columns ride through the JSON as reserved args
             keys; the roundtrip must preserve them exactly. *)
          && TR.total_minor_w t.TR.roots = 2 * spec.s_dur
          && Obs.Profile.folded_alloc t.TR.roots
             = Obs.Profile.folded_alloc [ root_of_spec spec ])

let test_reader_rejects_invalid () =
  (match TR.of_string "{\"traceEvents\": 1}" with
  | Ok _ -> Alcotest.fail "accepted malformed trace"
  | Error _ -> ());
  match TR.of_string "not json" with
  | Ok _ -> Alcotest.fail "accepted garbage"
  | Error _ -> ()

let test_reader_parallel_tids () =
  (* Overlapping intervals on different tids are separate trees, not
     nested. *)
  let sp name start dur tid =
    {
      Span.name;
      start_ns = start;
      dur_ns = dur;
      tid;
      depth = 0;
      minor_w = 0;
      major_w = 0;
      args = [];
    }
  in
  let roots =
    TR.forest_of_spans [ sp "a" 0 100 1; sp "b" 10 50 2; sp "c" 10 50 1 ]
  in
  check ci "two roots" 2 (List.length roots);
  let a = List.find (fun n -> n.TR.span.Span.name = "a") roots in
  check ci "c nested under a" 1 (List.length a.TR.children)

(* --- Profile --- *)

let prop_self_times_partition_wall =
  qcheck_case "profile: self times sum exactly to root wall time" spec_gen
    (fun spec ->
      let root = root_of_spec spec in
      let rows = Obs.Profile.rows [ root ] in
      List.fold_left (fun a (r : Obs.Profile.row) -> a + r.Obs.Profile.self_ns)
        0 rows
      = spec.s_dur)

let prop_folded_weights_partition_wall =
  qcheck_case "profile: folded stack weights sum to root wall time" spec_gen
    (fun spec ->
      let root = root_of_spec spec in
      let total =
        Obs.Profile.folded [ root ]
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
        |> List.fold_left
             (fun acc line ->
               match String.rindex_opt line ' ' with
               | Some i ->
                   acc
                   + int_of_string
                       (String.sub line (i + 1) (String.length line - i - 1))
               | None -> acc)
             0
      in
      total = spec.s_dur)

let prop_self_alloc_partitions_total =
  qcheck_case
    "profile: self minor words sum exactly to the root's minor words"
    spec_gen (fun spec ->
      let root = root_of_spec spec in
      let rows = Obs.Profile.rows [ root ] in
      List.fold_left
        (fun a (r : Obs.Profile.row) -> a + r.Obs.Profile.self_minor_w)
        0 rows
      = 2 * spec.s_dur)

let prop_folded_alloc_weights_partition_total =
  qcheck_case "profile: folded alloc weights sum to the root's minor words"
    spec_gen (fun spec ->
      let root = root_of_spec spec in
      let total =
        Obs.Profile.folded_alloc [ root ]
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
        |> List.fold_left
             (fun acc line ->
               match String.rindex_opt line ' ' with
               | Some i ->
                   acc
                   + int_of_string
                       (String.sub line (i + 1) (String.length line - i - 1))
               | None -> acc)
             0
      in
      total = 2 * spec.s_dur)

let test_folded_shape () =
  let sp ?(minor = 0) name start dur =
    {
      Span.name;
      start_ns = start;
      dur_ns = dur;
      tid = 0;
      depth = 0;
      minor_w = minor;
      major_w = 0;
      args = [];
    }
  in
  let roots = TR.forest_of_spans [ sp "root" 0 100; sp "leaf" 10 40 ] in
  check Alcotest.string "folded lines" "root 60\nroot;leaf 40\n"
    (Obs.Profile.folded roots);
  (* Alloc-weighted twin: weights come from minor words, not ns. *)
  let aroots =
    TR.forest_of_spans
      [ sp ~minor:100 "root" 0 100; sp ~minor:30 "leaf" 10 40 ]
  in
  check Alcotest.string "folded alloc lines" "root 70\nroot;leaf 30\n"
    (Obs.Profile.folded_alloc aroots);
  (* Spans recorded without alloc capture fold to nothing (all-zero
     self weights are skipped, same as zero self time). *)
  check Alcotest.string "alloc-off trace folds empty" ""
    (Obs.Profile.folded_alloc roots)

let test_alloc_table_shape () =
  let sp ?(minor = 0) name start dur =
    {
      Span.name;
      start_ns = start;
      dur_ns = dur;
      tid = 0;
      depth = 0;
      minor_w = minor;
      major_w = 0;
      args = [];
    }
  in
  let roots =
    TR.forest_of_spans
      [ sp ~minor:1000 "root" 0 100; sp ~minor:250 "leaf" 10 40 ]
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  let table = Obs.Profile.alloc_table roots in
  check cb "header present" true (contains table "minor(w)");
  check cb "root row present" true (contains table "root");
  check cb "leaf self percentage (250/1000)" true (contains table "25.0%");
  (* k=1 truncates and says so. *)
  let top1 = Obs.Profile.alloc_table ~k:1 roots in
  check cb "truncation footer" true (contains top1 "1 more span name")

(* --- Critical_path --- *)

let prop_critical_path_invariants =
  qcheck_case
    "critical_path: total = root dur, >= every phase, contributions >= 0"
    spec_gen (fun spec ->
      let root = root_of_spec spec in
      let steps = Obs.Critical_path.of_node root in
      let total = Obs.Critical_path.total_ns steps in
      steps <> []
      && total = spec.s_dur
      && total <= root.TR.span.Span.dur_ns
      && List.for_all
           (fun (s : Obs.Critical_path.step) ->
             s.Obs.Critical_path.dur_ns <= total
             && s.Obs.Critical_path.contribution_ns >= 0)
           steps)

let prop_critical_path_alloc_telescopes =
  qcheck_case
    "critical_path: alloc contributions telescope to the root's minor words"
    spec_gen (fun spec ->
      let root = root_of_spec spec in
      let steps = Obs.Critical_path.of_node root in
      Obs.Critical_path.total_minor_w steps = 2 * spec.s_dur
      && List.for_all
           (fun (s : Obs.Critical_path.step) ->
             s.Obs.Critical_path.contribution_minor_w >= 0)
           steps)

let test_critical_path_picks_widest_child () =
  let sp ?(minor = 0) name start dur =
    {
      Span.name;
      start_ns = start;
      dur_ns = dur;
      tid = 0;
      depth = 0;
      minor_w = minor;
      major_w = 0;
      args = [];
    }
  in
  let roots =
    TR.forest_of_spans
      [ sp "root" 0 100; sp "small" 5 20; sp "big" 30 60; sp "inner" 35 10 ]
  in
  let steps = Obs.Critical_path.longest roots in
  check
    (Alcotest.list Alcotest.string)
    "path descends through the longest child at each level"
    [ "root"; "big"; "inner" ]
    (List.map (fun (s : Obs.Critical_path.step) -> s.Obs.Critical_path.name)
       steps);
  check ci "contributions telescope to the root duration" 100
    (Obs.Critical_path.total_ns steps)

(* --- Bench_history --- *)

let obs_artifact ~spans ~overhead =
  Json.Obj
    [
      ("schema_version", Json.Int Json.schema_version);
      ("bench", Json.String "obs");
      ("spans_per_solve", Json.Int spans);
      ("tracing_on_overhead_percent", Json.Float overhead);
    ]

let dp_artifact ~products =
  Json.Obj
    [
      ("schema_version", Json.Int Json.schema_version);
      ("bench", Json.String "dp_power");
      ( "pruned",
        Json.Obj
          [
            ("power", Json.Float 550.);
            ("cost", Json.Float 4.3);
            ("dp_power.merge_products", Json.Int products);
          ] );
    ]

let diff_exn ?rel_tol ~baseline ~current () =
  match BH.diff ?rel_tol ~baseline ~current () with
  | Ok r -> r
  | Error e -> Alcotest.failf "diff failed: %s" e

let test_bench_diff_flags_count_regression () =
  (* A 20% jump in a deterministic count metric must hard-fail. *)
  let r =
    diff_exn ~baseline:(dp_artifact ~products:100)
      ~current:(dp_artifact ~products:120) ()
  in
  check ci "one hard regression" 1 r.BH.hard_regressions;
  check ci "no warnings" 0 r.BH.soft_regressions;
  let c =
    List.find
      (fun (c : BH.comparison) -> c.BH.metric = "pruned.dp_power.merge_products")
      r.BH.comparisons
  in
  check cb "status regressed" true (c.BH.status = BH.Regressed);
  check (Alcotest.float 1e-6) "delta percent" 20. c.BH.delta_pct

let test_bench_diff_accepts_equal_and_improved () =
  let r =
    diff_exn ~baseline:(dp_artifact ~products:100)
      ~current:(dp_artifact ~products:100) ()
  in
  check ci "equal run: no hard regressions" 0 r.BH.hard_regressions;
  (* merge_products is an Exact replay-identity metric: any drift gates,
     even a decrease — fewer products means the solver no longer
     enumerates the same product set as the baseline. *)
  let r =
    diff_exn ~baseline:(dp_artifact ~products:100)
      ~current:(dp_artifact ~products:80) ()
  in
  check ci "merge product drift gates even when it shrinks" 1
    r.BH.hard_regressions

let test_bench_diff_noise_floor () =
  (* Timing-ish metric: +60% relative but within the 2-point absolute
     floor -> unchanged; beyond both -> soft regression only. *)
  let r =
    diff_exn ~baseline:(obs_artifact ~spans:200 ~overhead:1.0)
      ~current:(obs_artifact ~spans:200 ~overhead:1.6) ()
  in
  check ci "jitter under the absolute floor is not a regression" 0
    (r.BH.hard_regressions + r.BH.soft_regressions);
  let r =
    diff_exn ~baseline:(obs_artifact ~spans:200 ~overhead:1.0)
      ~current:(obs_artifact ~spans:200 ~overhead:8.0) ()
  in
  check ci "real timing regressions only warn" 0 r.BH.hard_regressions;
  check ci "but are counted" 1 r.BH.soft_regressions;
  (* The exact-match count metric still gates. *)
  let r =
    diff_exn ~baseline:(obs_artifact ~spans:200 ~overhead:1.0)
      ~current:(obs_artifact ~spans:201 ~overhead:1.0) ()
  in
  check ci "span count drift is a hard regression" 1 r.BH.hard_regressions

let test_bench_diff_threshold_override () =
  let base = obs_artifact ~spans:200 ~overhead:2.0 in
  let cur = obs_artifact ~spans:200 ~overhead:6.0 in
  let strict = diff_exn ~rel_tol:0.1 ~baseline:base ~current:cur () in
  check ci "tight threshold flags it" 1 strict.BH.soft_regressions;
  let lax = diff_exn ~rel_tol:5.0 ~baseline:base ~current:cur () in
  check ci "loose threshold accepts it" 0 lax.BH.soft_regressions

let test_bench_diff_rejects_mismatches () =
  let reject name baseline current =
    match BH.diff ~baseline ~current () with
    | Ok _ -> Alcotest.failf "%s: diff accepted mismatched artifacts" name
    | Error _ -> ()
  in
  reject "kind" (obs_artifact ~spans:1 ~overhead:0.)
    (dp_artifact ~products:1);
  reject "schema"
    (Json.Obj
       [
         ("schema_version", Json.Int (Json.schema_version + 1));
         ("bench", Json.String "obs");
       ])
    (obs_artifact ~spans:1 ~overhead:0.);
  reject "unknown kind"
    (Json.Obj
       [
         ("schema_version", Json.Int Json.schema_version);
         ("bench", Json.String "mystery");
       ])
    (Json.Obj
       [
         ("schema_version", Json.Int Json.schema_version);
         ("bench", Json.String "mystery");
       ])

let obs_alloc_artifact ~disabled_words ~alloc_bytes =
  Json.Obj
    [
      ("schema_version", Json.Int Json.schema_version);
      ("bench", Json.String "obs");
      ("spans_per_solve", Json.Int 200);
      ("tracing_on_overhead_percent", Json.Float 1.0);
      ("alloc_disabled_minor_words", Json.Int disabled_words);
      ("allocated_bytes_per_solve", Json.Float alloc_bytes);
    ]

let test_bench_diff_gates_alloc_metrics () =
  (* The disabled span path allocating at all is a hard, exact gate. *)
  let r =
    diff_exn
      ~baseline:(obs_alloc_artifact ~disabled_words:0 ~alloc_bytes:1e6)
      ~current:(obs_alloc_artifact ~disabled_words:16 ~alloc_bytes:1e6) ()
  in
  check ci "allocation on the disabled path is a hard regression" 1
    r.BH.hard_regressions;
  (* allocated_bytes_per_solve is directional and noise-aware. *)
  let r =
    diff_exn
      ~baseline:(obs_alloc_artifact ~disabled_words:0 ~alloc_bytes:10e6)
      ~current:(obs_alloc_artifact ~disabled_words:0 ~alloc_bytes:10.5e6) ()
  in
  check ci "alloc jitter within tolerance passes" 0
    (r.BH.hard_regressions + r.BH.soft_regressions);
  let r =
    diff_exn
      ~baseline:(obs_alloc_artifact ~disabled_words:0 ~alloc_bytes:10e6)
      ~current:(obs_alloc_artifact ~disabled_words:0 ~alloc_bytes:13e6) ()
  in
  check ci "a 30% alloc growth is a soft regression" 1 r.BH.soft_regressions;
  check ci "but not a hard one" 0 r.BH.hard_regressions;
  let r =
    diff_exn
      ~baseline:(obs_alloc_artifact ~disabled_words:0 ~alloc_bytes:10e6)
      ~current:(obs_alloc_artifact ~disabled_words:0 ~alloc_bytes:5e6) ()
  in
  check ci "allocating less never regresses" 0
    (r.BH.hard_regressions + r.BH.soft_regressions)

let test_bench_diff_missing_metrics_reported () =
  let r =
    diff_exn
      ~baseline:(dp_artifact ~products:100)
      ~current:(dp_artifact ~products:100) ()
  in
  check cb "specs absent from the artifact are listed, not errors" true
    (List.mem "merge_products_ratio" r.BH.missing)

let test_bench_diff_dropped_hard_metric_fails () =
  (* [merge_minor_words] is a hard Exact spec; recorded on one side only
     it fails the gate whichever side lacks it. *)
  let plain = dp_artifact ~products:100 in
  let with_field name v =
    match plain with
    | Json.Obj fields -> Json.Obj (fields @ [ (name, v) ])
    | _ -> assert false
  in
  let with_words = with_field "merge_minor_words" (Json.Int 0) in
  let r = diff_exn ~baseline:with_words ~current:plain () in
  check ci "dropped from current" 1 r.BH.hard_regressions;
  check cb "named with the side lacking it" true
    (r.BH.dropped = [ ("merge_minor_words", "current") ]);
  check cb "not a mere note" false (List.mem "merge_minor_words" r.BH.missing);
  let r = diff_exn ~baseline:plain ~current:with_words () in
  check cb "absent from the baseline" true
    (r.BH.dropped = [ ("merge_minor_words", "baseline") ]
    && r.BH.hard_regressions = 1);
  (* Soft metrics on one side, and hard ones on neither, stay notes. *)
  let with_ratio = with_field "merge_products_ratio" (Json.Float 1.3) in
  let r = diff_exn ~baseline:with_ratio ~current:plain () in
  check ci "soft spec on one side does not gate" 0 r.BH.hard_regressions;
  check cb "listed instead" true
    (List.mem "merge_products_ratio" r.BH.missing
    && List.mem "merge_minor_words" r.BH.missing)

let () =
  Alcotest.run "profile"
    [
      ( "trace-reader",
        [
          prop_forest_reconstruction;
          prop_roundtrip_through_chrome_trace;
          Alcotest.test_case "rejects invalid input" `Quick
            test_reader_rejects_invalid;
          Alcotest.test_case "parallel tids stay separate trees" `Quick
            test_reader_parallel_tids;
        ] );
      ( "profile",
        [
          prop_self_times_partition_wall;
          prop_folded_weights_partition_wall;
          prop_self_alloc_partitions_total;
          prop_folded_alloc_weights_partition_total;
          Alcotest.test_case "folded output shape" `Quick test_folded_shape;
          Alcotest.test_case "alloc table shape" `Quick test_alloc_table_shape;
        ] );
      ( "critical-path",
        [
          prop_critical_path_invariants;
          prop_critical_path_alloc_telescopes;
          Alcotest.test_case "descends the widest child" `Quick
            test_critical_path_picks_widest_child;
        ] );
      ( "bench-history",
        [
          Alcotest.test_case "flags an injected 20% count regression" `Quick
            test_bench_diff_flags_count_regression;
          Alcotest.test_case "accepts equal and improved runs" `Quick
            test_bench_diff_accepts_equal_and_improved;
          Alcotest.test_case "noise floor and soft severity" `Quick
            test_bench_diff_noise_floor;
          Alcotest.test_case "threshold override" `Quick
            test_bench_diff_threshold_override;
          Alcotest.test_case "rejects mismatched artifacts" `Quick
            test_bench_diff_rejects_mismatches;
          Alcotest.test_case "gates the alloc metrics" `Quick
            test_bench_diff_gates_alloc_metrics;
          Alcotest.test_case "missing metrics reported" `Quick
            test_bench_diff_missing_metrics_reported;
          Alcotest.test_case "dropped hard metric fails" `Quick
            test_bench_diff_dropped_hard_metric_fails;
        ] );
    ]
