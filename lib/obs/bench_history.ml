type direction = Lower_better | Higher_better | Exact
type severity = Hard | Soft

type spec = {
  path : string list;
  direction : direction;
  severity : severity;
  rel_tol : float;
  abs_floor : float;
}

let hard path direction = { path; direction; severity = Hard; rel_tol = 0.; abs_floor = 0. }

let soft path direction ~rel_tol ~abs_floor =
  { path; direction; severity = Soft; rel_tol; abs_floor }

(* One spec list per artifact kind. Hard metrics are deterministic for
   a fixed seed (counters, optima, placements); soft ones are
   wall-clock and only warn. *)
let specs_for = function
  | "dp_power" ->
      [
        hard [ "unpruned"; "power" ] Exact;
        hard [ "unpruned"; "cost" ] Exact;
        hard [ "pruned"; "power" ] Exact;
        hard [ "pruned"; "cost" ] Exact;
        hard [ "pruned"; "servers" ] Exact;
        (* The DP's work counters are bit-deterministic for a fixed
           seed, at any domain count and on either key representation
           (the packed traversal or its over-budget int-array
           fallback), so they pin exactly — any drift means the set
           semantics of the merge changed. *)
        hard [ "unpruned"; "dp_power.merge_products" ] Exact;
        hard [ "pruned"; "dp_power.merge_products" ] Exact;
        hard [ "unpruned"; "dp_power.cells_created" ] Exact;
        hard [ "pruned"; "dp_power.cells_created" ] Exact;
        hard [ "pruned"; "dp_power.peak_table_size" ] Lower_better;
        (* Zero-allocation gate for the packed merge kernels. *)
        hard [ "merge_minor_words" ] Exact;
        soft [ "merge_products_ratio" ] Higher_better ~rel_tol:0.10
          ~abs_floor:0.25;
        soft
          [ "unpruned"; "dp_power.tables.seconds" ]
          Lower_better ~rel_tol:0.25 ~abs_floor:0.002;
        soft
          [ "pruned"; "dp_power.tables.seconds" ]
          Lower_better ~rel_tol:0.25 ~abs_floor:0.002;
        (* Memory axis: bytes are near-deterministic for a fixed seed
           but shift with compiler/runtime versions, so they gate
           directionally rather than exactly. *)
        soft
          [ "unpruned"; "allocated_bytes_per_solve" ]
          Lower_better ~rel_tol:0.10 ~abs_floor:100_000.;
        soft
          [ "pruned"; "allocated_bytes_per_solve" ]
          Lower_better ~rel_tol:0.10 ~abs_floor:100_000.;
        soft [ "peak_major_words" ] Lower_better ~rel_tol:0.5
          ~abs_floor:500_000.;
      ]
  | "engine" ->
      [
        hard [ "placements_identical" ] Exact;
        hard [ "full"; "reconfigurations" ] Exact;
        hard [ "incremental"; "reconfigurations" ] Exact;
        hard [ "full"; "total_cost" ] Exact;
        hard [ "incremental"; "total_cost" ] Exact;
        hard [ "full"; "warm_merge_products" ] Lower_better;
        hard [ "incremental"; "warm_merge_products" ] Lower_better;
        soft [ "warm_merge_products_ratio" ] Higher_better ~rel_tol:0.10
          ~abs_floor:0.5;
        soft [ "warm_epoch_speedup" ] Higher_better ~rel_tol:0.25 ~abs_floor:1.;
        soft [ "full"; "warm_avg_solve_seconds" ] Lower_better ~rel_tol:0.25
          ~abs_floor:0.002;
        soft
          [ "incremental"; "warm_avg_solve_seconds" ]
          Lower_better ~rel_tol:0.25 ~abs_floor:0.0005;
        soft [ "full"; "total_solve_seconds" ] Lower_better ~rel_tol:0.25
          ~abs_floor:0.01;
        soft
          [ "incremental"; "total_solve_seconds" ]
          Lower_better ~rel_tol:0.25 ~abs_floor:0.01;
        soft
          [ "full"; "allocated_bytes_per_epoch" ]
          Lower_better ~rel_tol:0.10 ~abs_floor:100_000.;
        soft
          [ "incremental"; "allocated_bytes_per_epoch" ]
          Lower_better ~rel_tol:0.10 ~abs_floor:50_000.;
        soft [ "peak_major_words" ] Lower_better ~rel_tol:0.5
          ~abs_floor:500_000.;
      ]
  | "qos" ->
      [
        hard [ "greedy_feasibility_agrees" ] Exact;
        hard [ "brute_agrees" ] Exact;
        hard [ "tight"; "feasible" ] Exact;
        hard [ "tight"; "servers_total" ] Exact;
        hard [ "tight"; "dp_withpre.merge_products" ] Lower_better;
        hard [ "tight"; "dp_withpre.cells_created" ] Lower_better;
        hard [ "tight"; "dp_withpre.peak_table_size" ] Lower_better;
        hard [ "loose"; "feasible" ] Exact;
        hard [ "loose"; "servers_total" ] Exact;
        hard [ "loose"; "dp_withpre.merge_products" ] Lower_better;
        soft [ "tight"; "dp_withpre.tables.seconds" ] Lower_better
          ~rel_tol:0.25 ~abs_floor:0.002;
        soft [ "loose"; "dp_withpre.tables.seconds" ] Lower_better
          ~rel_tol:0.25 ~abs_floor:0.002;
      ]
  | "forest" ->
      [
        hard [ "merged_events" ] Exact;
        hard [ "merge_conserved" ] Exact;
        hard [ "placements_identical" ] Exact;
        hard [ "decoupled_identical" ] Exact;
        hard [ "reconfigurations" ] Exact;
        hard [ "total_cost" ] Exact;
        hard [ "final_servers" ] Exact;
        hard [ "merge_products" ] Lower_better;
        hard [ "coupled"; "unrepaired" ] Exact;
        hard [ "coupled"; "repair_added" ] Exact;
        soft [ "seq"; "epochs_per_second" ] Higher_better ~rel_tol:0.25
          ~abs_floor:0.5;
        soft [ "par"; "epochs_per_second" ] Higher_better ~rel_tol:0.25
          ~abs_floor:0.5;
        soft [ "parallel_speedup" ] Higher_better ~rel_tol:0.25 ~abs_floor:1.;
        soft [ "allocated_bytes_per_epoch" ] Lower_better ~rel_tol:0.10
          ~abs_floor:100_000.;
        soft [ "peak_major_words" ] Lower_better ~rel_tol:0.5
          ~abs_floor:500_000.;
      ]
  | "scaling" ->
      [
        (* Large-N rows: the sweep's point is that these sizes complete
           at all, so the row identity (N, solution size) gates hard
           while the resource axes ratchet directionally — alloc is
           near-deterministic for a fixed seed but shifts with
           compiler/runtime versions. *)
        hard [ "minpower_dp"; "nodes" ] Exact;
        hard [ "minpower_dp"; "servers" ] Exact;
        hard [ "minpower_gr"; "nodes" ] Exact;
        hard [ "minpower_gr"; "servers" ] Exact;
        hard [ "mincost_greedy"; "nodes" ] Exact;
        hard [ "mincost_greedy"; "servers" ] Exact;
        hard [ "mincost_greedy_qos"; "servers" ] Exact;
        soft [ "minpower_dp"; "alloc_mb" ] Lower_better ~rel_tol:0.10
          ~abs_floor:1.;
        soft [ "minpower_gr"; "alloc_mb" ] Lower_better ~rel_tol:0.10
          ~abs_floor:10.;
        soft [ "mincost_greedy"; "alloc_mb" ] Lower_better ~rel_tol:0.10
          ~abs_floor:10.;
        soft [ "minpower_dp"; "seconds" ] Lower_better ~rel_tol:0.25
          ~abs_floor:0.5;
        soft [ "minpower_gr"; "seconds" ] Lower_better ~rel_tol:0.25
          ~abs_floor:0.1;
        soft [ "mincost_greedy"; "seconds" ] Lower_better ~rel_tol:0.25
          ~abs_floor:0.1;
        soft [ "minpower_dp"; "peak_heap_w" ] Lower_better ~rel_tol:0.5
          ~abs_floor:500_000.;
      ]
  | "obs" ->
      [
        hard [ "spans_per_solve" ] Exact;
        hard
          [ "histograms"; "dp_withpre.merge_products_per_node"; "count" ]
          Exact;
        hard [ "histograms"; "dp_withpre.merge_products_per_node"; "sum" ] Exact;
        soft [ "tracing_on_overhead_percent" ] Lower_better ~rel_tol:0.5
          ~abs_floor:2.;
        soft [ "disabled_overhead_percent_estimate" ] Lower_better ~rel_tol:0.5
          ~abs_floor:0.5;
        soft [ "guard_ns_per_check" ] Lower_better ~rel_tol:0.5 ~abs_floor:2.;
        soft [ "tracing_off_median_ns" ] Lower_better ~rel_tol:0.25
          ~abs_floor:500_000.;
        soft [ "timeseries_sample_overhead_percent" ] Lower_better
          ~rel_tol:0.5 ~abs_floor:0.25;
        soft [ "timeseries_sample_ns" ] Lower_better ~rel_tol:0.5
          ~abs_floor:20_000.;
        (* The disabled span path must allocate exactly nothing: any
           nonzero minor-word delta is an instrumentation leak, gated
           hard (the bench itself also asserts it). *)
        hard [ "alloc_disabled_minor_words" ] Exact;
        soft [ "alloc_on_overhead_percent" ] Lower_better ~rel_tol:0.5
          ~abs_floor:2.;
        soft [ "allocated_bytes_per_solve" ] Lower_better ~rel_tol:0.10
          ~abs_floor:100_000.;
      ]
  | _ -> []

type status = Improved | Unchanged | Regressed

type comparison = {
  metric : string;
  base : float;
  cur : float;
  delta_pct : float;
  status : status;
  severity : severity;
}

type report = {
  kind : string;
  comparisons : comparison list;
  missing : string list;
  dropped : (string * string) list;
  hard_regressions : int;
  soft_regressions : int;
}

let lookup path json =
  let rec go json = function
    | [] -> (
        match json with
        | Json.Int i -> Some (float_of_int i)
        | Json.Float f -> Some f
        | Json.Bool b -> Some (if b then 1. else 0.)
        | _ -> None)
    | key :: rest -> (
        match Json.member key json with Some v -> go v rest | None -> None)
  in
  go json path

let compare_one ?rel_tol spec ~base ~cur =
  let metric = String.concat "." spec.path in
  let delta = cur -. base in
  let delta_pct = if base = 0. then 0. else 100. *. delta /. base in
  let status =
    match spec.direction with
    | Exact -> if base = cur then Unchanged else Regressed
    | Lower_better | Higher_better ->
        let worse =
          match spec.direction with
          | Lower_better -> delta > 0.
          | _ -> delta < 0.
        in
        let rel_tol = Option.value ~default:spec.rel_tol rel_tol in
        let rel =
          if base = 0. then if delta = 0. then 0. else infinity
          else Float.abs delta /. Float.abs base
        in
        let beyond = rel > rel_tol && Float.abs delta > spec.abs_floor in
        if not beyond then Unchanged
        else if worse then Regressed
        else Improved
  in
  { metric; base; cur; delta_pct; status; severity = spec.severity }

let ( let* ) = Result.bind

let envelope_meta json =
  match (Json.member "schema_version" json, Json.member "bench" json) with
  | Some (Json.Int v), Some (Json.String kind) -> Ok (v, kind)
  | _ -> Error "not a bench envelope (missing schema_version or bench kind)"

let diff ?rel_tol ~baseline ~current () =
  let* bv, bkind = envelope_meta baseline in
  let* cv, ckind = envelope_meta current in
  let* () =
    if bv <> cv || bv <> Json.schema_version then
      Error
        (Printf.sprintf
           "schema_version mismatch: baseline v%d, current v%d (this tool \
            speaks v%d)"
           bv cv Json.schema_version)
    else Ok ()
  in
  let* () =
    if bkind <> ckind then
      Error (Printf.sprintf "bench kind mismatch: %S vs %S" bkind ckind)
    else Ok ()
  in
  let* specs =
    match specs_for bkind with
    | [] -> Error (Printf.sprintf "no metric specs for bench kind %S" bkind)
    | specs -> Ok specs
  in
  (* A hard metric on one side only means an artifact stopped (or has
     not yet started) recording a gated figure, which fails the gate; a
     metric absent from both sides is a spec this artifact never
     carried, listed as a note. *)
  let comparisons, missing, dropped =
    List.fold_left
      (fun (cs, ms, ds) spec ->
        let metric = String.concat "." spec.path in
        match (lookup spec.path baseline, lookup spec.path current) with
        | Some base, Some cur ->
            (compare_one ?rel_tol spec ~base ~cur :: cs, ms, ds)
        | Some _, None when spec.severity = Hard ->
            (cs, ms, (metric, "current") :: ds)
        | None, Some _ when spec.severity = Hard ->
            (cs, ms, (metric, "baseline") :: ds)
        | _ -> (cs, metric :: ms, ds))
      ([], [], []) specs
  in
  let comparisons = List.rev comparisons
  and missing = List.rev missing
  and dropped = List.rev dropped in
  let count sev =
    List.length
      (List.filter
         (fun c -> c.status = Regressed && c.severity = sev)
         comparisons)
  in
  Ok
    {
      kind = bkind;
      comparisons;
      missing;
      dropped;
      hard_regressions = count Hard + List.length dropped;
      soft_regressions = count Soft;
    }

let value_str v =
  if Float.is_integer v && Float.abs v < 1e15 then
    string_of_int (int_of_float v)
  else Printf.sprintf "%.6g" v

let status_str c =
  match (c.status, c.severity) with
  | Regressed, Hard -> "REGRESSED"
  | Regressed, Soft -> "regressed (warn)"
  | Improved, _ -> "improved"
  | Unchanged, _ -> "ok"

let render r =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "bench %s: %d metric(s) compared\n" r.kind
       (List.length r.comparisons));
  let metric_w =
    List.fold_left (fun w c -> max w (String.length c.metric)) 6 r.comparisons
  in
  Buffer.add_string buf
    (Printf.sprintf "  %-*s  %12s  %12s  %8s  %s\n" metric_w "metric"
       "baseline" "current" "delta" "status");
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "  %-*s  %12s  %12s  %+7.1f%%  %s\n" metric_w c.metric
           (value_str c.base) (value_str c.cur) c.delta_pct (status_str c)))
    r.comparisons;
  List.iter
    (fun c ->
      if c.status = Regressed && c.severity = Soft then
        Buffer.add_string buf
          (Printf.sprintf
             "warning: %s regressed (%s -> %s); timing metric, not gating\n"
             c.metric (value_str c.base) (value_str c.cur)))
    r.comparisons;
  List.iter
    (fun (metric, side) ->
      Buffer.add_string buf
        (Printf.sprintf "REGRESSED: hard metric %s missing from %s\n"
           metric side))
    r.dropped;
  if r.missing <> [] then
    Buffer.add_string buf
      (Printf.sprintf "missing from one side: %s\n"
         (String.concat ", " r.missing));
  Buffer.add_string buf
    (Printf.sprintf "verdict: %d hard regression(s), %d warning(s)\n"
       r.hard_regressions r.soft_regressions);
  Buffer.contents buf

let to_json r =
  Json.Obj
    [
      ("schema_version", Json.Int Json.schema_version);
      ("bench", Json.String r.kind);
      ( "comparisons",
        Json.List
          (List.map
             (fun c ->
               Json.Obj
                 [
                   ("metric", Json.String c.metric);
                   ("baseline", Json.Float c.base);
                   ("current", Json.Float c.cur);
                   ("delta_percent", Json.Float c.delta_pct);
                   ( "status",
                     Json.String
                       (match c.status with
                       | Improved -> "improved"
                       | Unchanged -> "unchanged"
                       | Regressed -> "regressed") );
                   ( "severity",
                     Json.String
                       (match c.severity with Hard -> "hard" | Soft -> "soft")
                   );
                 ])
             r.comparisons) );
      ("missing", Json.List (List.map (fun m -> Json.String m) r.missing));
      ( "dropped",
        Json.List
          (List.map
             (fun (metric, side) ->
               Json.Obj
                 [
                   ("metric", Json.String metric);
                   ("absent_from", Json.String side);
                 ])
             r.dropped) );
      ("hard_regressions", Json.Int r.hard_regressions);
      ("soft_regressions", Json.Int r.soft_regressions);
    ]

(* --- trend over the local history file --- *)

type trend_metric = {
  tm_metric : string;
  tm_values : float list;  (* oldest first *)
  tm_slope : float;
  tm_direction : direction;
  tm_verdict : string;
}

type trend_report = {
  t_kind : string;
  t_runs : int;
  t_metrics : trend_metric list;
}

(* Least-squares slope of v against run index 0..n-1. *)
let slope_of values =
  let n = List.length values in
  if n < 2 then 0.
  else begin
    let nf = float_of_int n in
    let xs = List.mapi (fun i _ -> float_of_int i) values in
    let mean l = List.fold_left ( +. ) 0. l /. nf in
    let mx = mean xs and my = mean values in
    let num, den =
      List.fold_left2
        (fun (num, den) x y ->
          (num +. ((x -. mx) *. (y -. my)), den +. ((x -. mx) *. (x -. mx))))
        (0., 0.) xs values
    in
    if den = 0. then 0. else num /. den
  end

let verdict_of direction values slope =
  let n = List.length values in
  match direction with
  | Exact ->
      let all_equal =
        match values with
        | [] -> true
        | v :: rest -> List.for_all (fun x -> x = v) rest
      in
      if all_equal then "stable" else "CHANGING"
  | Lower_better | Higher_better ->
      let mean =
        List.fold_left ( +. ) 0. values /. float_of_int (max 1 n)
      in
      let total_move = slope *. float_of_int (max 1 (n - 1)) in
      let flat =
        slope = 0.
        || (mean <> 0. && Float.abs (total_move /. mean) < 0.02)
      in
      if flat then "flat"
      else begin
        let better =
          match direction with
          | Lower_better -> slope < 0.
          | _ -> slope > 0.
        in
        if better then "improving" else "worsening"
      end

let trend ~kind ?(last = 10) history =
  if last < 2 then Error "trend needs at least the last 2 runs"
  else begin
    let matching =
      List.filter
        (fun j ->
          match envelope_meta j with
          | Ok (v, k) -> v = Json.schema_version && k = kind
          | Error _ -> false)
        history
    in
    let runs =
      let n = List.length matching in
      if n <= last then matching
      else List.filteri (fun i _ -> i >= n - last) matching
    in
    if List.length runs < 2 then
      Error
        (Printf.sprintf
           "not enough %S runs in the history (%d found, need >= 2)" kind
           (List.length runs))
    else begin
      match specs_for kind with
      | [] -> Error (Printf.sprintf "no metric specs for bench kind %S" kind)
      | specs ->
          let metrics =
            List.filter_map
              (fun spec ->
                let values = List.filter_map (lookup spec.path) runs in
                (* Skip metrics absent from part of the window rather
                   than misaligning the series. *)
                if List.length values <> List.length runs then None
                else begin
                  let slope = slope_of values in
                  Some
                    {
                      tm_metric = String.concat "." spec.path;
                      tm_values = values;
                      tm_slope = slope;
                      tm_direction = spec.direction;
                      tm_verdict = verdict_of spec.direction values slope;
                    }
                end)
              specs
          in
          Ok { t_kind = kind; t_runs = List.length runs; t_metrics = metrics }
    end
  end

let render_trend r =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "bench %s: trend over last %d run(s)\n" r.t_kind r.t_runs);
  let metric_w =
    List.fold_left
      (fun w m -> max w (String.length m.tm_metric))
      6 r.t_metrics
  in
  Buffer.add_string buf
    (Printf.sprintf "  %-*s  %12s  %12s  %12s  %s\n" metric_w "metric" "first"
       "last" "slope/run" "trend");
  List.iter
    (fun m ->
      let first = List.hd m.tm_values
      and last = List.hd (List.rev m.tm_values) in
      Buffer.add_string buf
        (Printf.sprintf "  %-*s  %12s  %12s  %12s  %s\n" metric_w m.tm_metric
           (value_str first) (value_str last)
           (Printf.sprintf "%+.4g" m.tm_slope)
           m.tm_verdict))
    r.t_metrics;
  Buffer.contents buf

let append ~path json =
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string json);
      output_char oc '\n')
