(* replica_cli top: a live, top-style terminal view of an engine or
   forest run, rendered from the same per-epoch Timeseries the --json
   artifacts embed — the view is a reader of the telemetry subsystem,
   not a second instrumentation path. *)

open Replica_tree
open Replica_core
open Replica_experiments
open Replica_engine
open Replica_forest
module Ts = Replica_obs.Timeseries
module Clock = Replica_obs.Clock
open Cmdliner
open Cli_common

let blocks = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84";
                "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |]

let sparkline values =
  match values with
  | [] -> ""
  | _ ->
      let lo = List.fold_left min infinity values
      and hi = List.fold_left max neg_infinity values in
      let span = hi -. lo in
      String.concat ""
        (List.map
           (fun v ->
             let i =
               if span <= 0. then 0
               else
                 min 7 (int_of_float (7.9 *. ((v -. lo) /. span)))
             in
             blocks.(i))
           values)

(* All series rows carrying [name], merged across label sets: one
   (epoch, value) per point, combining multiple label sets (forest
   shards) by max. *)
let series ts name ~combine =
  List.filter_map
    (fun (pt : Ts.point) ->
      match
        List.filter_map
          (fun (r : Ts.row) ->
            if r.Ts.r_name = name then Some r.Ts.r_value else None)
          pt.Ts.pt_rows
      with
      | [] -> None
      | v :: vs -> Some (pt.Ts.pt_epoch, List.fold_left combine v vs))
    (Ts.points ts)

let sum_series ts name =
  List.fold_left (fun a (_, v) -> a +. v) 0. (series ts name ~combine:( +. ))

let last_value ts name =
  match List.rev (series ts name ~combine:max) with
  | (_, v) :: _ -> Some v
  | [] -> None

(* Per-label-set last values for one name (the per-shard rows). *)
let last_by_label ts name =
  match List.rev (Ts.points ts) with
  | [] -> []
  | pt :: _ ->
      List.filter_map
        (fun (r : Ts.row) ->
          if r.Ts.r_name = name then Some (r.Ts.r_labels, r.Ts.r_value)
          else None)
        pt.Ts.pt_rows

let line fmt = Printf.printf (fmt ^^ "\n")

let latency_line ts label name =
  let s = series ts name ~combine:max in
  match s with
  | [] -> ()
  | _ ->
      let _, last = List.hd (List.rev s) in
      line "%-20s %8.3f  %s" label (last /. 1e6)
        (sparkline (List.map snd s))

(* Heap rows, fed by the Gc_stats collector through the same
   Timeseries as everything else: live major heap as a gauge, and the
   per-epoch minor-word delta as an allocation-rate sparkline (words
   are 8 bytes on 64-bit). *)
let heap_lines ts =
  (* quick_stat's heap size only refreshes at collection boundaries;
     before the first major collection the gauge reads 0 — suppress
     the row rather than print a misleading empty heap. *)
  (match last_value ts "gc.heap_words" with
  | Some v when v > 0. -> line "%-20s %8.2f" "heap (MB major)" (v *. 8. /. 1e6)
  | _ -> ());
  match series ts "gc.minor_words" ~combine:( +. ) with
  | [] -> ()
  | s ->
      let _, last = List.hd (List.rev s) in
      line "%-20s %8.2f  %s" "alloc rate (MB/ep)" (last *. 8. /. 1e6)
        (sparkline (List.map snd s))

let render ~mode ~solver ~policy ~served ~total ~elapsed_s ts =
  line "replica top - %s  solver=%s  policy=%s" mode solver policy;
  line "%-20s %d/%d" "epochs served" served total;
  if elapsed_s > 0. then
    line "%-20s %.1f" "epoch rate (1/s)" (float_of_int served /. elapsed_s);
  (match mode with
  | "engine" ->
      line "%-20s %.0f" "reconfigurations"
        (sum_series ts "engine.reconfigurations");
      latency_line ts "solve p50 (ms)" "engine.epoch_solve_ns.p50";
      latency_line ts "solve p99 (ms)" "engine.epoch_solve_ns.p99";
      (match last_value ts "engine.memo_hit_ratio_pct.p50" with
      | Some v -> line "%-20s %.0f" "memo hit pct (p50)" v
      | None -> ());
      (match last_value ts "engine.staleness" with
      | Some v -> line "%-20s %.0f" "staleness" v
      | None -> ())
  | _ ->
      line "%-20s %.0f" "reconfigured shards"
        (sum_series ts "engine.reconfigurations");
      latency_line ts "shard p50 (ms)" "forest.shard_solve_ns.p50";
      latency_line ts "shard p99 (ms)" "forest.shard_solve_ns.p99";
      line "%-20s %.0f" "repair pushdowns"
        (sum_series ts "forest.repair_pushdowns");
      (match last_value ts "forest.max_server_load" with
      | Some v -> line "%-20s %.0f" "max server load" v
      | None -> ());
      let shards = last_by_label ts "forest.shard_demand" in
      if shards <> [] then begin
        let hi = List.fold_left (fun a (_, v) -> max a v) 1. shards in
        line "%-20s %s" "shard demand"
          (String.concat "  "
             (List.map
                (fun (labels, v) ->
                  let shard =
                    Option.value ~default:"?" (List.assoc_opt "shard" labels)
                  in
                  let i = min 7 (int_of_float (7.9 *. (v /. hi))) in
                  Printf.sprintf "s%s %s %.0f" shard blocks.(i) v)
                (List.sort compare shards)))
      end);
  heap_lines ts;
  flush stdout

let clear_screen () = print_string "\027[H\027[2J"

let once_flag =
  Arg.(
    value & flag
    & info [ "once" ]
        ~doc:
          "Run the whole workload silently, render one final snapshot and \
           exit 0 — the mode the cram suite and CI smoke pin.")

let forest_flag =
  Arg.(
    value & flag
    & info [ "forest" ]
        ~doc:
          "Watch a forest run (sharded trees, parallel per-shard solves) \
           instead of a single engine.")

let cmd =
  let run shape nodes seed horizon window policy w once forest_mode trees
      objects coupling =
    Replica_obs.Gc_stats.register ();
    let ts = Ts.create ~stride:1 () in
    let t_start = Clock.now_ns () in
    let elapsed () = float_of_int (Clock.now_ns () - t_start) /. 1e9 in
    let ecfg =
      Engine.config ~policy ~w
        (Engine.Min_cost (Cost.basic ~create:0.5 ~delete:0.25 ()))
    in
    (* Either mode comes down to one thunk per epoch, which steps the
       run and returns the epoch number. *)
    let mode, solver, epochs =
      if forest_mode then begin
        let profile = Workload.profile shape ~nodes ~max_requests:6 in
        let forest =
          try
            Forest.generate
              { Forest.trees; objects; servers = 2 * nodes; profile; seed }
          with Invalid_argument msg -> die "%s" msg
        in
        let ft =
          Forest_trace.generate forest ~horizon ~seed:(seed + 1)
            (Forest_trace.Diurnal { period = 24.; floor = 0.25 })
        in
        let engine =
          try
            Forest_engine.create forest
              { Forest_engine.engine = ecfg; coupling; domains = 1 }
          with Invalid_argument msg -> die "%s" msg
        in
        ( "forest",
          Forest_engine.solver_name engine,
          List.map
            (fun views () ->
              (Forest_engine.step engine views).Forest_timeline.epoch)
            (Forest_trace.epochs ft forest ~window) )
      end
      else begin
        let open Replica_trace in
        let rng = Rng.create seed in
        let tree =
          Generator.random rng (Workload.profile shape ~nodes ~max_requests:6)
        in
        let trace =
          Arrivals.diurnal rng tree ~horizon ~period:24. ~floor:0.25
        in
        let engine =
          try Engine.create ecfg with Invalid_argument msg -> die "%s" msg
        in
        ( "engine",
          Engine.solver_name engine,
          List.map
            (fun t () -> (Engine.step engine t).Timeline.epoch)
            (Epochs.epochs trace tree ~window) )
      end
    in
    let total = List.length epochs in
    let render served =
      render ~mode ~solver ~policy:(Update_policy.policy_to_string policy)
        ~served ~total ~elapsed_s:(elapsed ()) ts
    in
    List.iter
      (fun step ->
        let epoch = step () in
        Ts.sample ts ~epoch;
        if not once then begin
          clear_screen ();
          render epoch
        end)
      epochs;
    if once then render total
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Watch an online run live: a top-style terminal view (epoch rate, \
          solve-latency sparklines, memo hit rate, per-shard load) rendered \
          each epoch from the same per-epoch time series the --json \
          artifacts embed. With $(b,--once), render a single snapshot \
          after the run — deterministic enough for CI.")
    Term.(
      const run $ shape_arg $ nodes_arg 40 $ seed_arg $ horizon_arg 8.
      $ window_arg $ policy_arg $ w_arg $ once_flag $ forest_flag
      $ Cli_forest.trees_arg $ Cli_forest.objects_arg
      $ Cli_forest.coupling_flag)
