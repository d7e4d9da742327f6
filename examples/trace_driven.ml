(* Trace-driven reconfiguration: from raw request arrivals to placements.

   The paper assumes each client's request rate is "known beforehand";
   in production those rates come from measurement. This example closes
   the loop with the trace substrate: synthesize a day of per-request
   arrivals (diurnal Poisson traffic plus an evening flash crowd on one
   region), aggregate the stream into hourly steady-state epochs, and
   let the lazy update policy — powered by the §3 optimal single-step
   DP — follow the load.

   Run with: dune exec examples/trace_driven.exe *)

open Replica_tree
open Replica_core
open Replica_trace
open Replica_engine

let w = 10
let cost = Cost.basic ~create:0.5 ~delete:0.25 ()

let simulate policy epochs =
  Engine.run
    (Engine.config ~policy ~solver:Engine.Full ~w (Engine.Min_cost cost))
    epochs

let () =
  let rng = Rng.create 4242 in
  let tree = Generator.random rng (Generator.high ~nodes:40 ()) in
  Printf.printf
    "network: %d nodes, %d clients, nominal demand %d req/unit (W = %d)\n"
    (Tree.size tree) (Tree.num_clients tree) (Tree.total_requests tree) w;

  (* One "day" of traffic: 24 time units, diurnal cycle, plus a flash
     crowd tripling one first-level region for two hours in the evening. *)
  let base =
    Arrivals.diurnal rng tree ~horizon:24. ~period:24. ~floor:0.25
  in
  let hotspot = List.hd (Tree.children tree (Tree.root tree)) in
  let trace =
    Arrivals.flash_crowd rng tree ~base ~at:18. ~duration:2. ~node:hotspot
      ~multiplier:3.
  in
  Printf.printf "trace: %d requests over %.0f hours (flash crowd on region %d at 18h)\n\n"
    (Trace.length trace) (Trace.duration trace) hotspot;

  let epochs = Epochs.epochs trace tree ~window:1. in
  let summary = simulate Update_policy.Lazy epochs in
  Printf.printf "%5s %8s %9s %15s %10s\n" "hour" "demand" "servers"
    "reconfigured" "cost paid";
  List.iter
    (fun (e : Timeline.entry) ->
      Printf.printf "%5d %8d %9d %15s %10.2f\n" e.epoch e.demand
        (Solution.cardinal e.servers)
        (if e.reconfigured then "yes" else "-")
        e.step_cost)
    summary.Timeline.entries;
  Printf.printf
    "\nlazy policy: %d reconfigurations, total bill %.2f, %d invalid epochs\n"
    summary.Timeline.reconfigurations summary.Timeline.total_cost
    summary.Timeline.invalid_epochs;
  let systematic = simulate Update_policy.Systematic epochs in
  Printf.printf "systematic would bill %.2f over the same day (%.0f%% more)\n"
    systematic.Timeline.total_cost
    (100.
    *. ((systematic.Timeline.total_cost /. summary.Timeline.total_cost) -. 1.));
  print_endline
    "\nThe placement breathes with the diurnal cycle and spikes with the\n\
     flash crowd — every reconfiguration is the exact minimum-cost update\n\
     of the paper's Theorem 1."
