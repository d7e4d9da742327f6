(* Dynamic replica management: the paper's §6 trade-off between "lazy"
   and "systematic" update strategies, built on the single-step optimal
   reconfiguration of §3: the library's Update_policy triggers, run by
   the online Engine.

   Client demand drifts over 20 epochs; four policies manage the same
   tree with the same optimal single-step solver:
     - systematic: reconfigure every epoch;
     - lazy: only when the placement breaks;
     - periodic(4): every fourth epoch (and on breakage);
     - drift(0.2): when total demand moved by >20% (and on breakage).
   We report each policy's reconfiguration bill — the quantity §6 argues
   the single-step optimum is the key ingredient for.

   Run with: dune exec examples/dynamic_updates.exe *)

open Replica_tree
open Replica_core
open Replica_engine

let w = 10
let cost = Cost.basic ~create:0.5 ~delete:0.25 ()

let drift rng tree =
  (* Each epoch nudges every client population: requests move by ±1 and
     nodes occasionally gain or lose a client. A node's aggregate demand
     is clamped to W — all clients of a node share one server under the
     closest policy, so anything above W is unserveable by construction. *)
  Tree.with_clients tree (fun j ->
      let survived =
        List.filter_map
          (fun r ->
            if Rng.bernoulli rng 0.04 then None
            else
              let r = r + Rng.int_in_range rng ~min:(-1) ~max:1 in
              if r <= 0 then None else Some (min r 6))
          (Tree.clients tree j)
      in
      let proposed =
        if Rng.bernoulli rng 0.06 then (1 + Rng.int rng 4) :: survived
        else survived
      in
      let rec clamp total = function
        | [] -> []
        | r :: rest ->
            if total + r > w then clamp total rest
            else r :: clamp (total + r) rest
      in
      clamp 0 proposed)

let () =
  let rng = Rng.create 99 in
  let tree0 = Generator.random rng (Generator.high ~nodes:50 ()) in
  let demands =
    let rec go tree k acc =
      if k = 0 then List.rev acc
      else
        let next = drift rng tree in
        go next (k - 1) (next :: acc)
    in
    go tree0 20 []
  in
  Printf.printf
    "50-node tree, 20 demand epochs (%d..%d total requests), W = %d\n\n"
    (List.fold_left (fun m t -> min m (Tree.total_requests t)) max_int demands)
    (List.fold_left (fun m t -> max m (Tree.total_requests t)) 0 demands)
    w;
  let policies =
    [
      Update_policy.Systematic;
      Update_policy.Lazy;
      Update_policy.Periodic 4;
      Update_policy.Drift 0.2;
    ]
  in
  Printf.printf "%-14s %16s %18s %16s\n" "policy" "total cost"
    "reconfigurations" "invalid epochs";
  let summaries =
    List.map
      (fun policy ->
        let s =
          Engine.run
            (Engine.config ~policy ~solver:Engine.Full ~w
               (Engine.Min_cost cost))
            demands
        in
        Printf.printf "%-14s %16.2f %18d %16d\n"
          (Update_policy.policy_to_string policy)
          s.Timeline.total_cost s.Timeline.reconfigurations
          s.Timeline.invalid_epochs;
        (policy, s))
      policies
  in
  (* Show the lazy policy's actual reconfiguration trace. *)
  (match List.assoc_opt Update_policy.Lazy summaries with
  | Some s ->
      let epochs =
        List.filter_map
          (fun e ->
            if e.Timeline.reconfigured then Some (string_of_int e.Timeline.epoch)
            else None)
          s.Timeline.entries
      in
      Printf.printf "\nlazy reconfigured at epochs: %s\n"
        (String.concat ", " epochs)
  | None -> ());
  print_endline
    "\nLazy and drift-triggered policies cut the bill by reconfiguring only \
     when the demand actually moved; the optimal single-step update (§3) \
     is what every one of them calls."
