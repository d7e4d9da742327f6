open Replica_tree
open Replica_core
open Helpers

(* Differential harness for the instrumented/pruned/parallel MinPower DP:
   hundreds of small seeded instances where the exhaustive oracle is
   affordable, checking that
   - the default [Dp_power.solve] matches [Brute] on (power, cost);
   - dominance pruning is exactly answer-preserving wherever the mirror
     argument (see dp_power.ml) says it is: always at [bound = infinity],
     and at finite bounds under mode-monotone cost models;
   - the pruned merge does strictly less work, never more;
   - [domains > 1] is bit-identical to the sequential run. *)

let modes_3 = Modes.make [ 3; 6; 9 ]
let power_3 = Power.make ~static:2. ~alpha:2. ()
let cost_cheap3 = Cost.paper_cheap ~modes:3

(* changed = 0 makes these mode-monotone (Cost.is_mode_monotone), so the
   DP defaults to pruning even at finite bounds. *)
let cost_mono2 = Cost.modal_uniform ~modes:2 ~create:0.3 ~delete:0.2 ~changed:0.
let cost_mono3 = Cost.modal_uniform ~modes:3 ~create:0.3 ~delete:0.2 ~changed:0.

let c_products = Replica_obs.Metrics.counter "dp_power.merge_products"
let c_dominance = Replica_obs.Metrics.counter "dp_power.dominance_pruned"
let count c = int_of_float (Replica_obs.Metrics.value c)

(* Random instances come from the shared [Helpers.instance] generator. *)

(* The exhaustive (power, cost) optimum: minimal power among
   bound-feasible placements, then minimal cost among the placements
   achieving it — the lexicographic objective [Dp_power.solve] returns. *)
let brute_power_cost t ~modes ~power ~cost ~bound =
  let w = Modes.max_capacity modes in
  let feasible =
    Brute.fold_valid t ~w ~init:[] ~f:(fun acc sol _ ->
        let c = Solution.modal_cost t modes cost sol in
        if c > bound then acc
        else (Solution.power t modes power sol, c) :: acc)
  in
  match feasible with
  | [] -> None
  | l ->
      let minp = List.fold_left (fun m (p, _) -> min m p) infinity l in
      let minc =
        List.fold_left
          (fun m (p, c) -> if p <= minp +. 1e-9 then min m c else m)
          infinity l
      in
      Some (minp, minc)

(* The solver under test is resolved through the registry (exercising
   the adapter seam the engine/CLI/bench use), not called directly. *)
let dp_power_entry =
  match Registry.find "dp-power" with
  | Some s -> s
  | None -> failwith "dp-power not registered"

let check_against_brute ~tag t ~modes ~power ~cost ~bound =
  let problem = Problem.min_power t ~modes ~power ~cost ~bound () in
  let dp = dp_power_entry.Solver.solve problem Solver.default_request in
  let oracle = brute_power_cost t ~modes ~power ~cost ~bound in
  match (dp, oracle) with
  | None, None -> ()
  | Some d, Some (bp, bc) ->
      check cf (tag ^ ": power") bp (Option.value d.Solver.power ~default:nan);
      check cf (tag ^ ": cost") bc (Option.value d.Solver.cost ~default:nan)
  | Some _, None -> Alcotest.fail (tag ^ ": dp found a phantom solution")
  | None, Some _ -> Alcotest.fail (tag ^ ": dp missed a solution")

(* Pruned and unpruned runs must return identical (power, cost) — and
   the pruned one must attempt strictly fewer (well, never more) merge
   products. Counter deltas are measured around each run. *)
let check_prune_invariance ~tag t ~modes ~power ~cost ~bound =
  let run prune =
    let before = count c_products in
    let r = Dp_power.solve t ~modes ~power ~cost ~bound ~prune () in
    (r, count c_products - before)
  in
  let unpruned, products_unpruned = run false in
  let pruned, products_pruned = run true in
  (match (unpruned, pruned) with
  | None, None -> ()
  | Some u, Some p ->
      check cf (tag ^ ": pruned power") u.Dp_power.power p.Dp_power.power;
      check cf (tag ^ ": pruned cost") u.Dp_power.cost p.Dp_power.cost
  | _ -> Alcotest.fail (tag ^ ": pruning changed feasibility"));
  check cb
    (tag ^ ": pruning never does more merge work")
    true
    (products_pruned <= products_unpruned)

(* 100 instances, 2 modes, with and without pre-existing servers, under
   the paper's (non-mode-monotone) cheap cost model. Pure MinPower, so
   pruning is exact by the mirror argument even for this cost model. *)
let test_two_modes_vs_brute () =
  List.iter
    (fun seed ->
      let rng = Rng.create (seed * 1009) in
      for rep = 1 to 10 do
        let t = instance rng ~max_pre:(if rep mod 2 = 0 then 3 else 0) in
        let tag = Printf.sprintf "2m seed=%d rep=%d" seed rep in
        check_against_brute ~tag t ~modes:modes_2 ~power:power_exp3
          ~cost:cost_cheap ~bound:infinity;
        check_prune_invariance ~tag t ~modes:modes_2 ~power:power_exp3
          ~cost:cost_cheap ~bound:infinity
      done)
    seeds

(* 60 instances with 3 modes and pre-existing servers at random initial
   modes — the state vector grows to 3 + 9 + 1 entries. *)
let test_three_modes_vs_brute () =
  List.iter
    (fun seed ->
      let rng = Rng.create (seed * 2003) in
      for rep = 1 to 6 do
        let nodes = 2 + Rng.int rng 7 in
        let t = small_tree rng ~nodes ~max_requests:3 in
        let marks =
          List.filter_map
            (fun j ->
              if Rng.bernoulli rng 0.4 then Some (j, 1 + Rng.int rng 3)
              else None)
            (List.init nodes Fun.id)
        in
        let t = Tree.with_pre_existing t marks in
        let tag = Printf.sprintf "3m seed=%d rep=%d" seed rep in
        check_against_brute ~tag t ~modes:modes_3 ~power:power_3
          ~cost:cost_cheap3 ~bound:infinity;
        check_prune_invariance ~tag t ~modes:modes_3 ~power:power_3
          ~cost:cost_cheap3 ~bound:infinity
      done)
    seeds

(* 80 instances at finite cost bounds under mode-monotone cost models,
   where pruning must stay exact bound-by-bound. *)
let test_bounded_monotone_vs_brute () =
  List.iter
    (fun seed ->
      let rng = Rng.create (seed * 4001) in
      for rep = 1 to 8 do
        let t = instance rng ~max_pre:3 in
        let bound = 0.5 +. Rng.float rng 6. in
        let modes, power, cost =
          if rep mod 2 = 0 then (modes_2, power_exp3, cost_mono2)
          else (modes_3, power_3, cost_mono3)
        in
        check cb "model is mode-monotone" true (Cost.is_mode_monotone cost);
        let tag = Printf.sprintf "bounded seed=%d rep=%d" seed rep in
        check_against_brute ~tag t ~modes ~power ~cost ~bound;
        check_prune_invariance ~tag t ~modes ~power ~cost ~bound
      done)
    seeds

(* The paper's cheap model at finite bounds is the known-unsound corner
   for flow-minimal tables (DESIGN.md): the default must therefore NOT
   prune there, and must still match brute. *)
let test_bounded_nonmonotone_default_is_safe () =
  check cb "paper cheap model is not mode-monotone" false
    (Cost.is_mode_monotone cost_cheap);
  List.iter
    (fun seed ->
      let rng = Rng.create (seed * 5003) in
      for rep = 1 to 4 do
        let t = instance rng ~max_pre:3 in
        let bound = 1. +. Rng.float rng 5. in
        let tag = Printf.sprintf "nonmono seed=%d rep=%d" seed rep in
        check_against_brute ~tag t ~modes:modes_2 ~power:power_exp3
          ~cost:cost_cheap ~bound
      done)
    seeds

(* Frontier invariants: sorted by strictly increasing cost with strictly
   decreasing power, and (under a mode-monotone model) identical with
   and without pruning. *)
let test_frontier_pruned_matches_unpruned () =
  List.iter
    (fun seed ->
      let rng = Rng.create (seed * 6007) in
      let t = instance rng ~max_pre:3 in
      let points prune =
        List.map
          (fun r -> (r.Dp_power.cost, r.Dp_power.power))
          (Dp_power.frontier ~prune t ~modes:modes_2 ~power:power_exp3
             ~cost:cost_mono2)
      in
      let unpruned = points false and pruned = points true in
      check ci "same frontier size" (List.length unpruned)
        (List.length pruned);
      List.iter2
        (fun (c1, p1) (c2, p2) ->
          check cf "frontier cost" c1 c2;
          check cf "frontier power" p1 p2)
        unpruned pruned;
      let rec walk = function
        | (c1, p1) :: ((c2, p2) :: _ as rest) ->
            check cb "cost strictly increases" true (c1 < c2);
            check cb "power strictly decreases" true (p2 < p1);
            walk rest
        | _ -> ()
      in
      walk unpruned)
    seeds

(* Parallel sibling merges must be bit-identical to sequential ones,
   including on trees wide enough to actually fan out. *)
let test_domains_bit_identical () =
  List.iter
    (fun seed ->
      let rng = Rng.create (seed * 7001) in
      let t = instance rng ~max_pre:2 in
      let solve domains =
        Dp_power.solve t ~modes:modes_2 ~power:power_exp3 ~cost:cost_cheap
          ~domains ()
      in
      match (solve 1, solve 4) with
      | None, None -> ()
      | Some a, Some b ->
          check cb "identical solution" true
            (Solution.equal a.Dp_power.solution b.Dp_power.solution);
          check cb "identical power" true (a.Dp_power.power = b.Dp_power.power);
          check cb "identical cost" true (a.Dp_power.cost = b.Dp_power.cost)
      | _ -> Alcotest.fail "domains changed feasibility")
    seeds

(* On an instance with sibling subtrees the pruned run must report
   strictly fewer merge products and a positive dominance_pruned count.
   Heterogeneous leaf loads matter: placing one mode-1 server at the
   2-request leaf or at the 4-request leaf yields identical counts with
   different residual flows, exactly the cells dominance collapses —
   and with three siblings the smaller intermediate table feeds the
   next merge, so the product count strictly drops. *)
let test_counters_show_pruning () =
  let t =
    Tree.build
      (Tree.node
         [
           Tree.node ~clients:[ 2 ] [];
           Tree.node ~clients:[ 4 ] [];
           Tree.node ~clients:[ 3 ] [];
         ])
  in
  let run prune =
    let p0 = count c_products in
    let d0 = count c_dominance in
    ignore
      (Dp_power.solve t ~modes:modes_2 ~power:power_exp3 ~cost:cost_cheap
         ~prune ());
    (count c_products - p0, count c_dominance - d0)
  in
  let products_unpruned, dominance_unpruned = run false in
  let products_pruned, dominance_pruned = run true in
  check ci "unpruned run prunes nothing" 0 dominance_unpruned;
  check cb "pruned run drops cells" true (dominance_pruned > 0);
  check cb "strictly fewer merge products" true
    (products_pruned < products_unpruned)

let () =
  Alcotest.run "dp_power_diff"
    [
      ( "differential",
        [
          Alcotest.test_case "2 modes, minpower" `Slow test_two_modes_vs_brute;
          Alcotest.test_case "3 modes, minpower" `Slow
            test_three_modes_vs_brute;
          Alcotest.test_case "bounded, monotone cost" `Slow
            test_bounded_monotone_vs_brute;
          Alcotest.test_case "bounded, paper cost" `Slow
            test_bounded_nonmonotone_default_is_safe;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "frontier pruned = unpruned" `Quick
            test_frontier_pruned_matches_unpruned;
          Alcotest.test_case "domains bit-identical" `Quick
            test_domains_bit_identical;
          Alcotest.test_case "counters show pruning" `Quick
            test_counters_show_pruning;
        ] );
    ]
