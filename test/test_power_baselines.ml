(* Tests for Greedy_power (the GR baseline of §5.2) and Heuristics (the
   §6 local-search program). *)

open Replica_tree
open Replica_core
open Helpers

let random_instance seed =
  let rng = Rng.create seed in
  let nodes = 4 + Rng.int rng 12 in
  let pre = Rng.int rng 4 in
  small_tree_with_pre rng ~nodes ~max_requests:4 ~pre

let test_gr_candidates_cover_sweep () =
  let t = random_instance 1001 in
  let cands = Greedy_power.candidates t ~modes:modes_2 ~power:power_exp3 ~cost:cost_cheap in
  check cb "at least one candidate" true (cands <> []);
  List.iter
    (fun c ->
      check cb "capacity within sweep" true
        (c.Greedy_power.capacity >= 5 && c.Greedy_power.capacity <= 10);
      let r = c.Greedy_power.result in
      check cb "valid at W_M" true
        (Solution.is_valid t ~w:10 r.Dp_power.solution);
      (* Every server respects the sweep capacity it was built with. *)
      let ev = Solution.evaluate t r.Dp_power.solution in
      List.iter
        (fun (_, load) ->
          check cb "load within sweep capacity" true
            (load <= c.Greedy_power.capacity))
        ev.Solution.loads)
    cands

let test_gr_never_beats_dp () =
  (* DP is optimal: for any bound, GR's power is >= DP's. *)
  List.iter
    (fun seed ->
      let t = random_instance seed in
      List.iter
        (fun bound ->
          let dp =
            Dp_power.solve t ~modes:modes_2 ~power:power_exp3 ~cost:cost_cheap
              ~bound ()
          in
          let gr =
            Greedy_power.solve t ~modes:modes_2 ~power:power_exp3
              ~cost:cost_cheap ~bound ()
          in
          match (dp, gr) with
          | _, None -> ()
          | None, Some _ -> Alcotest.fail "GR found what DP missed"
          | Some d, Some g ->
              check cb "dp <= gr" true
                (d.Dp_power.power <= g.Dp_power.power +. 1e-9))
        [ 2.; 3.; 5.; 10.; infinity ])
    seeds

let test_gr_frontier_pareto () =
  let t = random_instance 2002 in
  let f = Greedy_power.frontier t ~modes:modes_2 ~power:power_exp3 ~cost:cost_cheap in
  let rec walk = function
    | a :: (b :: _ as rest) ->
        check cb "cost up" true (a.Dp_power.cost < b.Dp_power.cost);
        check cb "power down" true (b.Dp_power.power < a.Dp_power.power);
        walk rest
    | _ -> ()
  in
  walk f

let test_heuristic_improves_on_gr () =
  (* The local search must never be worse than its greedy seed, and never
     better than the DP optimum. *)
  List.iter
    (fun seed ->
      let t = random_instance (seed + 500) in
      let bound = 5. in
      let gr =
        Greedy_power.solve t ~modes:modes_2 ~power:power_exp3 ~cost:cost_cheap
          ~bound ()
      in
      let h =
        Heuristics.solve t ~modes:modes_2 ~power:power_exp3 ~cost:cost_cheap
          ~bound ()
      in
      let dp =
        Dp_power.solve t ~modes:modes_2 ~power:power_exp3 ~cost:cost_cheap
          ~bound ()
      in
      match (gr, h, dp) with
      | None, None, _ -> ()
      | Some g, Some h, Some d ->
          check cb "h <= gr" true (h.Dp_power.power <= g.Dp_power.power +. 1e-9);
          check cb "dp <= h" true (d.Dp_power.power <= h.Dp_power.power +. 1e-9);
          check cb "h within bound" true (h.Dp_power.cost <= bound +. 1e-9);
          check cb "h valid" true (Solution.is_valid t ~w:10 h.Dp_power.solution)
      | Some _, None, _ -> Alcotest.fail "heuristic lost the greedy seed"
      | None, Some _, _ -> Alcotest.fail "heuristic invented a seed"
      | _, _, None -> Alcotest.fail "DP infeasible where GR was feasible")
    seeds

let test_heuristic_finds_figure2_optimum () =
  (* On the Figure 2 instance the heuristic can reach the true optimum:
     GR at W'=10 places a server at A (mode 2); moving it down to C is a
     strictly improving "lower" move. *)
  let t =
    Tree.build
      (Tree.node ~clients:[ 4 ]
         [
           Tree.node
             [ Tree.node ~clients:[ 3 ] []; Tree.node ~clients:[ 7 ] [] ];
         ])
  in
  let modes = Modes.make [ 7; 10 ] in
  let power = Power.make ~static:10. ~alpha:2. () in
  let cost = Cost.modal_uniform ~modes:2 ~create:0. ~delete:0. ~changed:0. in
  match Heuristics.solve t ~modes ~power ~cost () with
  | Some r -> check cf "reaches 118" 118. r.Dp_power.power
  | None -> Alcotest.fail "expected a solution"

let test_improve_rejects_bad_seed () =
  let t = Tree.build (Tree.node ~clients:[ 3 ] []) in
  (* Empty solution is invalid (unserved requests). *)
  check cb "invalid seed rejected" true
    (Heuristics.improve t ~modes:modes_2 ~power:power_exp3 ~cost:cost_cheap
       Solution.empty
    = None)

let test_improve_monotone () =
  List.iter
    (fun seed ->
      let t = random_instance (seed + 900) in
      match Greedy.solve t ~w:10 with
      | None -> ()
      | Some sol ->
          let seed_power = Solution.power t modes_2 power_exp3 sol in
          (match
             Heuristics.improve t ~modes:modes_2 ~power:power_exp3
               ~cost:cost_cheap sol
           with
          | Some r ->
              check cb "no regression" true (r.Dp_power.power <= seed_power +. 1e-9)
          | None -> Alcotest.fail "valid seed rejected"))
    seeds

let test_restarts_at_least_as_good_as_solve () =
  List.iter
    (fun seed ->
      let t = random_instance (seed + 1300) in
      let rng = Rng.create seed in
      let plain =
        Heuristics.solve t ~modes:modes_2 ~power:power_exp3 ~cost:cost_cheap ()
      in
      let multi =
        Heuristics.solve_restarts t ~modes:modes_2 ~power:power_exp3
          ~cost:cost_cheap rng
      in
      let dp =
        Dp_power.solve t ~modes:modes_2 ~power:power_exp3 ~cost:cost_cheap ()
      in
      match (plain, multi, dp) with
      | None, None, _ -> ()
      | Some p, Some m, Some d ->
          check cb "restarts <= plain" true
            (m.Dp_power.power <= p.Dp_power.power +. 1e-9);
          check cb "dp <= restarts" true
            (d.Dp_power.power <= m.Dp_power.power +. 1e-9);
          check cb "restarts valid" true
            (Solution.is_valid t ~w:10 m.Dp_power.solution)
      | _ -> Alcotest.fail "feasibility disagreement across heuristics")
    seeds

let test_anneal_sandwiched () =
  List.iter
    (fun seed ->
      let t = random_instance (seed + 1700) in
      let rng = Rng.create (seed * 3) in
      let annealed =
        Heuristics.anneal t ~modes:modes_2 ~power:power_exp3 ~cost:cost_cheap
          ~iterations:300 rng
      in
      let gr =
        Greedy_power.solve t ~modes:modes_2 ~power:power_exp3 ~cost:cost_cheap ()
      in
      let dp =
        Dp_power.solve t ~modes:modes_2 ~power:power_exp3 ~cost:cost_cheap ()
      in
      match (annealed, gr, dp) with
      | None, None, _ -> ()
      | Some a, Some g, Some d ->
          check cb "anneal <= seed" true
            (a.Dp_power.power <= g.Dp_power.power +. 1e-9);
          check cb "dp <= anneal" true
            (d.Dp_power.power <= a.Dp_power.power +. 1e-9);
          check cb "anneal valid" true
            (Solution.is_valid t ~w:10 a.Dp_power.solution);
          check cf "anneal metrics consistent"
            (Solution.power t modes_2 power_exp3 a.Dp_power.solution)
            a.Dp_power.power
      | _ -> Alcotest.fail "feasibility disagreement")
    seeds

let test_anneal_respects_bound () =
  List.iter
    (fun seed ->
      let t = random_instance (seed + 1900) in
      let rng = Rng.create seed in
      let bound = 4. in
      match
        Heuristics.anneal t ~modes:modes_2 ~power:power_exp3 ~cost:cost_cheap
          ~bound ~iterations:200 rng
      with
      | None -> ()
      | Some r -> check cb "within bound" true (r.Dp_power.cost <= bound +. 1e-9))
    seeds

(* --- Identity with the list-based greedy --- *)

(* A frozen copy of the list-based greedy that the allocation-free
   kernel replaced: children as lists, [List.sort] on descending flow,
   replicas consed in placement order. *)
let list_greedy tree ~w =
  let n = Tree.size tree in
  let flow = Array.make n 0 in
  let replicas = ref [] in
  let feasible = ref true in
  let place j =
    replicas := j :: !replicas;
    flow.(j) <- 0
  in
  let process j =
    let kids = Tree.children tree j in
    let arriving =
      List.fold_left
        (fun acc c -> acc + flow.(c))
        (Tree.client_load tree j) kids
    in
    flow.(j) <- arriving;
    if arriving > w then begin
      let sorted = List.sort (fun a b -> compare flow.(b) flow.(a)) kids in
      let rec absorb = function
        | [] -> ()
        | c :: rest ->
            if flow.(j) > w && flow.(c) > 0 then begin
              flow.(j) <- flow.(j) - flow.(c);
              place c;
              absorb rest
            end
      in
      absorb sorted;
      if flow.(j) > w then feasible := false
    end
  in
  Array.iter process (Tree.postorder tree);
  let root = Tree.root tree in
  if flow.(root) > 0 then place root;
  if !feasible then Some (Solution.of_nodes !replicas) else None

(* The GR sweep as it was: one full solution per capacity, re-evaluated
   through [Solution.tally]/[Solution.power], then folded, sorted and
   filtered over boxed results. *)
let oracle_candidates tree ~modes ~power ~cost =
  List.filter_map
    (fun w ->
      Option.map
        (fun solution ->
          let tally = Solution.tally tree modes solution in
          ( w,
            {
              Dp_power.solution;
              power = Solution.power tree modes power solution;
              cost = Cost.modal_cost cost tally;
              tally;
            } ))
        (list_greedy tree ~w))
    (List.init
       (Modes.max_capacity modes - Modes.capacity modes 1 + 1)
       (fun i -> Modes.capacity modes 1 + i))

let oracle_solve cands ~bound =
  List.fold_left
    (fun best (_, (c : Dp_power.result)) ->
      if c.Dp_power.cost > bound then best
      else
        match best with
        | Some (b : Dp_power.result)
          when (b.Dp_power.power, b.Dp_power.cost)
               <= (c.Dp_power.power, c.Dp_power.cost) ->
            best
        | Some _ | None -> Some c)
    None cands

let oracle_frontier cands =
  let sorted =
    List.sort
      (fun (_, (a : Dp_power.result)) (_, (b : Dp_power.result)) ->
        compare
          (a.Dp_power.cost, a.Dp_power.power)
          (b.Dp_power.cost, b.Dp_power.power))
      cands
  in
  let rec filter best_power = function
    | [] -> []
    | (_, (c : Dp_power.result)) :: rest ->
        if c.Dp_power.power < best_power then c :: filter c.Dp_power.power rest
        else filter best_power rest
  in
  filter infinity sorted

let bits = Int64.bits_of_float

let same_result (a : Dp_power.result) (b : Dp_power.result) =
  Solution.equal a.Dp_power.solution b.Dp_power.solution
  && bits a.Dp_power.power = bits b.Dp_power.power
  && bits a.Dp_power.cost = bits b.Dp_power.cost
  && a.Dp_power.tally = b.Dp_power.tally

let same_option a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> same_result a b
  | _ -> false

(* Fat or high trees of up to 300 nodes, 0-5 pre-existing servers at
   initial modes 1-2, and a 2- or 3-mode ladder scaled to the load:
   sweeps span 5-176 capacities, and on small trees they start below
   the largest own load, so some capacities are infeasible (45 of the
   320 instances drawn below). *)
let sweep_instance rng =
  let nodes = 2 + Rng.int rng 299 in
  let profile =
    if Rng.bool rng then Generator.fat ~nodes () else Generator.high ~nodes ()
  in
  let bare = Generator.random rng profile in
  let pre =
    List.init (Rng.int rng 6) (fun _ -> (Rng.int rng nodes, 1 + Rng.int rng 2))
  in
  let tree = Tree.with_pre_existing bare pre in
  let total = max 8 (Tree.total_requests tree) in
  let top = max 6 (total / (2 + Rng.int rng 8)) in
  let ladder =
    if Rng.bool rng then [ top / 3; top ] else [ top / 3; (2 * top) / 3; top ]
  in
  let modes = Modes.make ladder in
  let m = Modes.count modes in
  let cost =
    if Rng.bool rng then Cost.paper_cheap ~modes:m
    else Cost.paper_expensive ~modes:m
  in
  (tree, modes, Power.paper_exp3 ~modes, cost)

let test_gr_matches_list_oracle () =
  let rng = Rng.create 20 in
  let feasible = ref 0 in
  for _ = 1 to 320 do
    let tree, modes, power, cost = sweep_instance rng in
    let cands = oracle_candidates tree ~modes ~power ~cost in
    let mine = Greedy_power.candidates tree ~modes ~power ~cost in
    check cb "candidates identical" true
      (List.length cands = List.length mine
      && List.for_all2
           (fun (w, r) c ->
             w = c.Greedy_power.capacity && same_result r c.Greedy_power.result)
           cands mine);
    let front = oracle_frontier cands in
    let f = Greedy_power.frontier tree ~modes ~power ~cost in
    check cb "frontier identical" true
      (List.length front = List.length f && List.for_all2 same_result front f);
    let below =
      List.fold_left
        (fun acc (_, (r : Dp_power.result)) -> Float.min acc r.Dp_power.cost)
        infinity cands
    in
    List.iter
      (fun bound ->
        let expected = oracle_solve cands ~bound in
        if expected <> None then incr feasible;
        check cb "solve identical" true
          (same_option expected
             (Greedy_power.solve tree ~modes ~power ~cost ~bound ())))
      ((infinity
       :: List.map (fun (r : Dp_power.result) -> r.Dp_power.cost) front)
      @ [ Float.pred below ])
  done;
  check cb "most bounds are feasible" true (!feasible > 320)

let test_greedy_matches_list_oracle () =
  let rng = Rng.create 21 in
  let shapes nodes =
    [
      Generator.random rng (Generator.fat ~nodes ());
      Generator.random rng (Generator.high ~nodes ());
      (* Stars overflow a root with more children than one insertion
         run, which the kernel merges. *)
      Generator.star ~leaves:(nodes - 1) ~client_requests:(1 + Rng.int rng 5);
    ]
  in
  List.iter
    (fun nodes ->
      List.iter
        (fun tree ->
          let total = Tree.total_requests tree in
          List.iter
            (fun w ->
              let expected = list_greedy tree ~w in
              check cb "placement identical" true
                (match (expected, Greedy.solve tree ~w) with
                | None, None -> true
                | Some a, Some b -> Solution.equal a b
                | _ -> false))
            (1 :: total :: List.init 25 (fun _ -> 1 + Rng.int rng total)))
        (shapes nodes))
    [ 2; 17; 40; 300; 1000; 2000 ]

(* One allocation-free greedy per capacity: a solve whose sweep spans
   hundreds of capacities allocates O(N) words for its scratch plus a
   few words per capacity, never a placement per capacity. *)
let test_gr_sweep_allocation () =
  let nodes = 2000 in
  let tree = Generator.random (Rng.create 5) (Generator.fat ~nodes ()) in
  let total = Tree.total_requests tree in
  let modes = Modes.make [ total / 8; total / 4 ] in
  check cb "sweep spans at least 300 capacities" true
    (Modes.max_capacity modes - Modes.capacity modes 1 + 1 >= 300);
  let power = Power.paper_exp3 ~modes and cost = Cost.paper_cheap ~modes:2 in
  Replica_obs.Span.set_enabled false;
  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let before = words () in
  let r = Greedy_power.solve tree ~modes ~power ~cost () in
  let used = words () -. before in
  check cb "solved" true (r <> None);
  if used >= float_of_int (64 * nodes) then
    Alcotest.failf "Greedy_power.solve allocated %.0f words (%.1f per node)"
      used (used /. float_of_int nodes)

let () =
  Alcotest.run "power_baselines"
    [
      ( "greedy_power",
        [
          Alcotest.test_case "sweep candidates" `Quick test_gr_candidates_cover_sweep;
          Alcotest.test_case "never beats DP" `Slow test_gr_never_beats_dp;
          Alcotest.test_case "frontier pareto" `Quick test_gr_frontier_pareto;
          Alcotest.test_case "matches list oracle" `Slow
            test_gr_matches_list_oracle;
          Alcotest.test_case "greedy matches list oracle" `Slow
            test_greedy_matches_list_oracle;
          Alcotest.test_case "sweep allocation" `Quick test_gr_sweep_allocation;
        ] );
      ( "heuristics",
        [
          Alcotest.test_case "between GR and DP" `Slow test_heuristic_improves_on_gr;
          Alcotest.test_case "figure 2 optimum" `Quick test_heuristic_finds_figure2_optimum;
          Alcotest.test_case "bad seed" `Quick test_improve_rejects_bad_seed;
          Alcotest.test_case "monotone improvement" `Quick test_improve_monotone;
        ] );
      ( "metaheuristics",
        [
          Alcotest.test_case "restarts dominate" `Slow test_restarts_at_least_as_good_as_solve;
          Alcotest.test_case "anneal sandwiched" `Slow test_anneal_sandwiched;
          Alcotest.test_case "anneal bound" `Quick test_anneal_respects_bound;
        ] );
    ]
