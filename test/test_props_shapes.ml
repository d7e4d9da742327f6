(* Property tests on structured shapes with closed-form answers, plus
   algebraic properties of the small data structures. *)

open Replica_tree
open Replica_core
open Replica_engine
open Helpers

let gen_small_ints = QCheck2.Gen.(pair (int_range 1 8) (int_range 1 10))

let prop_path_single_server =
  qcheck_case "path: one client within W needs exactly one server"
    QCheck2.Gen.(triple (int_range 1 20) (int_range 1 10) (int_range 10 15))
    (fun (n, r, w) ->
      let t = Generator.path ~n ~client_requests:r in
      Greedy.solve_count t ~w = Some 1
      && Option.map (fun x -> x.Dp_nopre.servers) (Dp_nopre.solve t ~w) = Some 1)

let prop_star_closed_form =
  qcheck_case "star: greedy matches the closed-form optimum"
    QCheck2.Gen.(triple (int_range 1 10) (int_range 1 6) (int_range 1 12))
    (fun (leaves, r, w) ->
      let t = Generator.star ~leaves ~client_requests:r in
      let expected =
        if r > w then None (* a single client exceeds every server *)
        else
          let total = leaves * r in
          if total <= w then Some 1
          else
            (* k leaf servers absorb k*r; the root takes the rest. *)
            let k = (total - w + r - 1) / r in
            Some (k + 1)
      in
      Greedy.solve_count t ~w = expected)

let prop_balanced_symmetric =
  qcheck_case ~count:40 "balanced: server count depends only on shape"
    QCheck2.Gen.(pair (int_range 2 3) (int_range 1 3))
    (fun (arity, depth) ->
      let t = Generator.balanced ~arity ~depth ~client_requests:2 in
      let w = 6 in
      match (Greedy.solve t ~w, Dp_nopre.solve t ~w) with
      | Some g, Some d ->
          Solution.cardinal g = d.Dp_nopre.servers
          (* Leaf loads are uniform: every chosen leaf-level server
             carries the same load. *)
          && Solution.is_valid t ~w g
      | None, None -> true
      | Some _, None | None, Some _ -> false)

let prop_all_pre_existing_cost_is_count =
  qcheck_case "all nodes pre-existing + free delete: optimal cost = R*"
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 2 12))
    (fun (seed, nodes) ->
      let rng = Rng.create seed in
      let t = small_tree rng ~nodes ~max_requests:4 in
      let all = List.init (Tree.size t) (fun j -> (j, 1)) in
      let t = Tree.with_pre_existing t all in
      let w = 8 in
      let cost = Cost.basic ~create:0.7 ~delete:0. () in
      match (Dp_withpre.solve t ~w ~cost, Dp_nopre.solve t ~w) with
      | Some r, Some base ->
          (* Everything can be reused: no creation is ever needed, so the
             optimal cost is exactly the minimal server count. *)
          r.Dp_withpre.reused = r.Dp_withpre.servers
          && abs_float (r.Dp_withpre.cost -. float_of_int base.Dp_nopre.servers)
             < 1e-9
      | None, None -> true
      | Some _, None | None, Some _ -> false)

let prop_greedy_monotone_in_w =
  qcheck_case "server count is non-increasing in W"
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 2 20))
    (fun (seed, nodes) ->
      let rng = Rng.create seed in
      let t = small_tree rng ~nodes ~max_requests:5 in
      let counts =
        List.map (fun w -> Greedy.solve_count t ~w) [ 5; 7; 9; 12; 20 ]
      in
      let rec monotone = function
        | Some a :: (Some b :: _ as rest) -> b <= a && monotone rest
        | None :: rest -> monotone rest
        | [ Some _ ] | [] -> true
        | Some _ :: None :: _ -> false (* larger W cannot lose feasibility *)
      in
      monotone counts)

let prop_mode_of_load_window =
  qcheck_case "mode_of_load lands in the right window" gen_small_ints
    (fun (m, span) ->
      let ladder = List.init m (fun i -> (i + 1) * span) in
      let modes = Modes.make ladder in
      let ok = ref true in
      for load = 0 to Modes.max_capacity modes do
        let mode = Modes.mode_of_load modes load in
        let upper = Modes.capacity modes mode in
        let lower = if mode = 1 then 0 else Modes.capacity modes (mode - 1) in
        if not (load <= upper && (load > lower || mode = 1)) then ok := false
      done;
      !ok)

let prop_power_monotone_in_mode =
  qcheck_case "power strictly increases with the mode" gen_small_ints
    (fun (m, span) ->
      let modes = Modes.make (List.init m (fun i -> (i + 1) * span)) in
      let power = Power.make ~static:1. ~alpha:2.5 () in
      let rec increasing i =
        i >= m
        || (Power.of_mode power modes i < Power.of_mode power modes (i + 1)
           && increasing (i + 1))
      in
      m = 1 || increasing 1)

(* An arena placement of [l], built by snocs. *)
let arena_of t l =
  List.fold_left (fun acc x -> Arena.snoc t acc ~node:x ~flow:x) Arena.empty l

let prop_arena_append_assoc =
  qcheck_case "arena append is associative on contents"
    QCheck2.Gen.(triple (list small_nat) (list small_nat) (list small_nat))
    (fun (a, b, c) ->
      let t = Arena.create () in
      let ca = arena_of t a and cb = arena_of t b and cc = arena_of t c in
      Arena.nodes t (Arena.append t (Arena.append t ca cb) cc)
      = Arena.nodes t (Arena.append t ca (Arena.append t cb cc))
      && Arena.nodes t (Arena.append t ca cb) = a @ b)

let prop_arena_count =
  qcheck_case "arena count agrees with to_list"
    QCheck2.Gen.(list small_nat)
    (fun l ->
      let t = Arena.create () in
      let c = arena_of t l in
      Arena.count t c = List.length l
      && Arena.to_list t c = List.map (fun x -> (x, x)) l)

let prop_basic_cost_formula =
  qcheck_case "Eq. 2 equals its closed form"
    QCheck2.Gen.(
      quad (float_bound_inclusive 3.) (float_bound_inclusive 3.) (int_bound 20)
        (pair (int_bound 20) (int_bound 20)))
    (fun (create, delete, servers, (reused0, pre0)) ->
      let pre = max reused0 pre0 and reused = min reused0 pre0 in
      let reused = min reused servers in
      let c = Cost.basic ~create ~delete () in
      let v = Cost.basic_cost c ~servers ~reused ~pre_existing:pre in
      abs_float
        (v
        -. (float_of_int servers
           +. (float_of_int (servers - reused) *. create)
           +. (float_of_int (pre - reused) *. delete)))
      < 1e-9)

let prop_update_policy_lazy_subset =
  qcheck_case ~count:40 "lazy reconfigures on a subset of systematic's epochs"
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 2 10))
    (fun (seed, nodes) ->
      let rng = Rng.create seed in
      let t = small_tree rng ~nodes ~max_requests:4 in
      let demands =
        List.init 6 (fun k ->
            Tree.with_clients t (fun j ->
                List.map (fun r -> max 1 ((r + k) mod 5)) (Tree.clients t j)))
      in
      let w = 8 in
      let cost = Cost.basic ~create:0.3 ~delete:0.1 () in
      let run policy =
        Engine.run (Engine.config ~policy ~w (Engine.Min_cost cost)) demands
      in
      let lazy_sum = run Update_policy.Lazy in
      let sys_sum = run Update_policy.Systematic in
      lazy_sum.Timeline.reconfigurations <= sys_sum.Timeline.reconfigurations
      && lazy_sum.Timeline.invalid_epochs = sys_sum.Timeline.invalid_epochs)

let () =
  Alcotest.run "properties_shapes"
    [
      ( "closed forms",
        [
          prop_path_single_server;
          prop_star_closed_form;
          prop_balanced_symmetric;
          prop_all_pre_existing_cost_is_count;
          prop_greedy_monotone_in_w;
        ] );
      ( "models",
        [
          prop_mode_of_load_window;
          prop_power_monotone_in_mode;
          prop_basic_cost_formula;
        ] );
      ( "structures",
        [ prop_arena_append_assoc; prop_arena_count ] );
      ("policies", [ prop_update_policy_lazy_subset ]);
    ]
