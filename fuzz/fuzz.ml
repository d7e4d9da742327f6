(* Differential fuzzing harness: every polynomial solver against the
   exhaustive oracle on random instances with randomized parameters
   (shape, demand, pre-existing markings, capacities, mode ladders, cost
   models, bounds). Run with `dune exec fuzz/fuzz.exe -- [instances]`
   (default 4000). Exits non-zero on the first discrepancy batch, so it
   can gate CI at any budget. *)
open Replica_tree
open Replica_core

let () =
  let total =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 4000
  in
  let fails = ref 0 and runs = ref 0 and over_budget = ref 0 in
  let report name t msg =
    incr fails;
    Printf.printf "FAIL %s on %s: %s\n%!" name (Tree.to_string t) msg
  in
  let t0 = Sys.time () in
  for seed = 1 to total do
    let rng = Rng.create seed in
    let nodes = 2 + Rng.int rng 10 in
    let profile =
      { Generator.nodes; min_children = 1; max_children = 4;
        client_probability = 0.8; min_requests = 1; max_requests = 6 } in
    let bare = Generator.random rng profile in
    let pre = Rng.int rng (nodes + 1) in
    let t = Generator.add_pre_existing rng ~mode:(1 + Rng.int rng 2) bare pre in
    let w = 3 + Rng.int rng 8 in
    incr runs;
    (* greedy vs brute *)
    (match (Greedy.solve_count t ~w, Option.map fst (Brute.min_servers t ~w)) with
     | Some a, Some b when a <> b -> report "greedy" t (Printf.sprintf "w=%d %d vs %d" w a b)
     | None, Some _ | Some _, None -> report "greedy-feas" t (Printf.sprintf "w=%d" w)
     | _ -> ());
    (* dp_withpre vs brute with random costs *)
    let cost = Cost.basic ~create:(Rng.float rng 3.) ~delete:(Rng.float rng 3.) () in
    (match (Dp_withpre.solve t ~w ~cost, Brute.min_basic_cost t ~w ~cost) with
     | Some d, Some (bc, _) when abs_float (d.Dp_withpre.cost -. bc) > 1e-9 ->
         report "dp_withpre" t (Printf.sprintf "w=%d %f vs %f" w d.Dp_withpre.cost bc)
     | None, Some _ | Some _, None -> report "dp_withpre-feas" t ""
     | _ -> ());
    (* dp_power vs brute with a random ladder of 2-4 modes or, every
       tenth instance, 8 modes with the pre-existing servers re-marked
       at three initial modes — so the uniform, tight and wide key
       layouts all meet the oracle. *)
    let m = if seed mod 10 = 0 then 8 else 2 + Rng.int rng 3 in
    let ladder = Array.make m (2 + Rng.int rng 4) in
    for i = 1 to m - 1 do
      ladder.(i) <- ladder.(i - 1) + 1 + Rng.int rng 3
    done;
    let modes = Modes.make (Array.to_list ladder) in
    let tp =
      if m < 8 then t
      else
        Tree.with_pre_existing t
          (List.mapi (fun i j -> (j, [| 1; 4; 8 |].(i mod 3)))
             (Rng.sample_without_replacement rng (min 6 nodes) nodes))
    in
    if Dp_power.packed_bits tp ~modes = None then incr over_budget;
    let power = Power.make ~static:(Rng.float rng 5.) ~alpha:(2. +. Rng.float rng 1.) () in
    let mcost = Cost.modal_uniform ~modes:m ~create:(Rng.float rng 1.)
        ~delete:(Rng.float rng 1.) ~changed:(Rng.float rng 0.5) in
    let bound = if Rng.bool rng then infinity else 1. +. Rng.float rng 8. in
    (match (Dp_power.solve tp ~modes ~power ~cost:mcost ~bound (),
            Brute.min_power tp ~modes ~power ~cost:mcost ~bound ()) with
     | Some d, Some (bp, _) when abs_float (d.Dp_power.power -. bp) > 1e-6 ->
         report "dp_power" tp (Printf.sprintf "%f vs %f" d.Dp_power.power bp)
     | None, Some _ | Some _, None -> report "dp_power-feas" tp ""
     | _ -> ());
    (* heuristics: sandwiched between optimum and seed, always valid *)
    (match (Heuristics_cost.solve t ~w ~cost (), Dp_withpre.solve t ~w ~cost) with
     | Some h, Some d ->
         if d.Dp_withpre.cost > h.Heuristics_cost.cost +. 1e-9 then
           report "heuristics_cost" t "beat the optimum (impossible)";
         if not (Solution.is_valid t ~w h.Heuristics_cost.solution) then
           report "heuristics_cost-valid" t ""
     | None, Some _ | Some _, None -> report "heuristics_cost-feas" t ""
     | None, None -> ());
    (* upwards: heuristic validity + hierarchy vs closest/multiple *)
    (if Tree.num_clients t <= Upwards.max_clients_exact then begin
       (match Upwards.solve_heuristic t ~w with
        | Some r ->
            if not (Upwards.assignment_exists t ~w r.Upwards.solution) then
              report "upwards-heuristic-valid" t ""
        | None -> ());
       match (Greedy.solve_count t ~w,
              Option.map (fun r -> r.Multiple.servers) (Multiple.solve t ~w)) with
       | Some c, Some m when m > c -> report "hierarchy" t "multiple > closest"
       | _ -> ()
     end);
    (* constrained placement: dp_withpre vs brute (whose validity
       check includes QoS/bandwidth violations) on a randomly
       constrained variant; greedy_qos must agree on feasibility
       exactly and stay valid. Roughly a quarter of the variants end up
       unconstrained, fuzzing the one-class path too. *)
    (let ct =
       let qt =
         if Rng.bool rng then
           Generator.add_qos rng t ~min_qos:0 ~max_qos:(1 + Rng.int rng 4)
         else t
       in
       if Rng.bool rng then
         Generator.add_bandwidth rng qt ~slack:(0.5 +. Rng.float rng 1.5)
       else qt
     in
     let oracle = Brute.min_basic_cost ct ~w ~cost in
     (match (Dp_withpre.solve ct ~w ~cost, oracle) with
      | Some d, Some (bc, _) when abs_float (d.Dp_withpre.cost -. bc) > 1e-9 ->
          report "dp_withpre-qos" ct
            (Printf.sprintf "w=%d %f vs %f" w d.Dp_withpre.cost bc)
      | Some d, Some _ when not (Solution.is_valid ct ~w d.Dp_withpre.solution)
        ->
          report "dp_withpre-qos-valid" ct (Printf.sprintf "w=%d" w)
      | None, Some _ | Some _, None -> report "dp_withpre-qos-feas" ct ""
      | _ -> ());
     match (Greedy_qos.solve ct ~w, oracle) with
     | Some g, Some _ when not (Solution.is_valid ct ~w g) ->
         report "greedy_qos-valid" ct (Printf.sprintf "w=%d" w)
     | None, Some _ | Some _, None -> report "greedy_qos-feas" ct ""
     | _ -> ());
    (* multiple vs brute-multiple *)
    (let best = ref None in
     for mask = 0 to (1 lsl nodes) - 1 do
       let sel = ref [] in
       for j = nodes - 1 downto 0 do
         if mask land (1 lsl j) <> 0 then sel := j :: !sel done;
       let sol = Solution.of_nodes !sel in
       if Multiple.is_valid t ~w sol then
         match !best with
         | Some b when b <= Solution.cardinal sol -> ()
         | _ -> best := Some (Solution.cardinal sol)
     done;
     match (Option.map (fun r -> r.Multiple.servers) (Multiple.solve t ~w), !best) with
     | Some a, Some b when a <> b -> report "multiple" t (Printf.sprintf "%d vs %d" a b)
     | None, Some _ | Some _, None -> report "multiple-feas" t ""
     | _ -> ())
  done;
  Printf.printf
    "fuzz: %d instances (%d over the packed key budget), %d failures, %.1fs\n"
    !runs !over_budget !fails (Sys.time () -. t0);
  if !fails > 0 then exit 1
