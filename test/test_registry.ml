(* Registry-driven differential tests. Instead of hand-listing solver
   pairs, these suites enumerate {!Replica_core.Registry} entries by
   capability and cross-check them, so a newly registered algorithm is
   pulled into the differential net automatically. Also pins the
   registry's structural invariants (unique resolvable names, memo
   coherence, defaults) and keeps the DESIGN.md capability matrix in
   sync with the code. *)

open Replica_tree
open Replica_core
open Helpers

(* Exact cost solvers under the closest policy share one optimum on
   no-pre instances (greedy is pre-oblivious, hence only compared
   there); other access policies optimize a different feasible set. *)
let exact_cost_solvers () =
  List.filter
    (fun (s : Solver.t) ->
      let c = s.Solver.capability in
      c.Solver.handles_cost
      && c.Solver.exactness = Solver.Exact
      && c.Solver.access = Solver.Closest)
    (Registry.all ())

(* Every power solver except the oracle itself. *)
let power_solvers () =
  List.filter
    (fun (s : Solver.t) ->
      s.Solver.capability.Solver.handles_power && s.Solver.name <> "brute")
    (Registry.all ())

let get_entry name =
  match Registry.find name with
  | Some s -> s
  | None -> Alcotest.failf "registry entry %S missing" name

(* --- structural invariants --- *)

let test_names_unique_and_resolvable () =
  let names = Registry.names () in
  check cb "population covers the library" true (List.length names >= 12);
  check ci "names are unique"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun n ->
      match Registry.find n with
      | Some s -> check Alcotest.string "find is name-stable" n s.Solver.name
      | None -> Alcotest.failf "registered name %S does not resolve" n)
    names;
  check cb "unknown names are rejected" true
    (Registry.find "no-such-solver" = None);
  check cb "dp-qos is another name for dp-withpre" true
    (get_entry "dp-qos" == get_entry "dp-withpre");
  check cb "dp-qos is not a registered name" false (List.mem "dp-qos" names)

let test_memo_coherence () =
  List.iter
    (fun (s : Solver.t) ->
      let inc = s.Solver.capability.Solver.supports_incremental in
      check cb
        (s.Solver.name ^ ": make_memo iff incremental")
        inc
        (s.Solver.make_memo <> None);
      check cb
        (s.Solver.name ^ ": memo_size iff incremental")
        inc
        (s.Solver.memo_size <> None))
    (Registry.all ())

let test_defaults () =
  let name o = (Registry.default_for o).Solver.name in
  check Alcotest.string "min-servers default" "dp-withpre"
    (name Problem.Min_servers);
  check Alcotest.string "min-cost default" "dp-withpre"
    (name (Problem.Min_cost (Cost.basic ())));
  check Alcotest.string "min-power default" "dp-power"
    (name
       (Problem.Min_power
          {
            modes = modes_2;
            power = power_exp3;
            cost = cost_cheap;
            bound = infinity;
          }))

(* --- differential: exact cost solvers agree pairwise --- *)

let test_exact_cost_pairwise () =
  let solvers = exact_cost_solvers () in
  check cb "at least three exact cost solvers" true (List.length solvers >= 3);
  let w = 5 in
  let cost = Cost.basic ~create:0.4 ~delete:0.3 () in
  let rng = Rng.create 42 in
  for rep = 1 to 50 do
    (* No pre-existing servers: the one regime every exact closest-policy
       cost solver provably shares (greedy is pre-oblivious). *)
    let t = no_pre_instance rng in
    let problem = Problem.min_cost t ~w ~cost in
    let results =
      List.map
        (fun (s : Solver.t) ->
          match Solver.run s problem Solver.default_request with
          | Ok r ->
              ( s.Solver.name,
                Option.map
                  (fun (o : Solver.outcome) ->
                    Option.value o.Solver.cost ~default:nan)
                  r )
          | Error e ->
              Alcotest.failf "%s rejected a compatible problem: %s"
                s.Solver.name e)
        solvers
    in
    match results with
    | [] -> ()
    | (ref_name, ref_cost) :: rest ->
        List.iter
          (fun (name, c) ->
            match (ref_cost, c) with
            | None, None -> ()
            | Some a, Some b ->
                if abs_float (a -. b) > 1e-9 then
                  Alcotest.failf "rep %d: %s = %f disagrees with %s = %f" rep
                    name b ref_name a
            | _ ->
                Alcotest.failf "rep %d: feasibility disagreement %s vs %s" rep
                  name ref_name)
          rest
  done

(* --- differential: every power solver vs the exhaustive oracle --- *)

let test_power_solvers_vs_brute () =
  let brute = get_entry "brute" in
  let solvers = power_solvers () in
  check cb "at least four power solvers" true (List.length solvers >= 4);
  let rng = Rng.create 77 in
  for rep = 1 to 25 do
    let nodes = 2 + Rng.int rng 6 in
    let pre = Rng.int rng 3 in
    let t = small_tree_with_pre rng ~nodes ~max_requests:4 ~pre in
    let problem =
      Problem.min_power t ~modes:modes_2 ~power:power_exp3 ~cost:cost_cheap ()
    in
    let optimum =
      match Solver.run brute problem Solver.default_request with
      | Ok (Some o) -> Option.value o.Solver.power ~default:nan
      | Ok None -> Alcotest.failf "rep %d: oracle infeasible at bound = inf" rep
      | Error e -> Alcotest.failf "oracle: %s" e
    in
    List.iter
      (fun (s : Solver.t) ->
        let request = Solver.request ~rng:(Rng.create (1000 + rep)) () in
        match Solver.run s problem request with
        | Error e -> Alcotest.failf "%s: %s" s.Solver.name e
        | Ok None ->
            Alcotest.failf "rep %d: %s infeasible at bound = inf" rep
              s.Solver.name
        | Ok (Some o) ->
            let p = Option.value o.Solver.power ~default:nan in
            (match s.Solver.capability.Solver.exactness with
            | Solver.Exact ->
                if abs_float (p -. optimum) > 1e-9 then
                  Alcotest.failf "rep %d: exact %s found %f, optimum is %f" rep
                    s.Solver.name p optimum
            | Solver.Heuristic ->
                if p < optimum -. 1e-9 then
                  Alcotest.failf "rep %d: %s beat the exhaustive optimum (%f < %f)"
                    rep s.Solver.name p optimum);
            (* The reported power must be the true Eq. 3 value of the
               returned placement — no solver may self-report. *)
            check cf
              (Printf.sprintf "rep %d: %s reports its placement's power" rep
                 s.Solver.name)
              (Solution.power t modes_2 power_exp3 o.Solver.solution)
              p)
      solvers
  done

(* --- capability guards actually fire through Solver.run --- *)

let test_capability_guards () =
  let t = figure1_tree ~root_requests:2 in
  let cost_problem = Problem.min_cost t ~w:10 ~cost:(Cost.basic ()) in
  let bounded_power =
    Problem.min_power t ~modes:modes_2 ~power:power_exp3 ~cost:cost_cheap
      ~bound:3. ()
  in
  (match Solver.run (get_entry "greedy") bounded_power Solver.default_request with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "greedy accepted a power problem");
  (match Solver.run (get_entry "dp-power") cost_problem Solver.default_request with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "dp-power accepted a cost problem");
  (match
     Solver.run (get_entry "heuristic-cost")
       (Problem.make t ~w:10
          (Problem.Min_power
             {
               modes = modes_2;
               power = power_exp3;
               cost = cost_cheap;
               bound = 3.;
             }))
       Solver.default_request
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "heuristic-cost accepted a bounded power problem");
  let big =
    Tree.build
      (Tree.node
         (List.init 25 (fun _ -> Tree.node ~clients:[ 1 ] [])))
  in
  match
    Solver.run (get_entry "brute")
      (Problem.min_servers big ~w:5)
      Solver.default_request
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "brute accepted a tree above its size guard"

(* --- DESIGN.md capability matrix stays in sync with the code --- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let find_sub haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec go i =
    if i + m > n then None
    else if String.sub haystack i m = needle then Some i
    else go (i + 1)
  in
  go 0

let test_design_matrix_in_sync () =
  let design = read_file "../DESIGN.md" in
  let begin_marker = "<!-- solver-matrix:begin -->" in
  let end_marker = "<!-- solver-matrix:end -->" in
  match (find_sub design begin_marker, find_sub design end_marker) with
  | Some b, Some e when b < e ->
      let start = b + String.length begin_marker in
      let committed = String.trim (String.sub design start (e - start)) in
      let generated = String.trim (Registry.matrix_markdown ()) in
      check Alcotest.string
        "DESIGN.md solver matrix matches Registry.matrix_markdown ()"
        generated committed
  | _ ->
      Alcotest.fail
        "DESIGN.md is missing the solver-matrix:begin/end markers"

let () =
  Alcotest.run "registry"
    [
      ( "structure",
        [
          Alcotest.test_case "names unique and resolvable" `Quick
            test_names_unique_and_resolvable;
          Alcotest.test_case "memo coherence" `Quick test_memo_coherence;
          Alcotest.test_case "objective defaults" `Quick test_defaults;
          Alcotest.test_case "capability guards" `Quick test_capability_guards;
        ] );
      ( "differential",
        [
          Alcotest.test_case "exact cost solvers pairwise" `Slow
            test_exact_cost_pairwise;
          Alcotest.test_case "power solvers vs brute" `Slow
            test_power_solvers_vs_brute;
        ] );
      ( "docs",
        [
          Alcotest.test_case "DESIGN.md matrix in sync" `Quick
            test_design_matrix_in_sync;
        ] );
    ]
