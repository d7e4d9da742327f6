(* Shared helpers for the test suites. *)

open Replica_tree
open Replica_core

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool
let cf = Alcotest.float 1e-9

(* Small random trees for cross-checks against the brute-force oracle. *)
let small_tree rng ~nodes ~max_requests =
  let profile =
    {
      Generator.nodes;
      min_children = 1;
      max_children = 3;
      client_probability = 0.7;
      min_requests = 1;
      max_requests;
    }
  in
  Generator.random rng profile

let small_tree_with_pre rng ~nodes ~max_requests ~pre =
  let t = small_tree rng ~nodes ~max_requests in
  Generator.add_pre_existing rng t pre

(* Shared instance generators — one definition each for the random
   shapes the differential suites draw, so every suite fuzzes the same
   population and a new suite doesn't grow its own private copy. *)

(* 2-8 nodes with up to [max_pre] pre-existing servers (the power and
   cost differential suites' staple). *)
let instance rng ~max_pre =
  let nodes = 2 + Rng.int rng 7 in
  let pre = Rng.int rng (min max_pre nodes + 1) in
  small_tree_with_pre rng ~nodes ~max_requests:4 ~pre

(* 2-9 nodes, no pre-existing servers: the one regime every exact
   closest-policy cost solver provably shares. *)
let no_pre_instance rng =
  let nodes = 2 + Rng.int rng 8 in
  small_tree rng ~nodes ~max_requests:4

(* [instance] plus a random QoS/bandwidth regime: the two generator
   presets, a qos-only and a bw-only draw — mixing clearly feasible,
   clearly infeasible and boundary instances. *)
let constrained_instance rng =
  let t = instance rng ~max_pre:2 in
  match Rng.int rng 4 with
  | 0 -> Generator.tight_constraints rng t
  | 1 -> Generator.loose_constraints rng t
  | 2 -> Generator.add_qos rng t ~min_qos:0 ~max_qos:3
  | _ -> Generator.add_bandwidth rng t ~slack:(0.5 +. Rng.float rng 1.5)

(* Seeded synthetic request trace over [tree]: kind 0 = homogeneous
   Poisson, 1 = diurnal, anything else = Poisson plus a flash crowd on a
   random subtree. *)
let workload_trace rng tree ~kind ~horizon =
  let open Replica_trace in
  match kind with
  | 0 -> Arrivals.poisson rng tree ~horizon
  | 1 -> Arrivals.diurnal rng tree ~horizon ~period:(horizon /. 2.) ~floor:0.3
  | _ ->
      let base = Arrivals.poisson rng tree ~horizon in
      let node = Rng.int rng (Tree.size tree) in
      Arrivals.flash_crowd rng tree ~base ~at:(horizon /. 4.)
        ~duration:(horizon /. 3.) ~node ~multiplier:3.

(* The paper's Figure 1 situation (§3.1), W = 10. Node ids in comments.
   Keeping only B leaves 7 requests traversing A (C's clients); removing
   B and placing a server at C leaves 4 (B's clients); keeping B and
   adding a server at A or C leaves 0. With [root_requests = 2] the
   optimum reuses B ({B, root}); with [root_requests = 4] it does not
   ({C, root}). *)
let figure1_tree ~root_requests =
  Tree.build
    (Tree.node ~clients:[ root_requests ] (* root = 0 *)
       [
         Tree.node (* A = 1 *)
           [
             Tree.node ~clients:[ 4 ] ~pre:1 [] (* B = 2 *);
             Tree.node ~clients:[ 7 ] [] (* C = 3 *);
           ];
       ])

let fig1_root = 0
let fig1_a = 1
let fig1_b = 2
let fig1_c = 3

let qcheck_case ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

(* Deterministic seeds for reproducible suites. *)
let seeds = [ 1; 2; 3; 5; 8; 13; 21; 34; 55; 89 ]

let modes_2 = Modes.make [ 5; 10 ]
let power_exp3 = Power.paper_exp3 ~modes:modes_2
let cost_cheap = Cost.paper_cheap ~modes:2
let cost_expensive = Cost.paper_expensive ~modes:2
let zero_cost = Cost.basic ()

(* Bit-identity of two MinCost-WithPre results: feasibility, placement,
   cost bits, server and reuse counts. *)
let same_result msg (expected : Dp_withpre.result option)
    (got : Dp_withpre.result option) =
  match (expected, got) with
  | None, None -> ()
  | Some a, Some b ->
      check cb (msg ^ ": solution") true
        (Solution.equal a.Dp_withpre.solution b.Dp_withpre.solution);
      check Alcotest.int64 (msg ^ ": cost bits")
        (Int64.bits_of_float a.Dp_withpre.cost)
        (Int64.bits_of_float b.Dp_withpre.cost);
      check ci (msg ^ ": servers") a.Dp_withpre.servers b.Dp_withpre.servers;
      check ci (msg ^ ": reused") a.Dp_withpre.reused b.Dp_withpre.reused
  | _ -> Alcotest.failf "%s: feasibility differs" msg

let solution_testable =
  Alcotest.testable Solution.pp Solution.equal
