(* Property tests for the packed DP state keys ({!Packed_key}), the
   layout tiers of {!Dp_power}, and its wide fallback against the
   brute-force oracle. *)

open Replica_tree
open Replica_core
open Helpers

(* Random layout plus vectors drawn within its field maxima, all
   derived from one qcheck seed so shrinking reproduces instances. *)
type instance = {
  m : int;
  count_max : int array;
  flow_max : int;
  layout : Packed_key.layout option;
  va : int array;  (* m + m*m + 1 entries, within maxima *)
  vb : int array;
}

let vector_within rng count_max flow_max =
  let nf = Array.length count_max in
  Array.init (nf + 1) (fun i ->
      if i < nf then Rng.int rng (count_max.(i) + 1)
      else Rng.int rng (flow_max + 1))

let instance_gen =
  QCheck2.Gen.map
    (fun seed ->
      let rng = Rng.create seed in
      let m = 1 + Rng.int rng 3 in
      let nf = m + (m * m) in
      let count_max = Array.init nf (fun _ -> Rng.int rng 7) in
      let flow_max = Rng.int rng 31 in
      let layout = Packed_key.make ~m ~count_max ~flow_max in
      let va = vector_within rng count_max flow_max in
      let vb = vector_within rng count_max flow_max in
      { m; count_max; flow_max; layout; va; vb })
    QCheck2.Gen.(int_bound 1_000_000)

let prop_roundtrip =
  qcheck_case "packed key: encode/decode roundtrip" instance_gen (fun i ->
      match i.layout with
      | None -> true
      | Some l -> Packed_key.decode l (Packed_key.encode l i.va) = i.va)

let prop_order =
  (* Integer comparison of packed keys is exactly lexicographic
     comparison of the wide vectors — the property the flow-dominance
     prune's minimal-key winner relies on. *)
  qcheck_case "packed key: int order = lexicographic vector order"
    instance_gen (fun i ->
      match i.layout with
      | None -> true
      | Some l ->
          compare (Packed_key.encode l i.va) (Packed_key.encode l i.vb)
          = compare i.va i.vb)

let prop_counts_group =
  (* [counts] (= key lsr flow_bits) agrees iff the vectors agree on
     every field but the flow — the prune's grouping criterion. *)
  qcheck_case "packed key: counts prefix groups like the wide prefix"
    instance_gen (fun i ->
      match i.layout with
      | None -> true
      | Some l ->
          let nf = Array.length i.count_max in
          let ka = Packed_key.encode l i.va
          and kb = Packed_key.encode l i.vb in
          Packed_key.counts l ka = Packed_key.counts l kb
          = (Array.sub i.va 0 nf = Array.sub i.vb 0 nf))

let prop_carry_free_add =
  (* Keys of disjoint subtrees add field-wise without carries as long
     as every field sum stays within the sized maxima. *)
  qcheck_case "packed key: field-wise add is carry-free" instance_gen
    (fun i ->
      match i.layout with
      | None -> true
      | Some l ->
          let nf = Array.length i.count_max in
          let half = Array.map (fun v -> v / 2) i.va in
          let rest = Array.mapi (fun j v -> v - half.(j)) i.va in
          let sum = Packed_key.encode l half + Packed_key.encode l rest in
          ignore nf;
          sum = Packed_key.encode l i.va)

let prop_bump_flow_fields =
  qcheck_case "packed key: get/bump/zero_flow/flow agree with the vector"
    instance_gen (fun i ->
      match i.layout with
      | None -> true
      | Some l ->
          let nf = Array.length i.count_max in
          let k = Packed_key.encode l i.va in
          Packed_key.flow l k = i.va.(nf)
          && Array.for_all Fun.id
               (Array.init nf (fun f -> Packed_key.get l k f = i.va.(f)))
          &&
          let zeroed = Array.copy i.va in
          zeroed.(nf) <- 0;
          Packed_key.zero_flow l k = Packed_key.encode l zeroed
          &&
          (* bump the first field that has headroom, if any *)
          let f = ref (-1) in
          Array.iteri
            (fun j maxv -> if !f < 0 && i.va.(j) < maxv then f := j)
            i.count_max;
          !f < 0
          ||
          let bumped = Array.copy i.va in
          bumped.(!f) <- bumped.(!f) + 1;
          Packed_key.bump l k !f = Packed_key.encode l bumped)

(* The 62-bit budget is exact: a layout of total width 62 packs, one
   more bit does not. Widths: a field with maximum (1 lsl b) - 1 is b
   bits wide. With m = 1 there are two count fields plus the flow. *)
let test_budget_boundary () =
  let mk c0 c1 fl =
    Packed_key.make ~m:1 ~count_max:[| c0; c1 |] ~flow_max:fl
  in
  let wide b = (1 lsl b) - 1 in
  Alcotest.(check bool)
    "62 bits fits" true
    (mk (wide 31) (wide 15) (wide 16) <> None);
  Alcotest.(check bool)
    "63 bits overflows" true
    (mk (wide 31) (wide 16) (wide 16) = None);
  Alcotest.(check bool)
    "zero-width fields are free" true
    (mk (wide 62) 0 0 <> None);
  (match mk (wide 31) (wide 15) (wide 16) with
  | Some l -> Alcotest.(check int) "total_bits" 62 (Packed_key.total_bits l)
  | None -> Alcotest.fail "62-bit layout must pack");
  Alcotest.check_raises "negative maxima rejected"
    (Invalid_argument "Packed_key.make: negative count_max") (fun () ->
      ignore (Packed_key.make ~m:1 ~count_max:[| -1; 0 |] ~flow_max:0))

(* Tight tier: new-server fields are sized by N - E, since every new
   server sits on a node that is not pre-existing. On a 128-node path
   with M = 4 capacities up to 15 (a 4-bit flow), the uniform layout
   needs 20 fields x 8 bits; the tight one sizes the four n fields by
   N - E and the four reuse fields of the one initial mode by E. *)
let test_tight_tier () =
  let modes = Modes.make [ 3; 6; 10; 15 ] in
  let path = Generator.path ~n:128 ~client_requests:1 in
  let pre e = Tree.with_pre_existing path (List.init e (fun j -> (j, 2))) in
  let bits e = Dp_power.packed_bits (pre e) ~modes in
  Alcotest.(check (option int))
    "N = E = 128: zero-width n fields, 4 x 8 + 4" (Some 36) (bits 128);
  Alcotest.(check (option int))
    "E = 100: 4 x bits(28) + 4 x bits(100) + 4" (Some 52) (bits 100);
  Alcotest.(check (option int))
    "E = 1: 4 x bits(127) + 4 x 1 + 4" (Some 36) (bits 1)

(* The wide fallback serves instances whose tight layout still exceeds
   62 bits. Every case first checks that it is over budget, so the
   tests keep hitting the fallback if layouts tighten later. *)
let assert_wide name tree ~modes =
  Alcotest.(check (option int))
    (name ^ ": over the packed budget") None
    (Dp_power.packed_bits tree ~modes)

let close a b = abs_float (a -. b) <= 1e-9 *. Float.max 1. (abs_float b)

let agrees_with_brute t ~modes ~power ~cost ~bound =
  match
    ( Dp_power.solve t ~modes ~power ~cost ~bound (),
      Brute.min_power t ~modes ~power ~cost ~bound () )
  with
  | None, None -> true
  | Some d, Some (b, _) ->
      close d.Dp_power.power b
      && d.Dp_power.cost <= bound *. (1. +. 1e-9)
      && Solution.is_valid t ~w:(Modes.max_capacity modes) d.Dp_power.solution
      && close
           (Solution.power t modes power d.Dp_power.solution)
           d.Dp_power.power
      && close
           (Solution.modal_cost t modes cost d.Dp_power.solution)
           d.Dp_power.cost
  | Some _, None | None, Some _ -> false

(* The Theorem 2 gadgets on 7 and 8 items (M = 9 and 10, 15 and 17
   nodes): the decision matches 2-Partition and the optimum matches
   the oracle. *)
let test_npc_gadgets () =
  List.iter
    (fun items ->
      let inst = Npc.build items in
      let name = String.concat "," (List.map string_of_int items) in
      let modes = inst.Npc.modes in
      assert_wide name inst.Npc.tree ~modes;
      check cb (name ^ ": decide = 2-Partition")
        (Npc.two_partition_exists items) (Npc.decide inst);
      let cost =
        Cost.modal_uniform ~modes:(Modes.count modes) ~create:0. ~delete:0.
          ~changed:0.
      in
      check cb (name ^ ": optimum = brute") true
        (agrees_with_brute inst.Npc.tree ~modes ~power:inst.Npc.power ~cost
           ~bound:infinity))
    [ [ 2; 3; 4; 5; 6; 7; 9 ]; [ 1; 2; 3; 4; 5; 6; 7; 8 ] ]

(* M = 8 with two pre-existing servers at each of three initial modes:
   the six reuse rows alone need 48 bits. *)
let modes_8 = Modes.make [ 2; 3; 4; 5; 6; 8; 10; 12 ]

let m8_tree seed =
  let rng = Rng.create seed in
  let t = small_tree rng ~nodes:(8 + (seed mod 5)) ~max_requests:5 in
  let chosen = Rng.sample_without_replacement rng 6 (Tree.size t) in
  Tree.with_pre_existing t
    (List.mapi (fun i j -> (j, [| 1; 4; 8 |].(i mod 3))) chosen)

let test_m8_vs_brute () =
  let power = Power.paper_exp3 ~modes:modes_8 in
  let cost =
    Cost.modal_uniform ~modes:8 ~create:0.4 ~delete:0.3 ~changed:0.1
  in
  List.iter
    (fun seed ->
      let t = m8_tree seed in
      let name = Printf.sprintf "seed %d" seed in
      assert_wide name t ~modes:modes_8;
      List.iter
        (fun bound ->
          check cb
            (Printf.sprintf "%s bound %g: optimum = brute" name bound)
            true
            (agrees_with_brute t ~modes:modes_8 ~power ~cost ~bound))
        [ infinity; 3.; 1.5 ];
      (* Every frontier point is the oracle's optimum at its cost. *)
      List.iter
        (fun (r : Dp_power.result) ->
          match
            Brute.min_power t ~modes:modes_8 ~power ~cost
              ~bound:r.Dp_power.cost ()
          with
          | Some (b, _) ->
              check cb (name ^ ": frontier point optimal") true
                (close r.Dp_power.power b)
          | None -> Alcotest.fail (name ^ ": frontier point infeasible"))
        (Dp_power.frontier t ~modes:modes_8 ~power ~cost))
    [ 1; 2; 3; 4; 5; 6 ]

(* Packed and wide solves of one objective, past the oracle's reach
   if need be: under the server-count cost (create = delete = changed
   = 0, so cost = R) neither cost nor power depends on which nodes are
   pre-existing. A tree without pre-existing servers packs (M = 8
   needs only its n fields); re-marking six of its 8-14 nodes at three
   initial modes pushes the twin over budget. Both must reach the same
   optimum at every bound and the same frontier. *)
let count_cost = Cost.modal_uniform ~modes:8 ~create:0. ~delete:0. ~changed:0.

let power_8 = Power.paper_exp3 ~modes:modes_8

let twin_gen =
  QCheck2.Gen.map
    (fun seed ->
      let rng = Rng.create seed in
      let t = small_tree rng ~nodes:(8 + Rng.int rng 7) ~max_requests:5 in
      let chosen = Rng.sample_without_replacement rng 6 (Tree.size t) in
      ( t,
        Tree.with_pre_existing t
          (List.mapi (fun i j -> (j, [| 1; 4; 8 |].(i mod 3))) chosen) ))
    QCheck2.Gen.(int_bound 1_000_000)

let crosses_tiers (packed, wide) =
  Dp_power.packed_bits packed ~modes:modes_8 <> None
  && Dp_power.packed_bits wide ~modes:modes_8 = None

let prop_twin_solves =
  qcheck_case ~count:40 "dp_power: packed and wide solves agree" twin_gen
    (fun ((packed, wide) as twins) ->
      crosses_tiers twins
      && List.for_all
           (fun bound ->
             let solve t =
               Dp_power.solve t ~modes:modes_8 ~power:power_8 ~cost:count_cost
                 ~bound ()
             in
             match (solve packed, solve wide) with
             | None, None -> true
             | Some p, Some w ->
                 close p.Dp_power.power w.Dp_power.power
                 && close p.Dp_power.cost w.Dp_power.cost
                 && Solution.is_valid wide ~w:(Modes.max_capacity modes_8)
                      w.Dp_power.solution
             | Some _, None | None, Some _ -> false)
           [ infinity; 4.; 2. ])

let prop_twin_frontiers =
  qcheck_case ~count:40 "dp_power: packed and wide frontiers agree" twin_gen
    (fun ((packed, wide) as twins) ->
      let points t =
        List.map
          (fun r -> (r.Dp_power.cost, r.Dp_power.power))
          (Dp_power.frontier t ~modes:modes_8 ~power:power_8 ~cost:count_cost)
      in
      crosses_tiers twins
      && List.equal
           (fun (c1, p1) (c2, p2) -> close c1 c2 && close p1 p2)
           (points packed) (points wide))

(* A trace shows which tier each solve took: the [dp_power.solve] span
   carries [layout] and [key_bits] (for the wide tier, the width the
   tight layout would have needed). *)
let test_solve_span_names_layout () =
  let module Span = Replica_obs.Span in
  let packed, wide =
    QCheck2.Gen.generate1 ~rand:(Random.State.make [| 7 |]) twin_gen
  in
  let uniform = small_tree (Rng.create 3) ~nodes:9 ~max_requests:5 in
  Span.reset ();
  Span.set_enabled true;
  let spans =
    Fun.protect
      ~finally:(fun () ->
        Span.set_enabled false;
        Span.reset ())
      (fun () ->
        ignore
          (Dp_power.solve uniform ~modes:modes_2 ~power:power_exp3
             ~cost:cost_cheap ());
        List.iter
          (fun t ->
            ignore
              (Dp_power.solve t ~modes:modes_8 ~power:power_8
                 ~cost:count_cost ()))
          [ packed; wide ];
        Span.export ())
  in
  let solves =
    List.filter_map
      (fun (s : Span.span) ->
        if s.Span.name <> "dp_power.solve" then None
        else
          let arg k = List.assoc_opt k s.Span.args in
          match (arg "layout", arg "key_bits") with
          | Some (Span.Str l), Some (Span.Int b) ->
              Some (s.Span.start_ns, (l, b))
          | _ -> Alcotest.fail "dp_power.solve span lacks layout/key_bits")
      spans
    |> List.sort compare |> List.map snd
  in
  let bits t modes = Option.get (Dp_power.packed_bits t ~modes) in
  match solves with
  | [ (l1, b1); (l2, b2); (l3, b3) ] ->
      check (Alcotest.pair Alcotest.string ci) "uniform"
        ("uniform", bits uniform modes_2) (l1, b1);
      check (Alcotest.pair Alcotest.string ci) "tight"
        ("tight", bits packed modes_8) (l2, b2);
      check Alcotest.string "wide" "wide" l3;
      check cb "wide width is over budget" true (b3 > 62)
  | _ -> Alcotest.fail "expected three dp_power.solve spans"

let () =
  Alcotest.run "packed_key"
    [
      ( "packed key",
        [
          prop_roundtrip;
          prop_order;
          prop_counts_group;
          prop_carry_free_add;
          prop_bump_flow_fields;
          Alcotest.test_case "62-bit budget boundary" `Quick
            test_budget_boundary;
        ] );
      ( "layout tiers",
        [
          Alcotest.test_case "tight tier sizes n by N - E" `Quick
            test_tight_tier;
          Alcotest.test_case "solve span names the layout" `Quick
            test_solve_span_names_layout;
        ] );
      ( "wide fallback",
        [
          Alcotest.test_case "Theorem 2 gadgets vs brute" `Quick
            test_npc_gadgets;
          Alcotest.test_case "M = 8, three initial modes vs brute" `Quick
            test_m8_vs_brute;
        ] );
      ( "packed vs wide",
        [ prop_twin_solves; prop_twin_frontiers ] );
    ]
