open Replica_tree
open Helpers

let sample () =
  (* Preorder ids:
     0
     ├── 1 (pre@1, clients 2 3)
     │    ├── 2 (clients 1)
     │    └── 3
     └── 4 (clients 5) *)
  Tree.build
    (Tree.node
       [
         Tree.node ~clients:[ 2; 3 ] ~pre:1
           [ Tree.node ~clients:[ 1 ] []; Tree.node [] ];
         Tree.node ~clients:[ 5 ] [];
       ])

let test_build_shape () =
  let t = sample () in
  check ci "size" 5 (Tree.size t);
  check ci "root" 0 (Tree.root t);
  check (Alcotest.option ci) "parent of root" None (Tree.parent t 0);
  check (Alcotest.option ci) "parent of 3" (Some 1) (Tree.parent t 3);
  check (Alcotest.list ci) "children of 0" [ 1; 4 ] (Tree.children t 0);
  check (Alcotest.list ci) "children of 1" [ 2; 3 ] (Tree.children t 1);
  check (Alcotest.list ci) "children of 4 empty" [] (Tree.children t 4)

let test_clients () =
  let t = sample () in
  check (Alcotest.list ci) "clients of 1" [ 2; 3 ] (Tree.clients t 1);
  check ci "client load of 1" 5 (Tree.client_load t 1);
  check ci "client load of 0" 0 (Tree.client_load t 0);
  check ci "num clients" 4 (Tree.num_clients t);
  check ci "total requests" 11 (Tree.total_requests t)

let test_pre_existing () =
  let t = sample () in
  check cb "1 is pre" true (Tree.is_pre_existing t 1);
  check cb "0 not pre" false (Tree.is_pre_existing t 0);
  check (Alcotest.option ci) "initial mode" (Some 1) (Tree.initial_mode t 1);
  check (Alcotest.list ci) "pre set" [ 1 ] (Tree.pre_existing t);
  check ci "pre count" 1 (Tree.num_pre_existing t)

let test_traversal () =
  let t = sample () in
  let post = Array.to_list (Tree.postorder t) in
  check (Alcotest.list ci) "postorder" [ 2; 3; 1; 4; 0 ] post;
  let pre = Array.to_list (Tree.preorder t) in
  check (Alcotest.list ci) "preorder" [ 0; 1; 2; 3; 4 ] pre;
  (* children before parents, structurally *)
  let seen = Hashtbl.create 8 in
  List.iter
    (fun j ->
      List.iter
        (fun c -> check cb "child visited first" true (Hashtbl.mem seen c))
        (Tree.children t j);
      Hashtbl.replace seen j ())
    post

let test_subtree_metrics () =
  let t = sample () in
  check ci "subtree size of 0" 4 (Tree.subtree_size t 0);
  check ci "subtree size of 1" 2 (Tree.subtree_size t 1);
  check ci "subtree size of leaf" 0 (Tree.subtree_size t 2);
  check ci "subtree pre of 0" 1 (Tree.subtree_pre_count t 0);
  check ci "subtree pre of 1" 0 (Tree.subtree_pre_count t 1);
  check ci "depth root" 0 (Tree.depth t 0);
  check ci "depth of 3" 2 (Tree.depth t 3);
  check ci "height" 2 (Tree.height t)

let test_ancestors () =
  let t = sample () in
  check (Alcotest.list ci) "ancestors of 3" [ 1; 0 ] (Tree.ancestors t 3);
  check (Alcotest.list ci) "ancestors of root" [] (Tree.ancestors t 0);
  check cb "0 anc of 3" true (Tree.is_ancestor t ~anc:0 ~desc:3);
  check cb "1 anc of 3" true (Tree.is_ancestor t ~anc:1 ~desc:3);
  check cb "4 not anc of 3" false (Tree.is_ancestor t ~anc:4 ~desc:3);
  check cb "3 not anc of 3" false (Tree.is_ancestor t ~anc:3 ~desc:3);
  check cb "3 not anc of 1" false (Tree.is_ancestor t ~anc:3 ~desc:1)

let test_with_pre_existing () =
  let t = sample () in
  let t' = Tree.with_pre_existing t [ (2, 2); (3, 1) ] in
  check (Alcotest.list ci) "new pre set" [ 2; 3 ] (Tree.pre_existing t');
  check (Alcotest.option ci) "mode of 2" (Some 2) (Tree.initial_mode t' 2);
  check cb "old pre dropped" false (Tree.is_pre_existing t' 1);
  (* original untouched *)
  check cb "original intact" true (Tree.is_pre_existing t 1)

let test_with_clients () =
  let t = sample () in
  let t' = Tree.with_clients t (fun j -> if j = 0 then [ 9 ] else []) in
  check ci "new root load" 9 (Tree.client_load t' 0);
  check ci "cleared elsewhere" 0 (Tree.client_load t' 1);
  check cb "pre preserved" true (Tree.is_pre_existing t' 1);
  check ci "original load intact" 5 (Tree.client_load t 1)

let test_serialization_roundtrip () =
  let t = sample () in
  let t' = Tree.of_string (Tree.to_string t) in
  check cb "roundtrip equal" true (Tree.equal t t')

let test_serialization_malformed () =
  Alcotest.check_raises "garbage" (Invalid_argument "Tree.of_string: malformed input")
    (fun () -> ignore (Tree.of_string "nonsense"));
  Alcotest.check_raises "bad field" (Invalid_argument "Tree.of_string: malformed input")
    (fun () -> ignore (Tree.of_string "-1 px c"))

let test_of_parents_validation () =
  let bad () =
    ignore
      (Tree.of_parents ~parents:[| 0 |] ~clients:[| [] |] ~pre:[| None |])
  in
  Alcotest.check_raises "self root" (Invalid_argument "Tree: node 0 must be the root") bad;
  let cyclic () =
    ignore
      (Tree.of_parents ~parents:[| -1; 2; 1 |]
         ~clients:[| []; []; [] |]
         ~pre:[| None; None; None |])
  in
  Alcotest.check_raises "cycle" (Invalid_argument "Tree: disconnected or cyclic parent structure") cyclic;
  let negative_requests () =
    ignore
      (Tree.of_parents ~parents:[| -1 |] ~clients:[| [ -1 ] |] ~pre:[| None |])
  in
  Alcotest.check_raises "negative requests" (Invalid_argument "Tree: negative request count")
    negative_requests

let test_single_node () =
  let t = Tree.build (Tree.node ~clients:[ 3 ] []) in
  check ci "size" 1 (Tree.size t);
  check ci "height" 0 (Tree.height t);
  check (Alcotest.list ci) "postorder" [ 0 ] (Array.to_list (Tree.postorder t))

let test_equal () =
  let t = sample () in
  check cb "reflexive" true (Tree.equal t t);
  let t' = Tree.with_clients t (fun j -> Tree.clients t j) in
  check cb "rebuilt equal" true (Tree.equal t t');
  let t'' = Tree.with_clients t (fun _ -> []) in
  check cb "different clients differ" false (Tree.equal t t'')

(* --- Frozen fingerprints and derived-tree sharing --- *)

(* [Tree.subtree_fingerprints] as it was before the inlined, loop-based
   rewrite, over the public accessors: the values must stay bit-identical,
   since the DP memos key on them. *)
let frozen_fingerprints t =
  let open Int64 in
  let fp_mix z =
    let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
    logxor z (shift_right_logical z 31)
  in
  let combine h x = fp_mix (logxor (mul h 0x9E3779B97F4A7C15L) x) in
  let fps = Array.make (Tree.size t) 0L in
  Array.iter
    (fun j ->
      let clients = Tree.clients t j and qos = Tree.client_qos t j in
      let h = ref (fp_mix (of_int (List.length clients + 1))) in
      List.iter2
        (fun r q ->
          h := combine !h (of_int r);
          h := combine !h (of_int q))
        clients qos;
      (match Tree.initial_mode t j with
      | None -> h := combine !h 0L
      | Some m -> h := combine !h (of_int (m + 1)));
      h := combine !h (of_int (Tree.bandwidth t j));
      Array.iter (fun c -> h := combine !h fps.(c)) (Tree.children_array t j);
      fps.(j) <- !h)
    (Tree.postorder t);
  fps

(* Fat, high, constrained and pre-existing trees. *)
let fingerprint_trees () =
  List.concat_map
    (fun seed ->
      let rng = Rng.create seed in
      let fat = Generator.random rng (Generator.fat ~nodes:(20 + seed) ()) in
      let high = Generator.random rng (Generator.high ~nodes:(30 + seed) ()) in
      [
        fat;
        high;
        Generator.tight_constraints rng fat;
        Generator.loose_constraints rng high;
        Generator.add_pre_existing rng ~mode:2 fat (seed mod 9);
        Generator.add_pre_existing rng high 5;
      ])
    seeds

let test_fingerprints_frozen () =
  List.iteri
    (fun i t ->
      check
        (Alcotest.array Alcotest.int64)
        (Printf.sprintf "tree %d" i) (frozen_fingerprints t)
        (Tree.subtree_fingerprints t))
    (fingerprint_trees ())

(* A derived tree shares its parent's arrays but must behave exactly as
   one rebuilt from scratch, and leave its parent untouched. *)
let test_with_pre_existing_rebuilt () =
  List.iteri
    (fun i t ->
      let before = Tree.to_string t in
      let rng = Rng.create i in
      let marks =
        List.filter_map
          (fun j -> if Rng.int rng 3 = 0 then Some (j, 1 + Rng.int rng 3) else None)
          (List.init (Tree.size t) Fun.id)
      in
      let derived = Tree.with_pre_existing t marks in
      let rebuilt = Tree.of_string (Tree.to_string derived) in
      let msg = Printf.sprintf "tree %d" i in
      check Alcotest.string (msg ^ ": parent untouched") before (Tree.to_string t);
      check cb (msg ^ ": equal") true (Tree.equal rebuilt derived);
      check (Alcotest.array Alcotest.int64) (msg ^ ": fingerprints")
        (Tree.subtree_fingerprints rebuilt) (Tree.subtree_fingerprints derived);
      check (Alcotest.array ci) (msg ^ ": postorder") (Tree.postorder rebuilt)
        (Tree.postorder derived);
      check ci (msg ^ ": pre count") (Tree.num_pre_existing rebuilt)
        (Tree.num_pre_existing derived);
      for j = 0 to Tree.size t - 1 do
        check ci (msg ^ ": subtree pre") (Tree.subtree_pre_count rebuilt j)
          (Tree.subtree_pre_count derived j);
        check ci (msg ^ ": subtree size") (Tree.subtree_size rebuilt j)
          (Tree.subtree_size derived j);
        check ci (msg ^ ": depth") (Tree.depth rebuilt j) (Tree.depth derived j)
      done)
    (fingerprint_trees ())

(* The constraint flags agree with the per-client and per-link
   accessors on plain, constrained and derived trees, and a query
   allocates nothing: the engine asks on every epoch. *)
let test_constraint_flags () =
  let expect_qos t =
    List.exists
      (fun j ->
        List.exists2
          (fun r q -> r > 0 && q <> Tree.unbounded)
          (Tree.clients t j) (Tree.client_qos t j))
      (List.init (Tree.size t) Fun.id)
  in
  let expect_bw t =
    List.exists
      (fun j -> j > 0 && Tree.bandwidth t j <> Tree.unbounded)
      (List.init (Tree.size t) Fun.id)
  in
  let rng = Rng.create 160 in
  let fat = Generator.random rng (Generator.fat ~nodes:160 ()) in
  let qos = Generator.add_qos rng fat ~min_qos:0 ~max_qos:3 in
  let trees =
    [
      fat;
      qos;
      Generator.add_bandwidth rng fat ~slack:1.5;
      Generator.tight_constraints rng fat;
      (* bounds on idle clients only: not a QoS constraint *)
      Tree.with_clients qos (fun j ->
          List.map (fun _ -> 0) (Tree.clients qos j));
      Tree.with_pre_existing (Generator.loose_constraints rng fat) [ (3, 1) ];
    ]
  in
  List.iteri
    (fun i t ->
      let msg = Printf.sprintf "tree %d" i in
      check cb (msg ^ ": has_qos") (expect_qos t) (Tree.has_qos t);
      check cb (msg ^ ": has_bandwidth") (expect_bw t) (Tree.has_bandwidth t);
      check cb (msg ^ ": is_constrained")
        (expect_qos t || expect_bw t)
        (Tree.is_constrained t))
    trees;
  check cb "idle bounds do not constrain" false
    (Tree.has_qos (List.nth trees 4));
  let words f t =
    let before = Gc.minor_words () in
    for _ = 1 to 1000 do
      ignore (Sys.opaque_identity (f t))
    done;
    Gc.minor_words () -. before
  in
  List.iter
    (fun t ->
      check cb "has_qos allocates nothing" true (words Tree.has_qos t < 100.);
      check cb "is_constrained allocates nothing" true
        (words Tree.is_constrained t < 100.))
    [ fat; qos ]

let () =
  Alcotest.run "tree"
    [
      ( "structure",
        [
          Alcotest.test_case "build shape" `Quick test_build_shape;
          Alcotest.test_case "clients" `Quick test_clients;
          Alcotest.test_case "pre-existing" `Quick test_pre_existing;
          Alcotest.test_case "single node" `Quick test_single_node;
          Alcotest.test_case "equality" `Quick test_equal;
          Alcotest.test_case "constraint flags" `Quick test_constraint_flags;
        ] );
      ( "traversal",
        [
          Alcotest.test_case "orders" `Quick test_traversal;
          Alcotest.test_case "subtree metrics" `Quick test_subtree_metrics;
          Alcotest.test_case "ancestors" `Quick test_ancestors;
        ] );
      ( "derivation",
        [
          Alcotest.test_case "with_pre_existing" `Quick test_with_pre_existing;
          Alcotest.test_case "with_clients" `Quick test_with_clients;
          Alcotest.test_case "with_pre_existing = rebuilt" `Quick
            test_with_pre_existing_rebuilt;
          Alcotest.test_case "fingerprints = frozen" `Quick
            test_fingerprints_frozen;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "roundtrip" `Quick test_serialization_roundtrip;
          Alcotest.test_case "malformed" `Quick test_serialization_malformed;
          Alcotest.test_case "of_parents validation" `Quick test_of_parents_validation;
        ] );
    ]
