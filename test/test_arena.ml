(* Direct tests of the flat structures under the DP cores: [Arena]
   catenable placement lists (element order, sharing through [graft]
   and compaction) and the insertion-ordered [Int_table]. *)

open Replica_core
open Helpers

(* A placement of [l], built by snocs; element [x] carries flow [10x]. *)
let of_nodes t l =
  List.fold_left
    (fun acc x -> Arena.snoc t acc ~node:x ~flow:(10 * x))
    Arena.empty l

let nodes = Alcotest.(list int)
let elements = Alcotest.(list (pair int int))

let test_empty () =
  let t = Arena.create () in
  check ci "count" 0 (Arena.count t Arena.empty);
  check nodes "nodes" [] (Arena.nodes t Arena.empty);
  check ci "only the reserved cell" 1 (Arena.length t)

let test_singleton () =
  let t = Arena.create () in
  let c = Arena.leaf t ~node:7 ~flow:3 in
  check ci "count" 1 (Arena.count t c);
  check elements "to_list" [ (7, 3) ] (Arena.to_list t c)

let test_append_order () =
  let t = Arena.create () in
  let a = of_nodes t [ 1; 2 ] and b = of_nodes t [ 3; 4 ] in
  check nodes "left to right" [ 1; 2; 3; 4 ]
    (Arena.nodes t (Arena.append t a b));
  check ci "count" 4 (Arena.count t (Arena.append t a b))

let test_append_identity () =
  let t = Arena.create () in
  let a = of_nodes t [ 1; 2 ] in
  let cells = Arena.length t in
  check ci "empty left" a (Arena.append t Arena.empty a);
  check ci "empty right" a (Arena.append t a Arena.empty);
  check ci "no cell pushed" cells (Arena.length t)

let test_cons_snoc () =
  let t = Arena.create () in
  let a = of_nodes t [ 2; 3 ] in
  check nodes "cons" [ 1; 2; 3 ]
    (Arena.nodes t (Arena.append t (Arena.leaf t ~node:1 ~flow:0) a));
  check nodes "snoc" [ 2; 3; 4 ]
    (Arena.nodes t (Arena.snoc t a ~node:4 ~flow:0));
  check nodes "persistent" [ 2; 3 ] (Arena.nodes t a)

let test_roundtrip () =
  (* capacity 2 forces the backing arrays to grow repeatedly *)
  let t = Arena.create ~capacity:2 () in
  let l = List.init 100 Fun.id in
  check elements "to_list" (List.map (fun x -> (x, 10 * x)) l)
    (Arena.to_list t (of_nodes t l))

let test_clear () =
  let t = Arena.create () in
  ignore (of_nodes t [ 1; 2; 3 ]);
  Arena.clear t;
  check ci "back to the reserved cell" 1 (Arena.length t);
  check nodes "refill" [ 4; 5 ] (Arena.nodes t (of_nodes t [ 4; 5 ]))

let test_iter_order () =
  let t = Arena.create () in
  let c =
    Arena.append t (of_nodes t [ 1; 2 ])
      (Arena.append t (of_nodes t [ 3 ]) (of_nodes t [ 4 ]))
  in
  let seen = ref [] in
  Arena.iter t (fun node flow -> seen := (node, flow) :: !seen) c;
  check elements "left to right"
    [ (1, 10); (2, 20); (3, 30); (4, 40) ]
    (List.rev !seen);
  check ci "count" 4 (Arena.count t c)

let test_shape_independence () =
  (* Same contents through different association orders. *)
  let t = Arena.create () in
  let a = Arena.append t (of_nodes t [ 1 ]) (of_nodes t [ 2; 3 ]) in
  let b = Arena.append t (of_nodes t [ 1; 2 ]) (of_nodes t [ 3 ]) in
  check elements "same list" (Arena.to_list t a) (Arena.to_list t b)

let test_deep_spine () =
  (* One million snocs: traversal uses an explicit stack, so the
     left-deep spine must not overflow. *)
  let t = Arena.create () in
  let c = ref Arena.empty in
  for i = 0 to 999_999 do
    c := Arena.snoc t !c ~node:i ~flow:0
  done;
  check ci "count" 1_000_000 (Arena.count t !c);
  check ci "materializes" 1_000_000 (List.length (Arena.nodes t !c))

(* [shared] is referenced by both roots; [junk] cells are dead. *)
let two_roots t ~shared ~a ~b ~junk =
  let s = of_nodes t shared in
  ignore (of_nodes t junk);
  let x = Arena.append t (of_nodes t a) s in
  ignore (of_nodes t junk);
  let y = Arena.append t s (of_nodes t b) in
  (x, y)

let test_graft_shares () =
  let src = Arena.create () and dst = Arena.create () in
  let x, y = two_roots src ~shared:[ 1; 2; 3 ] ~a:[] ~b:[ 4 ] ~junk:[ 9 ] in
  let map = Array.make (Arena.length src) 0 in
  let x' = Arena.graft ~src ~dst ~map x in
  let after_x = Arena.length dst in
  let y' = Arena.graft ~src ~dst ~map y in
  check elements "first root" (Arena.to_list src x) (Arena.to_list dst x');
  check elements "second root" (Arena.to_list src y) (Arena.to_list dst y');
  (* y adds only its own leaf and the cat cell joining it to the
     already-copied shared prefix *)
  check ci "shared prefix copied once" (after_x + 2) (Arena.length dst)

let gen_lists =
  QCheck2.Gen.(
    quad (list_size (int_bound 6) small_nat) (list_size (int_bound 6) small_nat)
      (list_size (int_bound 6) small_nat) (list_size (int_bound 6) small_nat))

let prop_compaction =
  (* Compacting two roots that share a placement keeps both contents
     and leaves exactly the live cells: as many as building the same
     two roots in a fresh arena without the dead cells. *)
  qcheck_case "compaction keeps contents and copies shared cells once"
    gen_lists (fun (shared, a, b, junk) ->
      let t = Arena.create () in
      let x, y = two_roots t ~shared ~a ~b ~junk in
      let lx = Arena.to_list t x and ly = Arena.to_list t y in
      let c = Arena.compact_begin t in
      let x' = Arena.compact_root t c x in
      let y' = Arena.compact_root t c y in
      Arena.compact_commit t c;
      let fresh = Arena.create () in
      ignore (two_roots fresh ~shared ~a ~b ~junk:[]);
      Arena.to_list t x' = lx
      && Arena.to_list t y' = ly
      && Arena.length t = Arena.length fresh)

let prop_graft =
  qcheck_case "graft keeps contents across arenas" gen_lists
    (fun (shared, a, b, junk) ->
      let src = Arena.create () and dst = Arena.create () in
      ignore (of_nodes dst junk);
      let x, y = two_roots src ~shared ~a ~b ~junk in
      let map = Array.make (Arena.length src) 0 in
      let x' = Arena.graft ~src ~dst ~map x in
      let y' = Arena.graft ~src ~dst ~map y in
      Arena.to_list dst x' = Arena.to_list src x
      && Arena.to_list dst y' = Arena.to_list src y)

(* --- Int_table --- *)

let entries t = Int_table.fold t [] (fun acc k v -> (k, v) :: acc) |> List.rev

let test_insertion_order () =
  (* 1000 scattered keys force several rehashes and dense-array
     growths; iteration must still follow insertion order, and a
     repeated key must neither move nor overwrite. *)
  let t = Int_table.create () in
  let keys = List.init 1000 (fun i -> (i * 7919) mod 1009) in
  List.iter (fun k -> Int_table.set_val t (Int_table.reserve t k) (k + 1)) keys;
  check ci "duplicate rejected" (-1) (Int_table.reserve t (List.hd keys));
  check elements "insertion order"
    (List.map (fun k -> (k, k + 1)) keys)
    (entries t);
  List.iteri
    (fun i k -> check ci "dense index" i (Int_table.index t k))
    keys

let test_clear_table () =
  let t = Int_table.create () in
  List.iter (fun k -> Int_table.replace t k k) [ 5; 3; 9 ];
  Int_table.clear t;
  check ci "empty" 0 (Int_table.length t);
  check cb "key gone" false (Int_table.mem t 5);
  List.iter (fun k -> Int_table.replace t k (2 * k)) [ 9; 5 ];
  check elements "refilled in the new order" [ (9, 18); (5, 10) ] (entries t)

let test_copy () =
  let t = Int_table.create () in
  List.iter (fun k -> Int_table.replace t k (k * k)) [ 4; 1; 3 ];
  let c = Int_table.copy t in
  check elements "same entries, same order" (entries t) (entries c);
  Int_table.replace c 7 0;
  Int_table.replace c 4 (-1);
  Int_table.clear t;
  check elements "independent of the original"
    [ (4, -1); (1, 1); (3, 9); (7, 0) ]
    (entries c);
  check ci "original cleared alone" 0 (Int_table.length t)

let () =
  Alcotest.run "arena"
    [
      ( "basics",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "singleton" `Quick test_singleton;
          Alcotest.test_case "append order" `Quick test_append_order;
          Alcotest.test_case "append identity" `Quick test_append_identity;
          Alcotest.test_case "cons/snoc" `Quick test_cons_snoc;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "clear" `Quick test_clear;
        ] );
      ( "traversal",
        [
          Alcotest.test_case "iter order" `Quick test_iter_order;
          Alcotest.test_case "deep spine" `Slow test_deep_spine;
          Alcotest.test_case "shape independence" `Quick
            test_shape_independence;
        ] );
      ( "sharing",
        [
          Alcotest.test_case "graft copies a shared prefix once" `Quick
            test_graft_shares;
          prop_graft;
          prop_compaction;
        ] );
      ( "int_table",
        [
          Alcotest.test_case "insertion order" `Quick test_insertion_order;
          Alcotest.test_case "clear" `Quick test_clear_table;
          Alcotest.test_case "copy" `Quick test_copy;
        ] );
    ]
