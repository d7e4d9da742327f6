(* Frozen dense MinCost-WithPre DP: the (E+1) x (N-E+1) grid tables
   that {!Replica_core.Dp_withpre} used before its staircase tables,
   kept as the oracle the staircase is checked against. Memo, spans,
   counters and scratch pools are stripped; the table semantics, the
   cell iteration order and every tie rule are the original ones, so
   its results are the reference placements bit for bit. *)

open Replica_tree
open Replica_core

type table = {
  pre_cap : int;
  new_cap : int;
  flows : int array; (* stride new_cap + 1; -1 = absent *)
  placed : int array;
}

let fresh_table pre_cap new_cap =
  let cells = (pre_cap + 1) * (new_cap + 1) in
  { pre_cap; new_cap; flows = Array.make cells (-1); placed = Array.make cells 0 }

let set t e n ~flow ~placed =
  let i = (e * (t.new_cap + 1)) + n in
  let cur = t.flows.(i) in
  if cur < 0 || flow < cur then begin
    t.flows.(i) <- flow;
    t.placed.(i) <- placed
  end

let iter_cells t f =
  for e = 0 to t.pre_cap do
    let base = e * (t.new_cap + 1) in
    for n = 0 to t.new_cap do
      let flow = t.flows.(base + n) in
      if flow >= 0 then f e n flow t.placed.(base + n)
    done
  done

let extend arena tree sub c =
  let de = if Tree.is_pre_existing tree c then 1 else 0 in
  let into = fresh_table (sub.pre_cap + de) (sub.new_cap + 1 - de) in
  iter_cells sub (fun e n flow placed ->
      set into e n ~flow ~placed;
      let i = ((e + de) * (into.new_cap + 1)) + (n + 1 - de) in
      if into.flows.(i) <> 0 then begin
        into.flows.(i) <- 0;
        into.placed.(i) <- Arena.snoc arena placed ~node:c ~flow
      end);
  into

let convolve arena ~w left ext =
  let into =
    fresh_table (left.pre_cap + ext.pre_cap) (left.new_cap + ext.new_cap)
  in
  iter_cells left (fun e1 n1 lf lp ->
      iter_cells ext (fun e2 n2 rf rp ->
          let flow = lf + rf in
          if flow <= w then begin
            let oi = ((e1 + e2) * (into.new_cap + 1)) + n1 + n2 in
            let cur = into.flows.(oi) in
            if cur < 0 || flow < cur then begin
              into.flows.(oi) <- flow;
              into.placed.(oi) <- Arena.append arena lp rp
            end
          end));
  into

let rec table_of arena tree ~w j =
  let client = Tree.client_load tree j in
  let start = fresh_table 0 0 in
  if client <= w then start.flows.(0) <- client;
  Array.fold_left
    (fun acc c -> convolve arena ~w acc (extend arena tree (table_of arena tree ~w c) c))
    start (Tree.children_array tree j)

let solve tree ~w ~cost =
  let arena = Arena.create () in
  let root = Tree.root tree in
  let table = table_of arena tree ~w root in
  let pre_total = Tree.num_pre_existing tree in
  let root_pre = Tree.is_pre_existing tree root in
  let best = ref None in
  let consider value servers reused placed root_used =
    match !best with
    | Some (v, _, _, _, _) when v <= value -> ()
    | _ -> best := Some (value, servers, reused, placed, root_used)
  in
  iter_cells table (fun e n flow placed ->
      if flow = 0 then begin
        consider
          (Cost.basic_cost cost ~servers:(e + n) ~reused:e ~pre_existing:pre_total)
          (e + n) e placed false;
        if root_pre then
          consider
            (Cost.basic_cost cost ~servers:(e + n + 1) ~reused:(e + 1)
               ~pre_existing:pre_total)
            (e + n + 1) (e + 1) placed true
      end
      else begin
        let reused = e + if root_pre then 1 else 0 in
        consider
          (Cost.basic_cost cost ~servers:(e + n + 1) ~reused ~pre_existing:pre_total)
          (e + n + 1) reused placed true
      end);
  Option.map
    (fun (value, servers, reused, placed, root_used) ->
      let nodes = Arena.nodes arena placed in
      let nodes = if root_used then root :: nodes else nodes in
      {
        Dp_withpre.solution = Solution.of_nodes nodes;
        cost = value;
        servers;
        reused;
      })
    !best

let root_table tree ~w =
  let table = table_of (Arena.create ()) tree ~w (Tree.root tree) in
  Array.init (table.pre_cap + 1) (fun e ->
      Array.init (table.new_cap + 1) (fun n ->
          let flow = table.flows.((e * (table.new_cap + 1)) + n) in
          if flow < 0 then None else Some flow))
