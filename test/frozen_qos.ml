(* Frozen QoS/bandwidth-constrained MinCost DP: the (flow, slack)
   Pareto-frontier program after Rehn-Sonigo (arXiv 0706.3350) that
   served constrained trees before {!Replica_core.Dp_withpre} learned
   slack classes, kept as the oracle the folded DP is checked against.
   Counters and spans are stripped; the frontier semantics, the entry
   iteration order and every tie rule are the original ones, so its
   results are the reference placements bit for bit.

   Each (e, n) cell of a node's table holds a frontier of (flow, slack)
   pairs — minimal flow, maximal slack, where slack is the number of
   extra hops the eventual server of the still-flowing clients may sit
   above the node ([Tree.unbounded]: no flowing client is bounded).
   Passing flow up a link needs the flow to fit the link's bandwidth
   and slack >= 1, and decrements the slack; placing a server yields
   (flow 0, unbounded slack) one server up. *)

open Replica_tree
open Replica_core

(* Entry pool: slot 0 is the nil terminator; every frontier of every
   table of one solve threads through the same pool. *)
type pool = {
  mutable p_flow : int array;
  mutable p_slack : int array;
  mutable p_placed : int array;
  mutable p_next : int array;
  mutable p_len : int;
}

type ctx = { pool : pool; arena : Arena.t }

let pool_create () =
  {
    p_flow = Array.make 1024 0;
    p_slack = Array.make 1024 0;
    p_placed = Array.make 1024 0;
    p_next = Array.make 1024 0;
    p_len = 1;
  }

let pool_alloc p ~flow ~slack ~placed ~next =
  let cap = Array.length p.p_flow in
  if p.p_len = cap then begin
    let grow a = Array.append a (Array.make cap 0) in
    p.p_flow <- grow p.p_flow;
    p.p_slack <- grow p.p_slack;
    p.p_placed <- grow p.p_placed;
    p.p_next <- grow p.p_next
  end;
  let i = p.p_len in
  p.p_flow.(i) <- flow;
  p.p_slack.(i) <- slack;
  p.p_placed.(i) <- placed;
  p.p_next.(i) <- next;
  p.p_len <- i + 1;
  i

type table = {
  pre_cap : int;
  new_cap : int;
  (* heads.(e * (new_cap+1) + n): frontier head, flow strictly
     increasing and slack strictly increasing; 0 = empty *)
  heads : int array;
}

let make_table pre_cap new_cap =
  { pre_cap; new_cap; heads = Array.make ((pre_cap + 1) * (new_cap + 1)) 0 }

let cell_index t e n = (e * (t.new_cap + 1)) + n
let dec_slack s = if s = Tree.unbounded then s else s - 1

(* Insert keeping the frontier Pareto-minimal (min flow, max slack);
   an exact tie keeps the incumbent. *)
let rec insert_from p heads idx ~flow ~slack ~placed prev cur =
  if cur = 0 then begin
    let node = pool_alloc p ~flow ~slack ~placed ~next:0 in
    if prev = 0 then heads.(idx) <- node else p.p_next.(prev) <- node
  end
  else begin
    let xf = p.p_flow.(cur) and xs = p.p_slack.(cur) in
    if xf <= flow && xs >= slack then ()
    else if flow <= xf && slack >= xs then begin
      let nxt = p.p_next.(cur) in
      if prev = 0 then heads.(idx) <- nxt else p.p_next.(prev) <- nxt;
      insert_from p heads idx ~flow ~slack ~placed prev nxt
    end
    else if xf < flow then
      insert_from p heads idx ~flow ~slack ~placed cur p.p_next.(cur)
    else begin
      let node = pool_alloc p ~flow ~slack ~placed ~next:cur in
      if prev = 0 then heads.(idx) <- node else p.p_next.(prev) <- node
    end
  end

let insert ctx t e n ~flow ~slack ~placed =
  let idx = cell_index t e n in
  insert_from ctx.pool t.heads idx ~flow ~slack ~placed 0 t.heads.(idx)

(* e ascending, n ascending, frontier order. *)
let iter_entries ctx t f =
  let p = ctx.pool in
  for e = 0 to t.pre_cap do
    for n = 0 to t.new_cap do
      let cur = ref t.heads.(cell_index t e n) in
      while !cur <> 0 do
        let i = !cur in
        f e n i;
        cur := p.p_next.(i)
      done
    done
  done

let rec table_of ctx tree ~w j =
  let start = make_table 0 0 in
  let client = Tree.client_load tree j in
  if client <= w then begin
    let slack = if client = 0 then Tree.unbounded else Tree.qos_radius tree j in
    start.heads.(0) <-
      pool_alloc ctx.pool ~flow:client ~slack ~placed:Arena.empty ~next:0
  end;
  List.fold_left (merge ctx tree ~w) start (Tree.children tree j)

and merge ctx tree ~w left c =
  let sub = table_of ctx tree ~w c in
  let p = ctx.pool in
  let c_pre = Tree.is_pre_existing tree c in
  let bw = Tree.bandwidth tree c in
  let extended =
    make_table
      (sub.pre_cap + if c_pre then 1 else 0)
      (sub.new_cap + if c_pre then 0 else 1)
  in
  iter_entries ctx sub (fun e n x ->
      let xflow = p.p_flow.(x)
      and xslack = p.p_slack.(x)
      and xplaced = p.p_placed.(x) in
      if xflow = 0 then
        insert ctx extended e n ~flow:xflow ~slack:xslack ~placed:xplaced
      else if xflow > bw || xslack < 1 then ()
      else
        insert ctx extended e n ~flow:xflow ~slack:(dec_slack xslack)
          ~placed:xplaced;
      let absorbed = Arena.snoc ctx.arena xplaced ~node:c ~flow:xflow in
      if c_pre then
        insert ctx extended (e + 1) n ~flow:0 ~slack:Tree.unbounded
          ~placed:absorbed
      else
        insert ctx extended e (n + 1) ~flow:0 ~slack:Tree.unbounded
          ~placed:absorbed);
  let merged =
    make_table (left.pre_cap + extended.pre_cap)
      (left.new_cap + extended.new_cap)
  in
  iter_entries ctx left (fun e1 n1 l ->
      let lflow = p.p_flow.(l)
      and lslack = p.p_slack.(l)
      and lplaced = p.p_placed.(l) in
      iter_entries ctx extended (fun e2 n2 r ->
          let flow = lflow + p.p_flow.(r) in
          if flow <= w then
            insert ctx merged (e1 + e2) (n1 + n2) ~flow
              ~slack:(min lslack p.p_slack.(r))
              ~placed:(Arena.append ctx.arena lplaced p.p_placed.(r))));
  merged

let solve tree ~w ~cost =
  if w <= 0 then invalid_arg "Frozen_qos: w must be positive";
  let ctx = { pool = pool_create (); arena = Arena.create () } in
  let p = ctx.pool in
  let root = Tree.root tree in
  let table = table_of ctx tree ~w root in
  let pre_total = Tree.num_pre_existing tree in
  let root_pre = Tree.is_pre_existing tree root in
  let best = ref None in
  let consider value servers reused placed root_used =
    match !best with
    | Some (v, _, _, _, _) when v <= value -> ()
    | _ -> best := Some (value, servers, reused, placed, root_used)
  in
  iter_entries ctx table (fun e n x ->
      let placed = p.p_placed.(x) in
      if p.p_flow.(x) = 0 then begin
        consider
          (Cost.basic_cost cost ~servers:(e + n) ~reused:e
             ~pre_existing:pre_total)
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
          (Cost.basic_cost cost ~servers:(e + n + 1) ~reused
             ~pre_existing:pre_total)
          (e + n + 1) reused placed true
      end);
  match !best with
  | None -> None
  | Some (value, servers, reused, placed, root_used) ->
      let nodes = Arena.nodes ctx.arena placed in
      let nodes = if root_used then root :: nodes else nodes in
      Some
        {
          Dp_withpre.solution = Solution.of_nodes nodes;
          cost = value;
          servers;
          reused;
        }
