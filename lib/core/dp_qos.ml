(* QoS- and bandwidth-constrained MinCost DP for the closest policy,
   after Rehn-Sonigo (arXiv 0706.3350), structured like {!Dp_withpre}:
   one bottom-up table per node, indexed by (pre-existing reused, new
   servers) strictly below the node.

   Under the closest policy every client whose requests are still
   flowing at node [j] will be served by one common server somewhere on
   the path from [j] to the root. Two quantities therefore summarize a
   partial placement below [j] exactly: the [flow] leaving [j] upward,
   and the [slack] — the number of additional hops above [j] the
   eventual server may sit, i.e. the minimum over unserved clients of
   (QoS bound - hops already travelled). [Tree.unbounded] slack means no
   flowing client is QoS-constrained (in particular whenever flow = 0).

   Neither coordinate dominates the other (absorbing a child early costs
   a server but resets flow AND slack), so each (e, n) cell holds a
   Pareto frontier of (flow, slack) pairs: minimal flow, maximal slack.
   The frontier is at most min (w+1) (height+2) entries — in the
   unconstrained regime every slack is [Tree.unbounded], the frontier
   has one entry, and the program degenerates to exactly {!Dp_withpre}'s
   recurrence.

   Transitions, for a child [c] folded into its parent:
   - pass up: flow crosses the link [c -> parent], so it must fit
     [Tree.bandwidth c], and slack must be >= 1 (it decrements: the
     server moved one hop further from every flowing client);
   - place at [c]: always legal — flow <= w holds for every cell by
     construction and slack >= 0 is an invariant — and yields
     (flow 0, unbounded slack) one server up.
   At the root a positive-flow cell forces a root server, exactly as in
   {!Dp_withpre}.

   Representation: tables are flat — a cell is a singly-linked frontier
   threaded through one per-solve entry pool (parallel int arrays:
   flow, slack, placement handle, next), and placements are {!Arena}
   handles. Frontier order, insert
   semantics and counter totals are identical to the historical boxed
   form, so placements (and the [Dp_withpre] agreement on unconstrained
   trees) are bit-for-bit unchanged. *)

let c_cells = Stats_counters.counter "dp_qos.cells_created"
let c_products = Stats_counters.counter "dp_qos.merge_products"
let c_capacity = Stats_counters.counter "dp_qos.capacity_rejected"
let c_qos = Stats_counters.counter "dp_qos.qos_rejected"
let c_bw = Stats_counters.counter "dp_qos.bw_rejected"
let c_peak = Stats_counters.counter "dp_qos.peak_frontier"
let t_tables = Stats_counters.timer "dp_qos.tables"

module Span = Replica_obs.Span

(* Entry pool: slot 0 is the nil terminator; every list of every table
   of one solve threads through the same pool. Unlinked (dominated)
   entries simply leak until the solve's pool is dropped — cheaper
   than free-list bookkeeping at these sizes. *)
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
     increasing and slack strictly increasing (no entry dominates
     another); 0 = empty. *)
  heads : int array;
}

type result = {
  solution : Solution.t;
  cost : float;
  servers : int;
  reused : int;
}

let make_table pre_cap new_cap =
  { pre_cap; new_cap; heads = Array.make ((pre_cap + 1) * (new_cap + 1)) 0 }

let cell_index t e n = (e * (t.new_cap + 1)) + n

let dec_slack s = if s = Tree.unbounded then s else s - 1

(* Insert keeping the frontier Pareto-minimal (min flow, max slack).
   [prev = 0] means [cur] is the list head. Equivalent to the boxed
   predecessor's purely-functional scan: once an incumbent has been
   dropped, no later entry can dominate the candidate (later entries
   carry strictly larger flow), so unlinking eagerly is safe. *)
let rec insert_from p heads idx ~flow ~slack ~placed prev cur =
  if cur = 0 then begin
    let node = pool_alloc p ~flow ~slack ~placed ~next:0 in
    if prev = 0 then heads.(idx) <- node else p.p_next.(prev) <- node;
    Stats_counters.incr c_cells
  end
  else begin
    let xf = p.p_flow.(cur) and xs = p.p_slack.(cur) in
    if xf <= flow && xs >= slack then () (* dominated *)
    else if flow <= xf && slack >= xs then begin
      (* cur is dominated; drop it *)
      let nxt = p.p_next.(cur) in
      if prev = 0 then heads.(idx) <- nxt else p.p_next.(prev) <- nxt;
      insert_from p heads idx ~flow ~slack ~placed prev nxt
    end
    else if xf < flow then
      insert_from p heads idx ~flow ~slack ~placed cur p.p_next.(cur)
    else begin
      let node = pool_alloc p ~flow ~slack ~placed ~next:cur in
      if prev = 0 then heads.(idx) <- node else p.p_next.(prev) <- node;
      Stats_counters.incr c_cells
    end
  end

let insert ctx t e n ~flow ~slack ~placed =
  let idx = cell_index t e n in
  insert_from ctx.pool t.heads idx ~flow ~slack ~placed 0 t.heads.(idx)

(* e ascending, n ascending, frontier order — the same total order the
   boxed representation iterated in, which the keep-first tie-breaks
   below depend on. [f] receives the pool index of each entry; the
   pool may grow (never shrink) under [f], so links are re-read through
   [ctx.pool] each step. *)
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

let count_entries ctx t =
  let live = ref 0 in
  iter_entries ctx t (fun _ _ _ -> incr live);
  !live

let rec table_of ctx tree ~w j =
  let start = make_table 0 0 in
  let client = Tree.client_load tree j in
  if client <= w then begin
    let slack = if client = 0 then Tree.unbounded else Tree.qos_radius tree j in
    start.heads.(0) <-
      pool_alloc ctx.pool ~flow:client ~slack ~placed:Arena.empty ~next:0;
    Stats_counters.incr c_cells
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
      (* Pass the flow up through the link c -> parent. *)
      if xflow = 0 then
        insert ctx extended e n ~flow:xflow ~slack:xslack ~placed:xplaced
      else if xflow > bw then Stats_counters.incr c_bw
      else if xslack < 1 then Stats_counters.incr c_qos
      else
        insert ctx extended e n ~flow:xflow ~slack:(dec_slack xslack)
          ~placed:xplaced;
      (* Place a server at c: flow <= w and slack >= 0 by invariant. *)
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
  let products = ref 0 and rejected = ref 0 in
  iter_entries ctx left (fun e1 n1 l ->
      let lflow = p.p_flow.(l)
      and lslack = p.p_slack.(l)
      and lplaced = p.p_placed.(l) in
      iter_entries ctx extended (fun e2 n2 r ->
          incr products;
          let flow = lflow + p.p_flow.(r) in
          if flow <= w then
            insert ctx merged (e1 + e2) (n1 + n2) ~flow
              ~slack:(min lslack p.p_slack.(r))
              ~placed:(Arena.append ctx.arena lplaced p.p_placed.(r))
          else incr rejected));
  Stats_counters.add c_products !products;
  Stats_counters.add c_capacity !rejected;
  Stats_counters.record_max c_peak (count_entries ctx merged);
  merged

let solve tree ~w ~cost =
  if w <= 0 then invalid_arg "Dp_qos: w must be positive";
  let ctx = { pool = pool_create (); arena = Arena.create () } in
  let p = ctx.pool in
  let tracing = Span.enabled () in
  if tracing then Span.begin_span "dp_qos.solve";
  let root = Tree.root tree in
  let table =
    Stats_counters.time t_tables (fun () -> table_of ctx tree ~w root)
  in
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
        (* flow <= w and slack >= 0 by invariant: a root server serves
           every remaining client within its QoS budget. *)
        let reused = e + if root_pre then 1 else 0 in
        consider
          (Cost.basic_cost cost ~servers:(e + n + 1) ~reused
             ~pre_existing:pre_total)
          (e + n + 1) reused placed true
      end);
  let result =
    match !best with
    | None -> None
    | Some (value, servers, reused, placed, root_used) ->
        let nodes = Arena.nodes ctx.arena placed in
        let nodes = if root_used then root :: nodes else nodes in
        Some
          { solution = Solution.of_nodes nodes; cost = value; servers; reused }
  in
  if tracing then
    Span.end_span
      ~args:
        [
          ("nodes", Span.Int (Tree.size tree));
          ("w", Span.Int w);
          ("constrained", Span.Bool (Tree.is_constrained tree));
          ("solved", Span.Bool (result <> None));
        ]
      ();
  result

let min_servers tree ~w =
  Option.map
    (fun r -> (r.servers, r.solution))
    (solve tree ~w ~cost:(Cost.basic ()))
