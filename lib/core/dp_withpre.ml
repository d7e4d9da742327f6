let src =
  Logs.Src.create "replica.dp_withpre" ~doc:"MinCost-WithPre dynamic program"

module Log = (val Logs.src_log src : Logs.LOG)

let c_cells = Stats_counters.counter "dp_withpre.cells_created"
let c_products = Stats_counters.counter "dp_withpre.merge_products"
let c_capacity = Stats_counters.counter "dp_withpre.capacity_rejected"
let c_qos = Stats_counters.counter "dp_withpre.qos_rejected"
let c_bw = Stats_counters.counter "dp_withpre.bw_rejected"
let c_peak = Stats_counters.counter "dp_withpre.peak_table_size"
let c_pruned = Stats_counters.counter "dp_withpre.dominance_pruned"
let t_tables = Stats_counters.timer "dp_withpre.tables"
let c_memo_hits = Stats_counters.counter "dp_withpre.memo_hits"
let c_memo_partial = Stats_counters.counter "dp_withpre.memo_partial"
let c_memo_misses = Stats_counters.counter "dp_withpre.memo_misses"

(* Structured observability: per-node solve and child-merge spans (with
   memo hit/partial/miss tags) plus a log2 histogram of per-node merge
   products. Span sites are guarded by [Span.enabled] — the disabled
   path is one atomic load, no allocation. *)
module Span = Replica_obs.Span

let h_products =
  Replica_obs.Histogram.create "dp_withpre.merge_products_per_node"

(* Slack classes. Under the closest policy the clients whose requests
   still flow at a node share one server on the path to the root, so a
   cell summarizes them by b, the greatest (client depth - QoS bound):
   the deepest depth their server may sit at. b is unchanged by passing
   the flow up, merging two cells takes the larger b, passing into a
   parent at depth d is legal iff b <= d, and absorbing the flow at a
   server leaves no bound. A solve numbers the distinct finite b of its
   tree ascending from class 1; class 0 is "no bound". A larger class is
   a tighter one, so a cell with less flow and no larger class is at
   least as good in every completion.

   Staircase tables. A table of node j is indexed by (e, n), the reused
   pre-existing and new servers strictly below j, and keeps only the
   cells that can ever be optimal. Eq. 2 charges every new server
   1 + create > 0, so a cell (e, n, k, f) of class k is dominated by
   any cell (e, n' <= n, k' <= k, f' <= f) of its row: every completion
   of the dominated cell also completes the dominating one (less flow
   never overloads an ancestor or a link, a looser class never breaks
   a bound) at (n - n')(1 + create) less, or, at n' = n, is a point
   the constrained frontier of arXiv 0706.3350 drops. Each n of a row
   keeps its surviving classes in descending class order, which is
   ascending flow; with one class (an unconstrained tree) a row is the
   cells whose flow strictly drops as n grows, at most w + 1. The first
   minimal-flow combination realizing a surviving cell never uses a
   dropped one, so representatives, and hence placements, are those of
   the full frontier DP.

   A table stores its surviving cells in that order as parallel int
   arrays: reused count, new count, flow word and placement {!Arena}
   handle. The flow word is [flow lsl cbits lor class], [cbits] being
   the solve's class width (0 without QoS bounds, so an unconstrained
   word is its flow). [pre_cap]/[new_cap] are the logical dimensions
   (the most reused and new servers below the node). The arrays may be
   longer than [len]: per-depth scratch tables keep their storage
   across merges. *)
type table = {
  mutable pre_cap : int;
  mutable new_cap : int;
  mutable len : int;
  mutable es : int array;
  mutable ns : int array;
  mutable words : int array;
  mutable placed : int array;
}

type result = {
  solution : Solution.t;
  cost : float;
  servers : int;
  reused : int;
}

let empty_table () =
  { pre_cap = 0; new_cap = 0; len = 0; es = [||]; ns = [||]; words = [||];
    placed = [||] }

(* Room for [cells] cells; the old contents are dropped. *)
let reserve t cells =
  if Array.length t.words < cells then begin
    let cap = max cells (2 * Array.length t.words) in
    t.es <- Array.make cap 0;
    t.ns <- Array.make cap 0;
    t.words <- Array.make cap 0;
    t.placed <- Array.make cap 0
  end

(* Node j's fold starts from one cell: its own clients pass up, unless
   they alone exceed [w]. *)
let start_cell t ~word ~client ~w =
  t.pre_cap <- 0;
  t.new_cap <- 0;
  if client > w then t.len <- 0
  else begin
    reserve t 1;
    t.es.(0) <- 0;
    t.ns.(0) <- 0;
    t.words.(0) <- word;
    t.placed.(0) <- Arena.empty;
    t.len <- 1
  end

(* [f e n flow placed] over the cells in table order. *)
let iter_cells ~cbits t f =
  for i = 0 to t.len - 1 do
    f t.es.(i) t.ns.(i) (t.words.(i) lsr cbits) t.placed.(i)
  done

(* An exact-size copy, for the memo: cached tables outlive the solve. *)
let copy_table t =
  {
    t with
    es = Array.sub t.es 0 t.len;
    ns = Array.sub t.ns 0 t.len;
    words = Array.sub t.words 0 t.len;
    placed = Array.sub t.placed 0 t.len;
  }

(* The distinct finite b of [tree], ascending: class k is
   [classes.(k - 1)]. Empty — one class — without QoS bounds. *)
let slack_classes tree =
  if not (Tree.has_qos tree) then [||]
  else begin
    let bs = ref [] in
    for j = 0 to Tree.size tree - 1 do
      let r = Tree.qos_radius tree j in
      if r <> Tree.unbounded then bs := (Tree.depth tree j - r) :: !bs
    done;
    Array.of_list (List.sort_uniq Int.compare !bs)
  end

(* The number of classes whose b is at most [x]: the class of b = x,
   and the tightest class that may pass into a node at depth x. *)
let rank classes x =
  let lo = ref 0 and hi = ref (Array.length classes) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if classes.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  !lo

(* Incremental re-solving: a per-node cache of every prefix of the
   child-merge fold, keyed by a fingerprint chain. The table obtained
   after merging children c_1..c_i into node j's start cell is a pure
   function of (w, the slack classes, client load and class of j,
   subtrees of c_1..c_i), so it is cached under the chain key
     k_0 = mix(load j, class j),  k_i = combine(k_{i-1}, fp(c_i))
   where fp is {!Tree.subtree_fingerprints}. A later solve on an epoch
   tree that changed demand only under some child c_d resumes node j's
   fold from the longest cached prefix (everything before the first
   dirty child) and recomputes only the remaining merges; nodes whose
   whole subtree is clean hit their full-table entry and do zero work.
   Tables are never mutated after construction, so sharing them across
   solves is safe. Entries unused for two consecutive solves are
   evicted, bounding the cache to roughly two epochs' tables.

   Cached placements live in the memo's own arena; after eviction the
   arena is compacted (live handles copied, sharing preserved) once it
   has grown past [compact_at], so a long-running engine cannot leak
   dead placement cells across epochs. *)
type memo = {
  mutable gen : int;
  (* tables depend on w and on the class numbering; reset when either
     changes *)
  mutable memo_w : int;
  mutable memo_classes : int array;
  prefixes : (int * int64, memo_entry) Hashtbl.t;
  m_arena : Arena.t;
  mutable compact_at : int;
}

and memo_entry = { mutable stamp : int; entry_table : table }

let memo () =
  {
    gen = 0;
    memo_w = -1;
    memo_classes = [||];
    prefixes = Hashtbl.create 512;
    m_arena = Arena.create ();
    compact_at = 1 lsl 16;
  }

let memo_size m = Hashtbl.length m.prefixes

let fp_seed client cls =
  Tree.combine_fingerprints
    (Tree.combine_fingerprints 0x2545F4914F6CDD1DL (Int64.of_int client))
    (Int64.of_int cls)

(* Dense (e, n, class) staging grid for one extension or merge, with
   the stride [new_cap + 1] of the table being built: the flow word
   ([-1] = absent) and placement of each slot, plus each row's written
   range of n, so that compaction visits, and resets, only the slots
   written. Between two stagings every slot is absent and every range
   empty. [floors] is compaction's per-class running minimum. *)
type grid = {
  g_words : int array;
  g_placed : int array;
  lo : int array; (* per row: least n written, [max_int] if none *)
  hi : int array; (* per row: greatest n written, [-1] if none *)
  floors : int array;
}

let fresh_grid ~rows ~cells ~classes =
  {
    g_words = Array.make cells (-1);
    g_placed = Array.make cells 0;
    lo = Array.make rows max_int;
    hi = Array.make rows (-1);
    floors = Array.make classes max_int;
  }

(* Per-depth scratch tables. The fold at node j (depth d) needs two
   live tables at depth d — the accumulator and the current child's
   extension — while the child's own table lives one depth down; so
   one slot per depth lets a solve reuse O(height) tables instead of
   allocating O(N). *)
type slot = { s_acc : table; s_ext : table }

(* Per-domain scratch, reused across solves: the staging grid, the
   depth slots and the arena of memo-less solves. A warm solve then
   allocates only its result (and, with a memo, the tables it caches).
   Grids up to [max_kept_cells] slots are kept; a solve needing more
   gets a grid of its own. *)
type scratch = {
  mutable grid : grid;
  mutable slots : slot array; (* indexed by depth; grown on demand *)
  arena : Arena.t;
}

let max_kept_cells = 1 lsl 22

let fresh_scratch () =
  {
    grid = fresh_grid ~rows:1 ~cells:1 ~classes:1;
    slots = [||];
    arena = Arena.create ();
  }

let scratch_key = Domain.DLS.new_key fresh_scratch

let grid_for sc ~rows ~cells ~classes =
  if cells > max_kept_cells then fresh_grid ~rows ~cells ~classes
  else begin
    let g = sc.grid in
    if
      Array.length g.g_words >= cells
      && Array.length g.lo >= rows
      && Array.length g.floors >= classes
    then g
    else begin
      let cells = min max_kept_cells (max cells (2 * Array.length g.g_words)) in
      let g =
        fresh_grid
          ~rows:(max rows (Array.length g.lo))
          ~cells
          ~classes:(max classes (Array.length g.floors))
      in
      sc.grid <- g;
      g
    end
  end

type ctx = {
  arena : Arena.t;
  grid : grid;
  sc : scratch;
  memo : (memo * int64 array) option;
  classes : int array;
  cbits : int; (* class width of the flow words *)
  wmax : int; (* the largest word of a flow of at most w *)
  capped : bool; (* some link has a bandwidth cap *)
}

let slot ctx depth =
  let sc = ctx.sc in
  let n = Array.length sc.slots in
  if depth >= n then
    sc.slots <-
      Array.init (max (depth + 1) (2 * n)) (fun i ->
          if i < n then sc.slots.(i)
          else { s_acc = empty_table (); s_ext = empty_table () });
  sc.slots.(depth)

let[@inline] touch g e n =
  if n < g.lo.(e) then g.lo.(e) <- n;
  if n > g.hi.(e) then g.hi.(e) <- n

(* Compact the staged rows [0, pre_cap] of the grid into [into] and
   reset every written slot. A row's slots are visited in index order —
   n ascending, each n's classes from the loosest — so a slot of class
   k survives iff its flow is below the least flow kept so far in the
   row at class k or looser. That flow is held as the word it bounds:
   [f0] for class 0, which also bounds every class (a class-k slot at
   or above [f0 + k] cannot survive), and [floors.(k)] for the others.
   [staged] slots were written, so at most that many are kept. *)
let compact ctx ~into ~pre_cap ~new_cap ~staged =
  let g = ctx.grid and cbits = ctx.cbits in
  let mask = (1 lsl cbits) - 1 in
  let floors = g.floors in
  let stride = new_cap + 1 in
  reserve into staged;
  let k = ref 0 in
  for e = 0 to pre_cap do
    let lo = g.lo.(e) and hi = g.hi.(e) in
    if lo <= hi then begin
      let f0 = ref (max_int - mask) in
      for c = 1 to mask do
        floors.(c) <- max_int
      done;
      let row = e * stride in
      for i = (row + lo) lsl cbits to ((row + hi) lsl cbits) + mask do
        let v = g.g_words.(i) in
        if v >= 0 then begin
          let c = i land mask in
          if v < !f0 + c && (c = 0 || v < floors.(c)) then begin
            if c = 0 then f0 := v else floors.(c) <- v;
            (* the same flow bounds every tighter class *)
            let u = ref (c + 1) in
            while !u <= mask && floors.(!u) > v - c + !u do
              floors.(!u) <- v - c + !u;
              incr u
            done;
            (* survivors of one n are found loosest first, in
               descending flow; table order has them tightest first *)
            let n = (i lsr cbits) - row in
            let j = ref !k in
            while !j > 0 && into.ns.(!j - 1) = n && into.es.(!j - 1) = e do
              into.words.(!j) <- into.words.(!j - 1);
              into.placed.(!j) <- into.placed.(!j - 1);
              decr j
            done;
            into.es.(!k) <- e;
            into.ns.(!k) <- n;
            into.words.(!j) <- v;
            into.placed.(!j) <- g.g_placed.(i);
            incr k
          end;
          g.g_words.(i) <- -1
        end
      done;
      g.lo.(e) <- max_int;
      g.hi.(e) <- -1
    end
  done;
  into.pre_cap <- pre_cap;
  into.new_cap <- new_cap;
  into.len <- !k;
  Stats_counters.add c_cells staged;
  Stats_counters.add c_pruned (staged - !k)

(* The largest word of a flow of at most [flow]. No flow exceeds the
   total demand, which stays below [max_int asr (cbits + 1)] (checked
   in [root_staircase] when there are classes), so a larger bound is no
   bound. *)
let word_bound ~cbits flow =
  if flow > max_int asr (cbits + 1) then max_int
  else (flow lsl cbits) lor ((1 lsl cbits) - 1)

(* The child's table extended with the decision at c itself, compacted
   into [into]: a cell passes up when its flow fits the link c -> parent
   and its class may reach the parent's depth, and absorbing the flow
   at c moves the cell one server up with flow 0 and no bound. *)
let extend ctx tree ~into sub c =
  let g = ctx.grid and cbits = ctx.cbits in
  let mask = (1 lsl cbits) - 1 in
  let de = if Tree.is_pre_existing tree c then 1 else 0 in
  let new_cap = sub.new_cap + 1 - de in
  let stride = new_cap + 1 in
  let bw =
    if ctx.capped then word_bound ~cbits (Tree.bandwidth tree c) else max_int
  in
  let legal =
    if cbits = 0 then 0 else rank ctx.classes (Tree.depth tree c - 1)
  in
  (* the absorbing slot's offset from the passing one's class 0 *)
  let absorb = ((de * stride) + 1 - de) lsl cbits in
  let staged = ref 0 and bw_rejected = ref 0 and qos_rejected = ref 0 in
  for i = 0 to sub.len - 1 do
    let e = sub.es.(i) and n = sub.ns.(i) in
    let v = sub.words.(i) and placed = sub.placed.(i) in
    let base = ((e * stride) + n) lsl cbits in
    let cls = v land mask in
    if v > bw then incr bw_rejected
    else if cls > legal then incr qos_rejected
    else begin
      let oi = base + cls in
      let cur = g.g_words.(oi) in
      if cur < 0 then begin
        g.g_words.(oi) <- v;
        g.g_placed.(oi) <- placed;
        incr staged;
        touch g e n
      end
      else if v < cur then begin
        g.g_words.(oi) <- v;
        g.g_placed.(oi) <- placed
      end
    end;
    let oi = base + absorb in
    let cur = g.g_words.(oi) in
    (* absorbed cells have word 0: only an absent or positive-flow
       occupant can lose to one (ties keep the incumbent) *)
    if cur <> 0 then begin
      if cur < 0 then begin
        incr staged;
        touch g (e + de) (n + 1 - de)
      end;
      g.g_words.(oi) <- 0;
      g.g_placed.(oi) <-
        Arena.snoc ctx.arena placed ~node:c ~flow:(v lsr cbits)
    end
  done;
  if !bw_rejected > 0 then Stats_counters.add c_bw !bw_rejected;
  if !qos_rejected > 0 then Stats_counters.add c_qos !qos_rejected;
  compact ctx ~into ~pre_cap:(sub.pre_cap + de) ~new_cap ~staged:!staged

(* The convolution kernel: merge [left] and [ext] into [into] (which may
   be [left]). Live cells only, left-major, each side in table order —
   the full DP's order restricted to the staircases. A merged cell adds
   the flows and takes the tighter class: the sum of the two words less
   the looser class. The only data written are grid ints and arena
   pushes, no GC allocation. *)
let convolve ctx ~into left ext =
  let g = ctx.grid and arena = ctx.arena and cbits = ctx.cbits in
  let mask = (1 lsl cbits) - 1 and wmax = ctx.wmax in
  let pre_cap = left.pre_cap + ext.pre_cap in
  let new_cap = left.new_cap + ext.new_cap in
  let stride = new_cap + 1 in
  let products = left.len * ext.len in
  let rejected = ref 0 and staged = ref 0 in
  for i = 0 to left.len - 1 do
    let lv = left.words.(i) and lp = left.placed.(i) in
    let lc = lv land mask in
    let e1 = left.es.(i) and n1 = left.ns.(i) in
    for k = 0 to ext.len - 1 do
      let rv = ext.words.(k) in
      let rc = rv land mask in
      let v = lv + rv - if rc < lc then rc else lc in
      if v <= wmax then begin
        let e = e1 + ext.es.(k) and n = n1 + ext.ns.(k) in
        let oi = (((e * stride) + n) lsl cbits) + (v land mask) in
        let cur = g.g_words.(oi) in
        if cur < 0 then begin
          g.g_words.(oi) <- v;
          g.g_placed.(oi) <- Arena.append arena lp ext.placed.(k);
          incr staged;
          touch g e n
        end
        else if v < cur then begin
          g.g_words.(oi) <- v;
          g.g_placed.(oi) <- Arena.append arena lp ext.placed.(k)
        end
      end
      else incr rejected
    done
  done;
  Stats_counters.add c_products products;
  Stats_counters.add c_capacity !rejected;
  Replica_obs.Histogram.observe h_products products;
  compact ctx ~into ~pre_cap ~new_cap ~staged:!staged;
  Stats_counters.record_max c_peak into.len

(* Per-node spans only for subtrees of at least this many nodes. The
   flat tables made small-subtree merges so cheap that a span per node
   (two clock reads, two GC probes, an args list) dominated them — the
   obs bench's tracing-overhead budget is what pins this down. Large
   subtrees, where profiles carry signal, are still covered. *)
let span_min_subtree = 16

(* Table of node j over servers strictly below j. [ctx.memo] carries
   the optional memo and the current tree's subtree fingerprints. *)
let rec table_of ctx tree ~w ~depth j =
  if not (Span.enabled () && Tree.subtree_size tree j >= span_min_subtree)
  then node_table ctx tree ~w ~depth j
  else begin
    Span.begin_span "dp_withpre.node";
    let tbl =
      try node_table ctx tree ~w ~depth j
      with e ->
        Span.end_span ();
        raise e
    in
    Span.end_span
      ~args:
        [
          ("node", Span.Int j);
          ("subtree_size", Span.Int (Tree.subtree_size tree j));
        ]
      ();
    tbl
  end

and node_table ctx tree ~w ~depth j =
  let client = Tree.client_load tree j in
  (* the class of j's own flowing clients; none without QoS bounds *)
  let cls =
    if ctx.cbits = 0 then 0
    else
      let r = Tree.qos_radius tree j in
      if r = Tree.unbounded then 0 else rank ctx.classes (Tree.depth tree j - r)
  in
  let s = slot ctx depth in
  start_cell s.s_acc ~word:((client lsl ctx.cbits) + cls) ~client ~w;
  let arr = Tree.children_array tree j in
  match ctx.memo with
  | None ->
      for i = 0 to Array.length arr - 1 do
        merge ctx tree ~w ~depth s s.s_acc arr.(i)
      done;
      s.s_acc
  | Some (m, fps) -> (
      match arr with
      | [||] -> s.s_acc
      | _ ->
          let k = Array.length arr in
          let keys = Array.make (k + 1) (fp_seed client cls) in
          for i = 1 to k do
            keys.(i) <- Tree.combine_fingerprints keys.(i - 1) fps.(arr.(i - 1))
          done;
          let best = ref 0 and acc = ref s.s_acc in
          (try
             for i = k downto 1 do
               match Hashtbl.find_opt m.prefixes (j, keys.(i)) with
               | Some e ->
                   e.stamp <- m.gen;
                   best := i;
                   acc := e.entry_table;
                   raise Exit
               | None -> ()
             done
           with Exit -> ());
          if Span.enabled () then
            Span.add_arg "memo"
              (Span.Str
                 (if !best = k then "hit"
                  else if !best > 0 then "partial"
                  else "miss"));
          if !best = k then Stats_counters.incr c_memo_hits
          else begin
            Stats_counters.incr
              (if !best > 0 then c_memo_partial else c_memo_misses);
            for i = !best + 1 to k do
              merge ctx tree ~w ~depth s !acc arr.(i - 1);
              acc := copy_table s.s_acc;
              Hashtbl.replace m.prefixes (j, keys.(i))
                { stamp = m.gen; entry_table = !acc }
            done
          end;
          !acc)

(* Merge child c into [left], leaving the result in [s.s_acc]; the
   child's extension lives in [s.s_ext]. *)
and merge ctx tree ~w ~depth s left c =
  let sub = table_of ctx tree ~w ~depth:(depth + 1) c in
  let ext = s.s_ext in
  extend ctx tree ~into:ext sub c;
  Log.debug (fun m ->
      m "merge child %d: left %d cells, child %d cells" c left.len ext.len);
  let tracing =
    Span.enabled () && Tree.subtree_size tree c >= span_min_subtree
  in
  if tracing then Span.begin_span "dp_withpre.merge";
  convolve ctx ~into:s.s_acc left ext;
  if tracing then
    Span.end_span
      ~args:
        [
          ("child", Span.Int c);
          ("merged_pre_cap", Span.Int s.s_acc.pre_cap);
          ("merged_new_cap", Span.Int s.s_acc.new_cap);
        ]
      ()

let compact_memo m =
  if Arena.length m.m_arena > m.compact_at then begin
    let c = Arena.compact_begin m.m_arena in
    Hashtbl.iter
      (fun _ e ->
        let t = e.entry_table in
        for i = 0 to t.len - 1 do
          t.placed.(i) <- Arena.compact_root m.m_arena c t.placed.(i)
        done)
      m.prefixes;
    Arena.compact_commit m.m_arena c;
    m.compact_at <- max (1 lsl 16) (4 * Arena.length m.m_arena)
  end

(* Bits that hold class numbers 0..n. *)
let class_bits n =
  let b = ref 0 in
  while 1 lsl !b <= n do
    incr b
  done;
  !b

(* The root's table, staged in this domain's scratch. The root's
   dimensions bound every table of the solve, so they size the grid. A
   solve that raises mid-staging leaves the grid dirty: the domain's
   scratch is then dropped. *)
let root_staircase tree ~w ~classes memo =
  let cbits = class_bits (Array.length classes) in
  (* flows never exceed the total demand, which must leave room for
     the class bits *)
  if cbits > 0 && Tree.total_requests tree > max_int asr (cbits + 1) then
    invalid_arg "Dp_withpre: demand too large for the tree's QoS classes";
  let sc = Domain.DLS.get scratch_key in
  let root = Tree.root tree in
  let pre = Tree.subtree_pre_count tree root in
  let fresh = Tree.subtree_size tree root - pre in
  let grid =
    grid_for sc ~rows:(pre + 1)
      ~cells:(((pre + 1) * (fresh + 1)) lsl cbits)
      ~classes:(1 lsl cbits)
  in
  let arena =
    match memo with
    | Some (m, _) -> m.m_arena
    | None ->
        Arena.clear sc.arena;
        sc.arena
  in
  let ctx =
    {
      arena;
      grid;
      sc;
      memo;
      classes;
      cbits;
      wmax = word_bound ~cbits w;
      capped = Tree.has_bandwidth tree;
    }
  in
  match table_of ctx tree ~w ~depth:0 root with
  | table -> (ctx, table)
  | exception e ->
      Domain.DLS.set scratch_key (fresh_scratch ());
      raise e

let solve ?memo:m tree ~w ~cost =
  if w <= 0 then invalid_arg "Dp_withpre: w must be positive";
  let classes = slack_classes tree in
  let memo =
    match m with
    | None -> None
    | Some mm ->
        if mm.memo_w <> w || mm.memo_classes <> classes then begin
          Hashtbl.reset mm.prefixes;
          Arena.clear mm.m_arena;
          mm.memo_w <- w;
          mm.memo_classes <- classes
        end;
        mm.gen <- mm.gen + 1;
        Some (mm, Tree.subtree_fingerprints tree)
  in
  let root = Tree.root tree in
  let tracing = Span.enabled () in
  if tracing then Span.begin_span "dp_withpre.solve";
  let ctx, table =
    Stats_counters.time t_tables (fun () ->
        root_staircase tree ~w ~classes memo)
  in
  let pre_total = Tree.num_pre_existing tree in
  let root_pre = Tree.is_pre_existing tree root in
  (* The first cheapest candidate in table order wins, as in a full
     scan: a dropped cell costs strictly more than the cell of its row
     that dominates it, which comes earlier. *)
  let best = ref None in
  let consider value servers reused placed root_used =
    match !best with
    | Some (v, _, _, _, _) when v <= value -> ()
    | _ -> best := Some (value, servers, reused, placed, root_used)
  in
  iter_cells ~cbits:ctx.cbits table (fun e n flow placed ->
      if flow = 0 then begin
        (* Solution without a root server … *)
        consider
          (Cost.basic_cost cost ~servers:(e + n) ~reused:e
             ~pre_existing:pre_total)
          (e + n) e placed false;
        (* … and, when the root is pre-existing, reusing it at zero load
           (cheaper than deleting it when delete > 1). *)
        if root_pre then
          consider
            (Cost.basic_cost cost ~servers:(e + n + 1) ~reused:(e + 1)
               ~pre_existing:pre_total)
            (e + n + 1) (e + 1) placed true
      end
      else begin
        (* flow <= w by construction, and every class may reach depth
           0: the root must host a server, which serves the rest. *)
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
  (match m with
  | Some mm ->
      Hashtbl.filter_map_inplace
        (fun _ e -> if mm.gen - e.stamp > 1 then None else Some e)
        mm.prefixes;
      compact_memo mm
  | None -> ());
  if tracing then
    Span.end_span
      ~args:
        [
          ("nodes", Span.Int (Tree.size tree));
          ("w", Span.Int w);
          ("memo", Span.Bool (m <> None));
          ("solved", Span.Bool (result <> None));
        ]
      ();
  result

let root_table tree ~w =
  if w <= 0 then invalid_arg "Dp_withpre: w must be positive";
  let ctx, t = root_staircase tree ~w ~classes:(slack_classes tree) None in
  let dense =
    Array.init (t.pre_cap + 1) (fun _ -> Array.make (t.new_cap + 1) None)
  in
  iter_cells ~cbits:ctx.cbits t (fun e n flow _ ->
      match dense.(e).(n) with
      | None -> dense.(e).(n) <- Some flow
      | Some _ -> ());
  dense
