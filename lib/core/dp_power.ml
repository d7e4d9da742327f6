let src =
  Logs.Src.create "replica.dp_power" ~doc:"MinPower-BoundedCost dynamic program"

module Log = (val Logs.src_log src : Logs.LOG)

type result = {
  solution : Solution.t;
  power : float;
  cost : float;
  tally : Cost.tally;
}

(* Observability: every table cell allocated, every cartesian product
   attempted, every pair rejected by the capacity check and every cell
   dropped by dominance pruning is accounted here, plus a high-water
   mark for table size and per-phase wall time. Counters accumulate
   until [Metrics.reset]; totals are identical at any [domains]
   value (atomic adds commute, and the set of tables built does not
   depend on the fan-out) and identical between the packed and wide
   representations (same set semantics, same product enumeration —
   bench-diff pins them Exact). *)
module Metrics = Replica_obs.Metrics

let c_cells = Metrics.counter "dp_power.cells_created"
let c_products = Metrics.counter "dp_power.merge_products"
let c_capacity = Metrics.counter "dp_power.capacity_rejected"
let c_pruned = Metrics.counter "dp_power.dominance_pruned"
let c_peak = Metrics.counter "dp_power.peak_table_size"
let t_tables = Metrics.timer "dp_power.tables"
let t_enumerate = Metrics.timer "dp_power.enumerate"
let c_memo_hits = Metrics.counter "dp_power.memo_hits"
let c_memo_partial = Metrics.counter "dp_power.memo_partial"
let c_memo_misses = Metrics.counter "dp_power.memo_misses"

(* Structured observability (replicaml.obs): per-node spans nest the
   child-merge and prune phases under each node's solve, and the
   per-node merge-product count feeds a log2 histogram — so one trace
   shows *where inside a solve* the cartesian blowup happens, not just
   the aggregate totals above. Span sites are guarded by
   [Span.enabled] (a single atomic load) so the disabled path
   allocates nothing; the histogram, like the counters, is always
   on. *)
module Span = Replica_obs.Span

let h_products = Metrics.histogram "dp_power.merge_products_per_node"

(* Cell key layout: [| n_1; ...; n_M; e_11; ...; e_MM; flow |] — the
   exact per-mode server counts AND the number of requests traversing
   the node. Keeping the flow in the key (rather than minimizing it per
   state, as a literal reading of the paper's §4.3 suggests) is
   necessary under load-determined modes: raising a subtree's residual
   flow can keep an upstream reused server in its original (higher)
   mode and thereby avoid a positive changed_{i,i'} cost, so two
   placements with the same counts but different flows are NOT
   interchangeable once mode-change costs are involved. Two placements
   agreeing on counts AND flow are fully interchangeable (same cost,
   same power, same influence upstream), so one representative
   placement per key suffices.

   Tables are built by one traversal over the {e packed} form of that
   key ({!Packed_key}: the whole vector bit-packed into one unboxed
   int, tables as {!Int_table}). Only when even the tight layout
   exceeds 62 bits does a small sequential fallback run the same
   convolution over [int array] keys. Both carry placements as
   {!Arena} handles, hand their root table to one shared root scan,
   and produce the same optimum, the same counter totals and the same
   set of table keys; only the tie-broken representative placements
   may differ. *)

let state_size m = m + (m * m)

(* Vector index of the count a server adds: a new server ([i0 = 0]) at
   its operating mode, or a reused one of initial mode [i0]. *)
let field ~m ~i0 ~operating =
  if i0 = 0 then operating - 1 else m + ((i0 - 1) * m) + (operating - 1)

let initial_mode_default tree j =
  match Tree.initial_mode tree j with Some m -> m | None -> 1

(* Initial mode of a pre-existing node, 0 for any other node. *)
let initial_of tree j =
  if Tree.is_pre_existing tree j then initial_mode_default tree j else 0

(* Pre-existing servers per initial mode. *)
let available_of tree ~m =
  let available = Array.make m 0 in
  List.iter
    (fun j ->
      let i0 = initial_mode_default tree j in
      available.(i0 - 1) <- available.(i0 - 1) + 1)
    (Tree.pre_existing tree);
  available

(* Packed layout selection. First try uniform widths (every count
   field sized for the node count N): the layout then depends only on
   (N, M, W), so epoch views of one network share it and the
   incremental memo survives pre-existing-set churn. If that exceeds
   the 62-bit budget, retry with tight per-field maxima — n_op can
   never exceed N - E (every new server sits on one of the N - E nodes
   that are not pre-existing), e_{i0,op} never the number of
   pre-existing servers initially at mode i0 (0 bits when there are
   none). Only if even the tight layout overflows does the solver fall
   back to the wide keys. Returns the tier, the key width in bits (for
   the wide tier: the width the tight layout would have needed) and
   the layout. *)
let layout_for tree ~modes =
  let m = Modes.count modes and n = Tree.size tree in
  let nf = state_size m and flow_max = Modes.max_capacity modes in
  match Packed_key.make ~m ~count_max:(Array.make nf n) ~flow_max with
  | Some l -> ("uniform", Packed_key.total_bits l, Some l)
  | None -> (
      let available = available_of tree ~m in
      let fresh = n - Array.fold_left ( + ) 0 available in
      let count_max =
        Array.init nf (fun i ->
            if i < m then fresh else available.((i - m) / m))
      in
      match Packed_key.make ~m ~count_max ~flow_max with
      | Some l -> ("tight", Packed_key.total_bits l, Some l)
      | None -> ("wide", Packed_key.width ~count_max ~flow_max, None))

let packed_bits tree ~modes =
  let _, _, lay = layout_for tree ~modes in
  Option.map Packed_key.total_bits lay

(* Dominance pruning: among cells with identical count entries
   (n_1..n_M, e_11..e_MM), keep only the one with minimal flow.

   Why this is safe — the mirror argument. Let k1 = (counts, f1) and
   k2 = (counts, f2) with f1 < f2 be cells of the same table at node j,
   and let S2 be ANY completion of k2 (decisions at every node merged
   later, each server's operating mode forced by its absorbed load).
   Mirror S2 onto k1: keep every decision identical. Every capacity
   check still passes (each flow sum only shrinks, by f2 - f1, on j's
   root path). The two runs differ at exactly one server — the first
   one above j that absorbs j's residual flow (or the root decision,
   which absorbs any nonzero flow): it carries load L - (f2 - f1)
   instead of L, hence operates at mode op1 <= op2. Since
   [Power.of_mode] is strictly increasing in the mode:

   - if op1 = op2, the final root keys coincide, and (power, cost) are
     functions of the key alone — the mirror is exactly as good;
   - if op1 < op2, the mirror has strictly lower power.

   Consequently, for the pure MinPower problem (bound = infinity, any
   cost model): the optimum power P* and the minimal cost c_min among
   optimum-power placements are both preserved — a completion of k2
   achieving power P* at cost c_min cannot have op1 < op2, since its
   mirror would then beat the optimum; so its mirror realizes the same
   final key and thus the same power and cost.

   Under a finite cost bound or for the Pareto frontier, the op1 < op2
   case must also not *increase* cost, which requires the cost model to
   be mode-monotone ([Cost.is_mode_monotone]): create_i and every
   changed_{i0,·} row non-decreasing in the operating mode. Then the
   mirror's (power, cost) is pointwise <= S2's, so no frontier point
   and no bound-feasible optimum is lost. The paper's §5.2 models are
   NOT mode-monotone (off-diagonal changed > 0 versus the zero
   diagonal), which is exactly the unsoundness of §4.3's literal
   flow-minimal table documented in DESIGN.md — hence pruning defaults
   to on only where the argument above applies, and stays overridable
   for differential testing.

   Over packed keys, count groups are [key lsr flow_bits] and within a
   group the flow-minimal cell is the minimal key, so [best] maps
   group -> minimal key. [pprune] writes the survivors into [out]
   (cleared here) in first-encounter group order and returns it;
   returns [tbl] untouched when nothing is dominated. *)
let pprune lay ~best ~out tbl =
  if Int_table.length tbl <= 1 then tbl
  else begin
    let tracing = Span.enabled () && Int_table.length tbl >= 1024 in
    if tracing then Span.begin_span "dp_power.prune";
    Int_table.clear best;
    let fb = Packed_key.flow_bits lay in
    let len = Int_table.length tbl in
    for i = 0 to len - 1 do
      let key = Int_table.key_at tbl i in
      let g = key lsr fb in
      let r = Int_table.reserve best g in
      if r >= 0 then Int_table.set_val best r key
      else begin
        let j = Int_table.index best g in
        if Int_table.val_at best j > key then Int_table.set_val best j key
      end
    done;
    let dropped = len - Int_table.length best in
    let result =
      if dropped = 0 then tbl
      else begin
        Metrics.add c_pruned dropped;
        Int_table.clear out;
        for i = 0 to Int_table.length best - 1 do
          let key = Int_table.val_at best i in
          let r = Int_table.reserve out key in
          Int_table.set_val out r (Int_table.get tbl key)
        done;
        out
      end
    in
    if tracing then
      Span.end_span
        ~args:[ ("cells_in", Span.Int len); ("pruned", Span.Int dropped) ]
        ();
    result
  end

(* Incremental re-solving (same device as Dp_withpre): a memo caches
   every extended child table keyed by the child's subtree fingerprint,
   and every prefix of every node's child-merge fold keyed by a
   fingerprint chain. An epoch re-solve then recomputes only the tables
   under demand that actually moved; results are bit-identical to a
   memo-less solve. Cached tables are copies out of the pooled scratch
   and never mutated afterwards, so sharing them across solves is safe.
   The memo forces the sequential merge path (no [Par] fan-out — the
   cache is not domain-safe) and only serves packed solves; the
   layout's field widths are part of the memo key, so a layout change
   (e.g. the mode ladder or tree size changed) resets the cache rather
   than mixing incomparable keys. Placements live in the memo's arena,
   compacted after eviction once it outgrows [compact_at]. *)
type memo = {
  mutable gen : int;
  mutable memo_key : (int list * bool * Packed_key.layout) option;
      (* tables depend on the mode ladder, the prune flag and the layout *)
  prefixes : (int * int64, entry) Hashtbl.t;
  ext_cache : (int * int64, entry) Hashtbl.t;
  m_arena : Arena.t;
  mutable compact_at : int;
}

and entry = { mutable stamp : int; table : Int_table.t }

let memo () =
  {
    gen = 0;
    memo_key = None;
    prefixes = Hashtbl.create 512;
    ext_cache = Hashtbl.create 512;
    m_arena = Arena.create ();
    compact_at = 1 lsl 16;
  }

let memo_size m = Hashtbl.length m.prefixes + Hashtbl.length m.ext_cache

let fp_seed client =
  Tree.combine_fingerprints 0x9E6C63D0876A9A35L (Int64.of_int client)

let memo_prepare mm ~modes ~prune lay =
  let caps = Modes.capacities modes in
  let same =
    match mm.memo_key with
    | Some (c, p, l) -> c = caps && p = prune && Packed_key.equal l lay
    | None -> false
  in
  if not same then begin
    Hashtbl.reset mm.prefixes;
    Hashtbl.reset mm.ext_cache;
    Arena.clear mm.m_arena;
    mm.memo_key <- Some (caps, prune, lay)
  end;
  mm.gen <- mm.gen + 1

let memo_finish mm =
  let evict tbl =
    Hashtbl.filter_map_inplace
      (fun _ e -> if mm.gen - e.stamp > 1 then None else Some e)
      tbl
  in
  evict mm.prefixes;
  evict mm.ext_cache;
  (* Reclaim arena cells orphaned by eviction/replacement once the
     arena has outgrown its threshold; every surviving table handle is
     rewritten through one sharing-preserving compaction map. *)
  if Arena.length mm.m_arena > mm.compact_at then begin
    let c = Arena.compact_begin mm.m_arena in
    let rewrite _ e =
      for i = 0 to Int_table.length e.table - 1 do
        Int_table.set_val e.table i
          (Arena.compact_root mm.m_arena c (Int_table.val_at e.table i))
      done
    in
    Hashtbl.iter rewrite mm.prefixes;
    Hashtbl.iter rewrite mm.ext_cache;
    Arena.compact_commit mm.m_arena c;
    mm.compact_at <- max (1 lsl 16) (4 * Arena.length mm.m_arena)
  end

(* ------------------------------------------------------------------ *)
(* The packed traversal.                                              *)
(* ------------------------------------------------------------------ *)

(* Per-depth scratch buffers: the fold at depth d needs the accumulator
   and its double buffer, the current child's extension, and two prune
   scratches (count-group -> minimal key, and the compacted output).
   All five are reused across every node at that depth, so a whole
   solve touches O(height) tables and the merge inner loop allocates
   zero GC words — [clear] keeps backing storage. *)
type pslot = {
  mutable p_acc : Int_table.t;
  mutable p_alt : Int_table.t;
  mutable p_ext : Int_table.t;
  p_best : Int_table.t;
  mutable p_tmp : Int_table.t;
}

type pctx = {
  lay : Packed_key.layout;
  arena : Arena.t;
  mutable pslots : pslot array;
  memo : (memo * int64 array) option;
  (* per-merge scratch counters: mutable fields, not refs, so the hot
     path allocates nothing even without escape analysis *)
  mutable n_products : int;
  mutable n_rejected : int;
  mutable n_created : int;
}

let fresh_pslot () =
  {
    p_acc = Int_table.create ();
    p_alt = Int_table.create ();
    p_ext = Int_table.create ();
    p_best = Int_table.create ();
    p_tmp = Int_table.create ();
  }

let make_pctx ?memo lay =
  let arena =
    match memo with Some (m, _) -> m.m_arena | None -> Arena.create ()
  in
  {
    lay;
    arena;
    pslots = [||];
    memo;
    n_products = 0;
    n_rejected = 0;
    n_created = 0;
  }

let pslot pc depth =
  let n = Array.length pc.pslots in
  if depth >= n then
    pc.pslots <-
      Array.init
        (max (depth + 1) (2 * n))
        (fun i -> if i < n then pc.pslots.(i) else fresh_pslot ());
  pc.pslots.(depth)

(* Extend [sub] (the child's table) with the decision at [c] itself —
   its operating mode is forced by the flow it absorbs — writing into
   [ext] (cleared here). First-wins inserts, counting created cells
   through [pc.n_created]; the arena push happens only when the insert
   lands, so the loop allocates nothing. *)
let pextend pc tree ~modes ext sub c =
  let lay = pc.lay and arena = pc.arena in
  let m = Modes.count modes in
  Int_table.clear ext;
  let i0 = initial_of tree c in
  pc.n_created <- 0;
  for i = 0 to Int_table.length sub - 1 do
    let key = Int_table.key_at sub i in
    let placed = Int_table.val_at sub i in
    let r = Int_table.reserve ext key in
    if r >= 0 then begin
      Int_table.set_val ext r placed;
      pc.n_created <- pc.n_created + 1
    end;
    let flow = Packed_key.flow lay key in
    let f = field ~m ~i0 ~operating:(Modes.mode_of_load modes flow) in
    let key' = Packed_key.bump lay (Packed_key.zero_flow lay key) f in
    let r' = Int_table.reserve ext key' in
    if r' >= 0 then begin
      Int_table.set_val ext r' (Arena.snoc arena placed ~node:c ~flow);
      pc.n_created <- pc.n_created + 1
    end
  done;
  Metrics.add c_cells pc.n_created

(* The convolution kernel: [left] x [ext] into [into] (cleared here).
   Packed keys of disjoint subtrees add field-wise — the flow sum is
   checked against w before the add, every other field is bounded by
   the instance-wide maxima the layout was sized from, so no field can
   carry. The loop body is probes, int adds and arena pushes: zero GC
   words. *)
let pconvolve pc ~modes ~into left ext =
  let lay = pc.lay and arena = pc.arena in
  let w = Modes.max_capacity modes in
  let llen = Int_table.length left and rlen = Int_table.length ext in
  (* Span only the convolutions with enough products to dwarf the span
     bookkeeping itself — small-table merges are a handful of int ops. *)
  let tracing = Span.enabled () && llen * rlen >= 4096 in
  if tracing then Span.begin_span "dp_power.merge";
  Int_table.clear into;
  pc.n_products <- 0;
  pc.n_rejected <- 0;
  pc.n_created <- 0;
  for i = 0 to llen - 1 do
    let k1 = Int_table.key_at left i in
    let p1 = Int_table.val_at left i in
    let f1 = Packed_key.flow lay k1 in
    for j = 0 to rlen - 1 do
      let k2 = Int_table.key_at ext j in
      let flow = f1 + Packed_key.flow lay k2 in
      if flow <= w then begin
        let r = Int_table.reserve into (k1 + k2) in
        if r >= 0 then begin
          Int_table.set_val into r
            (Arena.append arena p1 (Int_table.val_at ext j));
          pc.n_created <- pc.n_created + 1
        end
      end
      else pc.n_rejected <- pc.n_rejected + 1
    done;
    pc.n_products <- pc.n_products + rlen
  done;
  Metrics.add c_products pc.n_products;
  Metrics.add c_capacity pc.n_rejected;
  Metrics.add c_cells pc.n_created;
  Metrics.record_max c_peak (Int_table.length into);
  Metrics.observe h_products pc.n_products;
  if tracing then
    Span.end_span
      ~args:
        [
          ("left_cells", Span.Int llen);
          ("child_cells", Span.Int rlen);
          ("products", Span.Int pc.n_products);
          ("merged_cells", Span.Int (Int_table.length into));
        ]
      ()

(* Start cell of a node's table: no servers below, the client load
   flows through — the packed key is just the flow field, i.e. the
   load itself. *)
let pstart ~modes tbl tree j =
  Int_table.clear tbl;
  let client = Tree.client_load tree j in
  if client <= Modes.max_capacity modes then begin
    let r = Int_table.reserve tbl client in
    Int_table.set_val tbl r Arena.empty;
    Metrics.incr c_cells
  end

(* Prune the slot buffer [tbl]: the survivors land in [p_tmp], which
   then trades places with [tbl]. Returns the buffer now holding the
   pruned table, for the caller to store back where [tbl] was. *)
let pprune_slot pc s tbl =
  let r = pprune pc.lay ~best:s.p_best ~out:s.p_tmp tbl in
  if r != tbl then s.p_tmp <- tbl;
  r

(* One fold step: [left] x [ext] into [p_alt], pruned, then the result
   becomes [p_acc]. [left] is [p_acc] itself or a read-only memo table;
   every swap permutes the five distinct tables of the slot, so no
   buffer is ever read and written in the same kernel. *)
let pmerge_step pc ~modes ~prune s left ext =
  pconvolve pc ~modes ~into:s.p_alt left ext;
  if prune then s.p_alt <- pprune_slot pc s s.p_alt;
  let t = s.p_acc in
  s.p_acc <- s.p_alt;
  s.p_alt <- t

(* Per-node spans only for subtrees of at least this many nodes —
   same rationale as [Dp_withpre.span_min_subtree]: the packed kernels
   made small-subtree merges cheaper than the span bookkeeping. *)
let span_min_subtree = 16

let spanned tree j =
  Span.enabled () && Tree.subtree_size tree j >= span_min_subtree

(* Table of node j over servers strictly below j, folded over the
   per-depth scratch slot. [domains > 1] fans sibling subtrees out over
   OCaml 5 domains at the first node with several children; the
   reduction keeps the sequential child order, so the result is
   bit-identical to [domains = 1]. With a memo, the fold resumes from
   its longest cached prefix and takes clean children's extensions
   from the cache. *)
let rec ptable pc tree ~modes ~prune ~domains ~depth j =
  if not (spanned tree j) then pnode pc tree ~modes ~prune ~domains ~depth j
  else begin
    Span.begin_span "dp_power.node";
    let tbl =
      try pnode pc tree ~modes ~prune ~domains ~depth j
      with e ->
        Span.end_span ();
        raise e
    in
    Span.end_span
      ~args:
        [
          ("node", Span.Int j);
          ("subtree_size", Span.Int (Tree.subtree_size tree j));
          ("cells", Span.Int (Int_table.length tbl));
        ]
      ();
    tbl
  end

and pnode pc tree ~modes ~prune ~domains ~depth j =
  let s = pslot pc depth in
  pstart ~modes s.p_acc tree j;
  let children = Tree.children_array tree j in
  let k = Array.length children in
  if k = 0 then s.p_acc
  else
    match pc.memo with
    | None when k >= 2 && domains > 1 ->
        (* Sibling fan-out: each child builds its extension in a private
           pctx + arena; grafting back and folding keeps the sequential
           child order. *)
        let exts =
          Par.map ~domains
            (fun c ->
              let cp = make_pctx pc.lay in
              let ext =
                pext cp tree ~modes ~prune ~domains:1 ~depth:0 (pslot cp 0) c
              in
              (ext, cp.arena))
            (Array.to_list children)
        in
        List.iter
          (fun (ext, child_arena) ->
            let map = Array.make (Arena.length child_arena) 0 in
            for i = 0 to Int_table.length ext - 1 do
              Int_table.set_val ext i
                (Arena.graft ~src:child_arena ~dst:pc.arena ~map
                   (Int_table.val_at ext i))
            done;
            pmerge_step pc ~modes ~prune s s.p_acc ext)
          exts;
        s.p_acc
    | None ->
        let domains = if k = 1 then domains else 1 in
        for i = 0 to k - 1 do
          pmerge_step pc ~modes ~prune s s.p_acc
            (pext pc tree ~modes ~prune ~domains ~depth s children.(i))
        done;
        s.p_acc
    | Some (mm, fps) ->
        (* Prefix i of the fold is keyed by the fingerprint chain of the
           client load and the first i child subtrees. *)
        let keys = Array.make (k + 1) (fp_seed (Tree.client_load tree j)) in
        for i = 1 to k do
          keys.(i) <-
            Tree.combine_fingerprints keys.(i - 1) fps.(children.(i - 1))
        done;
        let rec longest i =
          if i = 0 then (0, s.p_acc)
          else
            match Hashtbl.find_opt mm.prefixes (j, keys.(i)) with
            | Some e ->
                e.stamp <- mm.gen;
                (i, e.table)
            | None -> longest (i - 1)
        in
        let first, left = longest k in
        if first > 0 && first < k then Metrics.incr c_memo_partial;
        if spanned tree j then
          Span.add_arg "memo"
            (Span.Str
               (if first = k then "hit"
                else if first > 0 then "partial"
                else "miss"));
        let acc = ref left in
        for i = first to k - 1 do
          pmerge_step pc ~modes ~prune s !acc
            (pext pc tree ~modes ~prune ~domains:1 ~depth s children.(i));
          acc := s.p_acc;
          Hashtbl.replace mm.prefixes
            (j, keys.(i + 1))
            { stamp = mm.gen; table = Int_table.copy s.p_acc }
        done;
        !acc

(* Child [c]'s table extended with the decision at [c] itself and
   pruned, in the slot's [p_ext] — or, with a memo, looked up by the
   child's subtree fingerprint: a clean child costs one probe instead
   of a subtree of work, and a fresh extension is copied into the
   cache. *)
and pext pc tree ~modes ~prune ~domains ~depth s c =
  match pc.memo with
  | None -> pbuild_ext pc tree ~modes ~prune ~domains ~depth s c
  | Some (mm, fps) -> (
      match Hashtbl.find_opt mm.ext_cache (c, fps.(c)) with
      | Some e ->
          e.stamp <- mm.gen;
          Metrics.incr c_memo_hits;
          if Span.enabled () then begin
            (* The zero-length span keeps the skipped subtree visible
               in the trace. *)
            Span.begin_span "dp_power.memo_hit";
            Span.end_span ~args:[ ("node", Span.Int c) ] ()
          end;
          e.table
      | None ->
          Metrics.incr c_memo_misses;
          let ext = pbuild_ext pc tree ~modes ~prune ~domains ~depth s c in
          Hashtbl.replace mm.ext_cache (c, fps.(c))
            { stamp = mm.gen; table = Int_table.copy ext };
          ext)

and pbuild_ext pc tree ~modes ~prune ~domains ~depth s c =
  let sub = ptable pc tree ~modes ~prune ~domains ~depth:(depth + 1) c in
  pextend pc tree ~modes s.p_ext sub c;
  if prune then s.p_ext <- pprune_slot pc s s.p_ext;
  s.p_ext

(* ------------------------------------------------------------------ *)
(* Wide fallback: the same recurrence over [int array] keys, for      *)
(* instances whose tight layout exceeds 62 bits. Sequential and       *)
(* memo-less.                                                         *)
(* ------------------------------------------------------------------ *)

module Tbl = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) b = a = b

  let hash a =
    Array.fold_left (fun h x -> (h * 31) + x + 1) 17 a land max_int
end)

let wprune ~sm tbl =
  let best = Tbl.create (Tbl.length tbl) in
  Tbl.iter
    (fun key _ ->
      let counts = Array.sub key 0 sm in
      match Tbl.find_opt best counts with
      | Some k0 when k0.(sm) <= key.(sm) -> ()
      | Some _ | None -> Tbl.replace best counts key)
    tbl;
  let dropped = Tbl.length tbl - Tbl.length best in
  if dropped = 0 then tbl
  else begin
    Metrics.add c_pruned dropped;
    let out = Tbl.create (Tbl.length best) in
    Tbl.iter (fun _ key -> Tbl.replace out key (Tbl.find tbl key)) best;
    out
  end

let wtable arena tree ~modes ~prune =
  let m = Modes.count modes and w = Modes.max_capacity modes in
  let sm = state_size m in
  let insert tbl key placed =
    if not (Tbl.mem tbl key) then begin
      Tbl.replace tbl key (placed ());
      Metrics.incr c_cells
    end
  in
  let prune tbl = if prune && Tbl.length tbl > 1 then wprune ~sm tbl else tbl in
  let rec node j =
    let start = Tbl.create 16 in
    let client = Tree.client_load tree j in
    if client <= w then begin
      let key = Array.make (sm + 1) 0 in
      key.(sm) <- client;
      insert start key (fun () -> Arena.empty)
    end;
    Array.fold_left merge start (Tree.children_array tree j)
  and merge left c =
    let sub = node c in
    let ext = Tbl.create (2 * Tbl.length sub) in
    let i0 = initial_of tree c in
    Tbl.iter
      (fun key placed ->
        insert ext key (fun () -> placed);
        let flow = key.(sm) in
        let key' = Array.copy key in
        let f = field ~m ~i0 ~operating:(Modes.mode_of_load modes flow) in
        key'.(f) <- key'.(f) + 1;
        key'.(sm) <- 0;
        insert ext key' (fun () -> Arena.snoc arena placed ~node:c ~flow))
      sub;
    let ext = prune ext in
    Log.debug (fun f ->
        f "merge child %d: %d x %d cells" c (Tbl.length left) (Tbl.length ext));
    let merged = Tbl.create (2 * Tbl.length left) in
    let products = Tbl.length left * Tbl.length ext and rejected = ref 0 in
    Tbl.iter
      (fun k1 p1 ->
        Tbl.iter
          (fun k2 p2 ->
            if k1.(sm) + k2.(sm) <= w then
              insert merged
                (Array.init (sm + 1) (fun i -> k1.(i) + k2.(i)))
                (fun () -> Arena.append arena p1 p2)
            else incr rejected)
          ext)
      left;
    Metrics.add c_products products;
    Metrics.add c_capacity !rejected;
    Metrics.record_max c_peak (Tbl.length merged);
    Metrics.observe h_products products;
    prune merged
  in
  node (Tree.root tree)

(* ------------------------------------------------------------------ *)
(* The root scan and the public entry points.                         *)
(* ------------------------------------------------------------------ *)

(* The root table as both representations present it to the scan:
   [read i v] writes cell [i]'s state vector into [v] and returns its
   placement in [arena]. *)
type root = {
  cells : int;
  read : int -> int array -> int;
  arena : Arena.t;
  node : Tree.node;
  i0 : int;  (* the root's initial mode, 0 when not pre-existing *)
  available : int array;  (* pre-existing servers per initial mode *)
}

(* Build the root table — packed when [lay] is given (through [memo]
   when given), wide otherwise — under the tables span and timer. *)
let root_table ?memo tree ~modes ~prune ~domains lay =
  let tracing = Span.enabled () in
  if tracing then Span.begin_span "dp_power.tables";
  let sm = state_size (Modes.count modes) in
  let cells, read, arena =
    Metrics.time t_tables (fun () ->
        match lay with
        | Some lay ->
            let pc = make_pctx ?memo lay in
            let t =
              ptable pc tree ~modes ~prune ~domains ~depth:0 (Tree.root tree)
            in
            let read i v =
              let key = Int_table.key_at t i in
              for f = 0 to sm do
                v.(f) <- Packed_key.get lay key f
              done;
              Int_table.val_at t i
            in
            (Int_table.length t, read, pc.arena)
        | None ->
            let arena = Arena.create () in
            let t = wtable arena tree ~modes ~prune in
            let keys = Array.make (Tbl.length t) [||]
            and vals = Array.make (Tbl.length t) 0
            and n = ref 0 in
            Tbl.iter
              (fun key placed ->
                keys.(!n) <- key;
                vals.(!n) <- placed;
                incr n)
              t;
            let read i v =
              Array.blit keys.(i) 0 v 0 (sm + 1);
              vals.(i)
            in
            (!n, read, arena))
  in
  if tracing then Span.end_span ~args:[ ("root_cells", Span.Int cells) ] ();
  let root = Tree.root tree in
  {
    cells;
    read;
    arena;
    node = root;
    i0 = initial_of tree root;
    available = available_of tree ~m:(Modes.count modes);
  }

(* The server a root decision adds; its mode follows from the residual
   flow (mode 1 for the zero-load reuse of a pre-existing root). The
   flow field is left as read — the readers below look only at
   counts. *)
let bump_root ~modes root v =
  let m = Modes.count modes in
  let f =
    field ~m ~i0:root.i0 ~operating:(Modes.mode_of_load modes v.(state_size m))
  in
  v.(f) <- v.(f) + 1

(* Every complete candidate, in scan order, through [consider id v]:
   candidate [2i + b] is root cell [i] completed without (b = 0) or
   with (b = 1) a root server, its full state vector in [v]. A
   zero-flow cell admits the no-root completion plus, when the root is
   pre-existing, its zero-load reuse; positive flow forces a root
   server. *)
let enumerate ~modes root consider =
  let tracing = Span.enabled () in
  if tracing then Span.begin_span "dp_power.enumerate";
  let sm = state_size (Modes.count modes) in
  let v = Array.make (sm + 1) 0 and n = ref 0 in
  Metrics.time t_enumerate (fun () ->
      for i = 0 to root.cells - 1 do
        ignore (root.read i v);
        let flow = v.(sm) in
        if flow = 0 then begin
          incr n;
          consider (2 * i) v
        end;
        if flow > 0 || root.i0 > 0 then begin
          bump_root ~modes root v;
          incr n;
          consider ((2 * i) + 1) v
        end
      done);
  if tracing then Span.end_span ~args:[ ("candidates", Span.Int !n) ] ()

(* The two readers of a complete state vector: Eq. 4's server tally
   (written into a caller-owned record) and Eq. 3's power. *)
let tally_into root t v =
  let m = Array.length root.available in
  for i = 0 to m - 1 do
    t.Cost.created.(i) <- v.(i)
  done;
  for i0 = 0 to m - 1 do
    let row = t.Cost.reused.(i0) in
    let sum = ref 0 in
    for op = 0 to m - 1 do
      row.(op) <- v.(m + (i0 * m) + op);
      sum := !sum + row.(op)
    done;
    t.Cost.deleted.(i0) <- root.available.(i0) - !sum
  done

let power_of ~modes ~power v =
  let m = Modes.count modes in
  let total = ref 0. in
  for op = 1 to m do
    let count = ref v.(op - 1) in
    for i0 = 1 to m do
      count := !count + v.(field ~m ~i0 ~operating:op)
    done;
    if !count > 0 then
      total := !total +. (float_of_int !count *. Power.of_mode power modes op)
  done;
  !total

(* Decode one candidate into a [result]. *)
let candidate ~modes ~power ~cost root id =
  let m = Modes.count modes in
  let v = Array.make (state_size m + 1) 0 in
  let placed = root.read (id lsr 1) v in
  let with_root = id land 1 = 1 in
  if with_root then bump_root ~modes root v;
  let tally = Cost.empty_tally ~modes:m in
  tally_into root tally v;
  let nodes = Arena.nodes root.arena placed in
  {
    solution =
      Solution.of_nodes (if with_root then root.node :: nodes else nodes);
    power = power_of ~modes ~power v;
    cost = Cost.modal_cost cost tally;
    tally;
  }

let check_modes ~modes ~cost =
  if Cost.mode_count cost <> Modes.count modes then
    invalid_arg "Dp_power: cost model mode count mismatch"

(* Scan the root WITHOUT materializing candidates — cost and power go
   through one scratch tally, and only the winner is decoded. The
   non-strict replace keeps the last-scanned of equal (power, cost)
   candidates, the tie-break [frontier] shares. *)
let solve tree ~modes ~power ~cost ?(bound = infinity) ?prune ?(domains = 1)
    ?memo:mm () =
  check_modes ~modes ~cost;
  (* Pruning is exact for the pure MinPower problem regardless of the
     cost model, and for bounded problems under mode-monotone costs —
     see the proof above [pprune]. *)
  let prune =
    match prune with
    | Some p -> p
    | None -> bound = infinity || Cost.is_mode_monotone cost
  in
  let tracing = Span.enabled () in
  if tracing then Span.begin_span "dp_power.solve";
  let tier, bits, lay = layout_for tree ~modes in
  let memo =
    match (mm, lay) with
    | Some mm, Some lay ->
        memo_prepare mm ~modes ~prune lay;
        Some (mm, Tree.subtree_fingerprints tree)
    | _ -> None
  in
  let root = root_table ?memo tree ~modes ~prune ~domains lay in
  let scratch = Cost.empty_tally ~modes:(Modes.count modes) in
  let best = ref (-1) and best_p = ref infinity and best_c = ref infinity in
  enumerate ~modes root (fun id v ->
      tally_into root scratch v;
      let c = Cost.modal_cost cost scratch in
      if c <= bound then begin
        let p = power_of ~modes ~power v in
        if !best < 0 || p < !best_p || (p = !best_p && c <= !best_c) then begin
          best := id;
          best_p := p;
          best_c := c
        end
      end);
  let result =
    if !best < 0 then None else Some (candidate ~modes ~power ~cost root !best)
  in
  (match memo with Some (mm, _) -> memo_finish mm | None -> ());
  if tracing then
    Span.end_span
      ~args:
        [
          ("nodes", Span.Int (Tree.size tree));
          ("layout", Span.Str tier);
          ("key_bits", Span.Int bits);
          ("prune", Span.Bool prune);
          ("domains", Span.Int domains);
          ("memo", Span.Bool (memo <> None));
          ("solved", Span.Bool (result <> None));
        ]
      ();
  result

let frontier ?prune ?(domains = 1) tree ~modes ~power ~cost =
  check_modes ~modes ~cost;
  (* The frontier sweeps every cost bound at once, so pruning is only
     exact under mode-monotone costs. *)
  let prune =
    match prune with Some p -> p | None -> Cost.is_mode_monotone cost
  in
  let _, _, lay = layout_for tree ~modes in
  let root = root_table tree ~modes ~prune ~domains lay in
  let scratch = Cost.empty_tally ~modes:(Modes.count modes) in
  let rows = ref [] in
  enumerate ~modes root (fun id v ->
      tally_into root scratch v;
      let c = Cost.modal_cost cost scratch in
      rows := (c, power_of ~modes ~power v, id) :: !rows);
  (* Stable sort of the reversed scan: of equal (cost, power) rows the
     last scanned comes first, as in [solve]. Keep points that strictly
     improve power as cost increases; decode only those. *)
  let rows =
    List.stable_sort
      (fun (c1, p1, _) (c2, p2, _) -> compare (c1, p1) (c2, p2))
      !rows
  in
  let rec pareto best = function
    | [] -> []
    | (_, p, id) :: rest ->
        if p < best then candidate ~modes ~power ~cost root id :: pareto p rest
        else pareto best rest
  in
  pareto infinity rows

let root_state_count ?(prune = false) ?(domains = 1) tree ~modes =
  let _, _, lay = layout_for tree ~modes in
  (root_table tree ~modes ~prune ~domains lay).cells

(* Allocation probe: minor words allocated by rebuilding the whole
   packed table pyramid with warm scratch buffers — the quantity the
   bench gate pins to exactly zero. The first build grows every pool
   and the arena to steady-state capacity; the metered rebuild then
   runs entirely in preallocated storage. The no-op measurement
   cancels the constant metering overhead (float boxing in bytecode). *)
let merge_minor_words tree ~modes ~prune =
  match layout_for tree ~modes with
  | _, _, None ->
      invalid_arg
        "Dp_power.merge_minor_words: instance exceeds the packed key budget"
  | _, _, Some lay ->
      let root = Tree.root tree in
      let pc = make_pctx lay in
      ignore (ptable pc tree ~modes ~prune ~domains:1 ~depth:0 root);
      let rebuild () =
        Arena.clear pc.arena;
        ignore (ptable pc tree ~modes ~prune ~domains:1 ~depth:0 root)
      in
      let meter f =
        let a0 = Gc.minor_words () in
        f ();
        Gc.minor_words () -. a0
      in
      let baseline = meter (fun () -> ()) in
      (* one extra warm rebuild so every scratch pool has seen the
         final swap pattern before the metered run *)
      rebuild ();
      meter rebuild -. baseline
