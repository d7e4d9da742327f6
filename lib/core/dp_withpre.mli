(** Dynamic program for [MinCost-WithPre] (§3, Theorem 1).

    The paper's main update-strategy algorithm: for every node [j], a
    table indexed by the exact number [e] of reused pre-existing servers
    and [n] of newly created servers in the subtree below [j] (excluding
    [j]) stores the minimal number of requests that must traverse [j]
    together with a placement realizing it. Lemma 1 shows an optimal
    global solution can be assembled from these flow-minimal local ones.
    Children are merged one by one (Algorithm 3); the root table is then
    scanned with the cost function Eq. 2 to pick the cheapest feasible
    pair (Algorithm 4).

    {2 QoS and bandwidth}

    Beyond the source paper, the same program is exact under per-client
    QoS bounds (a client's server at most that many hops up) and
    per-link bandwidth caps, after Rehn-Sonigo (arXiv 0706.3350). Under
    the closest policy the clients whose requests still flow at a node
    share one server on the path to the root, so a cell summarizes them
    by its {e slack class} b, the greatest (client depth − QoS bound):
    the deepest depth at which their server may sit.
    - Passing a cell's flow up from [c] to its parent (at depth [d])
      keeps b; it is legal iff the flow fits [Tree.bandwidth c] and
      [b <= d]. Otherwise it is counted in [dp_withpre.bw_rejected] or
      [dp_withpre.qos_rejected].
    - Merging two cells takes the larger b; placing a server absorbs
      the flow and leaves no bound.
    - At the root every remaining flow may reach depth 0 (bounds are
      never negative), so a positive-flow cell takes a root server.

    The distinct finite b of a tree, plus "no bound", are its classes.
    An unconstrained tree, or one with bandwidth caps only, has a
    single class, and its tables are exactly the unconstrained ones.

    {2 Staircase tables}

    A table keeps only the cells that can be optimal. Eq. 2 charges
    every new server [1 + create > 0] (for finite [create] and
    [delete]), so a cell [(e, n, b, f)] is {e dominated} by any cell
    [(e, n' <= n, b' <= b, f' <= f)] of its row: every completion of
    the dominated cell also completes the dominating one (less flow
    never overloads an ancestor or a link, a smaller b never breaks a
    bound) at [(n - n')(1 + create)] less, so the dominated cell is
    never optimal and never tied, including in the zero-load
    root-reuse branch below; at [n' = n] it is a point the (flow,
    slack) Pareto frontier of the constrained DP drops anyway. Each row
    [e] is therefore stored as its {e staircase} — per [n], the
    undominated cells in ascending flow (descending b), at most [w + 1]
    cells per class — as parallel arrays in [(e, n)] order, the class
    packed into the low bits of the flow word. With one class a row
    is the cells whose flow strictly drops as [n] grows. The first
    minimal-flow combination realizing a surviving cell never uses a
    dropped one, and extensions and merges walk the surviving cells in
    the full DP's order (left-major, each side in table order), so
    placements, costs and tie-breaks are bit-identical to the dense
    tables and, under constraints, to the full (flow, slack) frontier
    DP. Each extension or merge is staged in a dense [(e, n, class)]
    grid that records every row's written range, then compacted row by
    row; the grid and the per-depth tables come from a per-domain
    scratch reused across solves (grids above 2{^22} slots live for one
    solve only), so a warm memo-less solve allocates only its result.

    Counters ({!Replica_obs.Metrics}) measure the staircase work:
    [dp_withpre.merge_products] (pairs of surviving cells convolved),
    [dp_withpre.cells_created] (grid slots written for the first time
    while staging), [dp_withpre.capacity_rejected] (products whose flow
    exceeds [w]), [dp_withpre.qos_rejected] and
    [dp_withpre.bw_rejected] (cells that may not pass a link),
    [dp_withpre.dominance_pruned] (staged cells the staircase drops),
    [dp_withpre.peak_table_size] (largest merged staircase) and the
    [dp_withpre.memo_*] outcomes below.

    Two deliberate deviations from the paper's pseudo-code, both
    documented in DESIGN.md:
    - placements are carried as O(1)-append catenable lists instead of
      per-cell O(N) request vectors, realizing the §3.3 "copy outside the
      loop" optimization functionally and bounding every node's pair of
      dimensions by its own subtree content; with the staircase tables
      above a table holds at most [(E+1)(w+1)] cells instead of
      [(E+1)(N-E+1)], which is what makes the worst-case O(N^5) bound
      loose in practice;
    - when the root flow is zero and the root is itself a pre-existing
      server, we additionally consider {e reusing it at zero load}, which
      beats deleting it whenever [delete > 1]; Algorithm 4 omits that
      branch.

    {2 Incremental re-solving}

    The online reconfiguration engine ({!Replica_engine.Engine}) calls
    this solver once per epoch on trees that differ only where demand
    moved. Passing a {!memo} makes those re-solves incremental: every
    prefix of every node's child-merge fold is cached, keyed by a chain
    of subtree fingerprints ({!Tree.subtree_fingerprints}), so a solve
    after a demand shift recomputes only the tables of the changed
    subtrees and the suffixes of the merge folds along their root
    paths — everything else is reused. Results are {e identical} to a
    memo-less solve (cached tables are exact, not approximate; the only
    caveat is the ~2^-64 fingerprint-collision probability). Cache
    effectiveness is observable through the
    [dp_withpre.memo_{hits,partial,misses}] counters; entries unused
    for two consecutive solves are evicted. A memo must only be reused
    across trees sharing one node-id space (epoch views derived by
    {!Tree.with_clients} / {!Tree.with_pre_existing}); it resets itself
    when [w] or the tree's set of classes changes. *)

type result = {
  solution : Solution.t;
  cost : float;  (** Eq. 2 value of [solution] *)
  servers : int;  (** [R] *)
  reused : int;  (** [e = |R ∩ E|] *)
}

type memo
(** A reusable cache of per-node merge-fold prefixes (see above). *)

val memo : unit -> memo
(** A fresh, empty memo. *)

val memo_size : memo -> int
(** Number of cached tables currently held (observability). *)

val solve : ?memo:memo -> Tree.t -> w:int -> cost:Cost.basic -> result option
(** Optimal-cost placement honouring the tree's QoS bounds and link
    bandwidths, or [None] when the instance is infeasible. With
    [?memo], an incremental re-solve that reuses every table whose
    subtree is unchanged since the previous solves — bit-identical
    results either way.
    @raise Invalid_argument if [w <= 0], or if a constrained tree's
    total demand leaves no room for its class bits in a flow word. *)

val root_table : Tree.t -> w:int -> int option array array
(** Diagnostic view: the root's [minr] table over the full
    [(E'+1) x (N'+1)] grid, [E'] and [N'] being the pre-existing and
    other nodes strictly below the root. Entry [(e, n)] is the minimal
    number of requests traversing the root with exactly [e] reused and
    [n] new servers strictly below it when that cell is on its row's
    staircase, and [None] when it is infeasible or dominated (some cell
    of row [e] with fewer new servers has no more flow). Under QoS
    bounds it is the least flow of [(e, n)]'s surviving classes.
    @raise Invalid_argument if [w <= 0]. *)
