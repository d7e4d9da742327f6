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

    {2 Staircase tables}

    A table keeps only the cells that can be optimal. Eq. 2 charges
    every new server [1 + create > 0] (for finite [create] and
    [delete]), so a cell [(e, n, f)] is {e dominated} by any cell
    [(e, n' < n, f' <= f)] of its row: every completion of the
    dominated cell also completes the dominating one (less flow never
    overloads an ancestor) at [(n - n')(1 + create)] less, so the
    dominated cell is never optimal and never tied, including in the
    zero-load root-reuse branch below. Each row [e] is therefore stored
    as its {e staircase} — the cells whose flow is strictly below that
    of every cell of the row with fewer new servers, at most [w + 1] of
    them — as parallel arrays in [(e, n)] order. The first
    minimal-flow combination realizing a surviving cell never uses a
    dropped one, and extensions and merges walk the surviving cells in
    the dense DP's order (left-major, each side in [(e, n)]), so
    placements, costs and tie-breaks are bit-identical to the dense
    tables. Each extension or merge is staged in a dense [(e, n)] grid
    that records every row's written range, then compacted row by row;
    the grid and the per-depth tables come from a per-domain scratch
    reused across solves (grids above 2{^22} cells live for one solve
    only), so a warm memo-less solve allocates only its result.

    Counters ({!Stats_counters}) measure the staircase work:
    [dp_withpre.merge_products] (pairs of surviving cells convolved),
    [dp_withpre.cells_created] (grid cells written for the first time
    while staging), [dp_withpre.capacity_rejected] (products whose flow
    exceeds [w]), [dp_withpre.dominance_pruned] (staged cells the
    staircase drops), [dp_withpre.peak_table_size] (largest merged
    staircase) and the [dp_withpre.memo_*] outcomes below.

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
    when [w] changes. *)

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
(** Optimal-cost placement, or [None] when the instance is infeasible.
    With [?memo], an incremental re-solve that reuses every table whose
    subtree is unchanged since the previous solves — bit-identical
    results either way.
    @raise Invalid_argument if [w <= 0]. *)

val root_table : Tree.t -> w:int -> int option array array
(** Diagnostic view: the root's [minr] table over the full
    [(E'+1) x (N'+1)] grid, [E'] and [N'] being the pre-existing and
    other nodes strictly below the root. Entry [(e, n)] is the minimal
    number of requests traversing the root with exactly [e] reused and
    [n] new servers strictly below it when that cell is on its row's
    staircase, and [None] when it is infeasible or dominated (some cell
    of row [e] with fewer new servers has no more flow).
    @raise Invalid_argument if [w <= 0]. *)
