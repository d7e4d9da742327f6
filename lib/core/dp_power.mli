(** Dynamic program for [MinPower] and [MinPower-BoundedCost] (§4.3).

    §4.1 shows that with power modes, minimizing the requests traversing a
    node is no longer sufficient: a single-server subtree may be better
    served by a slow server letting requests through than by a fast one
    absorbing everything. The paper's fix — which this module implements —
    is to refine the per-node table: instead of the pair [(e, n)] of
    [Dp_withpre], a table entry is indexed by the full vector state

    [(n_1, …, n_M, e_{1,1}, …, e_{M,M}, flow)]

    giving the exact number of new servers operated at each mode, of
    reused pre-existing servers per (initial, operating) mode pair, and
    the number of requests traversing the node. For a fixed key the
    cost (Eq. 4) and power (Eq. 3) of the subtree contribution and its
    influence upstream are fully determined, so one representative
    placement per key suffices. A server's operating mode is forced by
    its absorbed load ([Modes.mode_of_load]), so merging a child tries
    exactly two decisions: no replica, or a replica whose mode follows
    from the child's residual flow.

    Note a deviation from a literal reading of the paper, uncovered by
    this library's differential fuzzer and documented in DESIGN.md: §4.3
    keeps, per count-vector, only the flow-minimal placement (the §3
    Lemma 1 device). Under load-determined modes that is {e unsound}
    once mode-change costs are positive — raising a subtree's residual
    flow can keep an upstream reused server in its original (higher)
    mode and avoid a [changed_{i,i'}] charge, so the flow-minimal
    representative can be the only one that busts a tight cost bound.
    Keying cells by (counts, flow) restores exactness at the price of a
    factor bounded by the number of achievable flow values ([<= W]).

    Tables are {e sparse} (hash tables keyed by the full vector): a
    subtree of [s] nodes with [p] pre-existing servers can only realize
    keys within its own [(s, p, W)] budget, which is what makes the
    algorithm practical despite the O(N^{2M^2+2M+1}) worst case. With no
    pre-existing server the counts collapse to [(n_1..n_M)]; [MinPower]
    (Theorem 2, NP-complete for arbitrary M) is the special case
    [bound = ∞].

    {2 Observability, pruning, parallelism}

    Every phase is instrumented through {!Stats_counters} under the
    [dp_power.*] namespace: [cells_created], [merge_products] (cartesian
    pairs attempted), [capacity_rejected], [dominance_pruned],
    [peak_table_size] (high-water mark, recorded before pruning), and
    the [tables] / [enumerate] wall-clock timers. Counter totals are
    deterministic for a fixed workload at any [domains] value.

    {e Dominance pruning} keeps, among coexisting cells with identical
    count entries, only the flow-minimal one. By the mirror argument
    proved in the implementation, this is exact — identical (power,
    cost) results — for the pure [MinPower] problem under {e any} cost
    model, and for bounded problems and the frontier under
    {e mode-monotone} cost models ({!Cost.is_mode_monotone}). The
    [?prune] defaults follow exactly that rule; pass [~prune:false]
    (resp. [true]) to force the unpruned (resp. pruned) merge, e.g. for
    differential testing.

    [?domains > 1] fans sibling subtrees out over OCaml 5 domains (via
    {!Par}) at the first node with several children; the reduction over
    child tables keeps the sequential order, so results — and counter
    totals — are bit-identical to the sequential run.

    {2 Incremental re-solving}

    Passing a {!memo} to {!solve} makes consecutive solves over epoch
    views of the same network incremental, exactly as in
    {!Dp_withpre}: extended child tables are cached by subtree
    fingerprint ({!Tree.subtree_fingerprints}) and every prefix of
    every node's child-merge fold is cached by a fingerprint chain, so
    a re-solve after a localized demand shift recomputes only the
    dirtied tables. Results are bit-identical to a memo-less solve
    (modulo the ~2^-64 fingerprint-collision probability). The memo
    forces the sequential merge path ([domains] is ignored); it resets
    itself when the mode ladder, the resolved prune flag or the packed
    key layout changes, and is observable through
    [dp_power.memo_{hits,partial,misses}].

    {2 Representation}

    Keys are bit-packed unboxed ints ({!Packed_key}), tables are flat
    open-addressing [int -> int] tables ({!Int_table}), and placements
    are handles into a flat {!Arena} — the child-merge convolution runs
    over per-depth scratch buffers and allocates {e zero} GC words
    ({!merge_minor_words} measures exactly that; the bench gate pins it
    to 0). The layout is sized in two tiers: uniform N-wide count
    fields, else tight per-field maxima (new-server counts by the
    number of nodes that are not pre-existing, reuse counts by the
    pre-existing census per initial mode); {!packed_bits} reports the
    width. An instance whose tight layout still exceeds 62 bits
    (e.g. M ≥ 8 with pre-existing servers at several initial modes)
    falls back to [int array] keys: the same optimum, Pareto frontier
    and [dp_power.*] counter totals, but sequential and memo-less —
    [?domains] and [?memo] are no-ops there. The chosen tier and width
    are recorded on the [dp_power.solve] span ([layout] =
    uniform|tight|wide, [key_bits]). *)

type result = {
  solution : Solution.t;
  power : float;  (** Eq. 3 value *)
  cost : float;  (** Eq. 4 value *)
  tally : Cost.tally;  (** server classification behind [cost] *)
}

type memo
(** A reusable cache of extended child tables and merge-fold prefixes
    (see above). *)

val memo : unit -> memo
(** A fresh, empty memo. *)

val memo_size : memo -> int
(** Number of cached tables currently held (observability). *)

val solve :
  Tree.t ->
  modes:Modes.t ->
  power:Power.t ->
  cost:Cost.modal ->
  ?bound:float ->
  ?prune:bool ->
  ?domains:int ->
  ?memo:memo ->
  unit ->
  result option
(** Minimal-power placement among those of cost at most [bound] (default
    [infinity], i.e. the pure [MinPower] problem). [None] when no valid
    placement meets the bound. [prune] defaults to the exactness rule
    above ([bound = infinity || Cost.is_mode_monotone cost]);
    [domains] defaults to [1] (sequential) and is ignored when [memo]
    is given or the instance takes the wide fallback.
    @raise Invalid_argument if the cost model's mode count differs from
    [modes]. *)

val frontier :
  ?prune:bool ->
  ?domains:int ->
  Tree.t ->
  modes:Modes.t ->
  power:Power.t ->
  cost:Cost.modal ->
  result list
(** All Pareto-optimal (cost, power) trade-offs, sorted by increasing
    cost (and strictly decreasing power). [solve ~bound] is equivalent to
    picking the last frontier point with [cost <= bound]; computing the
    frontier once answers every bound, which is how the Experiment 3
    harness sweeps cost bounds. [prune] defaults to
    [Cost.is_mode_monotone cost] (the frontier must stay exact at every
    bound at once). *)

val root_state_count : ?prune:bool -> ?domains:int -> Tree.t -> modes:Modes.t -> int
(** Number of distinct (counts, flow) cells in the root table — a direct
    measure of the instance's combinatorial hardness, used by the
    scaling benches. [prune] defaults to [false] so the count measures
    the raw state space; pass [~prune:true] to measure what survives
    dominance pruning. *)

val packed_bits : Tree.t -> modes:Modes.t -> int option
(** Width in bits of the packed key this instance uses, [None] when
    even the tight layout exceeds the 62-bit budget and the solver
    takes the wide fallback. *)

val merge_minor_words : Tree.t -> modes:Modes.t -> prune:bool -> float
(** Minor-heap words allocated while rebuilding the full packed table
    pyramid with warm (steady-state) scratch buffers — exactly [0.]
    when the packed merge kernels are allocation-free, which the bench
    suite asserts.
    @raise Invalid_argument when the instance exceeds the packed key
    budget. *)
