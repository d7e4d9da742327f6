(** Optimal greedy algorithm for [MinCost-NoPre] (the baseline "GR").

    This is the O(N log N) strategy of Wu, Lin and Liu [19] for the
    closest policy: traverse the tree bottom-up, maintaining for every
    node the number of requests flowing up through it; whenever the flow
    at a node exceeds the capacity [W], place replicas at the children
    carrying the largest flows — each absorbs its whole flow — until the
    residue fits. Deferring placement as high as possible and absorbing
    the largest flows first simultaneously minimizes the replica count
    and, for that count, the number of requests traversing each node
    (cf. Lemma 1), which makes the greedy optimal {e without}
    pre-existing servers. §3.1 shows it is no longer optimal with them. *)

val solve : Tree.t -> w:int -> Solution.t option
(** Minimal-cardinality replica set, or [None] when no valid placement
    exists (some aggregated client demand exceeds [w]). One {!kernel}
    run plus one {!Solution.of_nodes}.
    @raise Invalid_argument if [w <= 0]. *)

val solve_count : Tree.t -> w:int -> int option
(** Cardinality of {!solve}'s answer. *)

(** {1 Kernel}

    The greedy as an allocation-free pass over per-tree scratch, so a
    caller that runs it at many capacities on one tree (the GR sweep of
    {!Greedy_power}) pays for the scratch once. The scratch, all of it
    allocated by {!kernel}: the postorder, each node's own client load,
    the flow array, a per-node server-load array ([-1] = no server),
    the servers in placement order, and a child buffer of max-degree
    size (plus a second one for merging). At an overflowing node the
    child buffer is ordered by descending flow, ties in child order —
    insertion sort within runs of 16 children, merged through the second
    buffer beyond that — which is exactly [List.sort]'s order on the
    child list. Child flows depend on the capacity, so the sort runs per
    capacity. *)

type kernel
(** Scratch for one tree, reused by every {!run}. *)

val kernel : Tree.t -> kernel

val run : kernel -> w:int -> bool
(** Run the greedy at capacity [w], overwriting the previous run's
    state; [true] iff the placement is feasible. Allocation-free with
    tracing off. Emits one [greedy.solve] span (args [nodes], [w],
    [servers], [solved]) when tracing is on.
    @raise Invalid_argument if [w <= 0]. *)

val replay : kernel -> w:int -> unit
(** {!run} without the span: rebuilds the state of a capacity already
    reported through {!run}, so a trace still shows one [greedy.solve]
    span per capacity. *)

val load : kernel -> Tree.node -> int
(** The last run's load on a server, [-1] for a node without one. Under
    the closest policy this is the node's whole arriving flow. *)

val placement : kernel -> Solution.t
(** The last run's servers (meaningful when it was feasible). *)
