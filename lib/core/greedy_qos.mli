(** Constraint-aware greedy placement (closest policy, QoS + bandwidth).

    One postorder pass over the tree: child flows that would exhaust
    their QoS slack or exceed their link's bandwidth are forced into a
    server at the child; the plain greedy's capacity rule absorbs the
    largest child flows whenever the arriving total exceeds [w].

    Feasibility-complete — returns [None] exactly when no placement at
    all satisfies capacity, QoS and bandwidth (some node's own client
    load exceeds [w], or the brute oracle agrees it is infeasible) — but
    not count-optimal, so it registers as a [Heuristic]; use {!Dp_withpre}
    for the optimum. On unconstrained trees it behaves exactly like
    {!Greedy}. *)

val solve : Tree.t -> w:int -> Solution.t option
(** @raise Invalid_argument if [w <= 0]. *)

val solve_count : Tree.t -> w:int -> int option
(** Replica count of {!solve}'s placement. *)
