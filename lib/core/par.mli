(** Deterministic parallel map over OCaml 5 domains.

    Two kinds of work fan out across cores without changing any result:
    whole instances (every tree of an experiment gets its own pre-split
    PRNG and the solvers touch no shared state — see
    [Replica_experiments.Exp1]/[Exp2]/[Exp3]), and sibling subtrees
    inside {!Dp_power}'s bottom-up table construction (each child's
    table is a pure function of its subtree; the reduction over child
    tables stays sequential and ordered). Outputs are collected
    positionally, randomness is fixed before the fan-out, and
    {!Replica_obs.Metrics} cells are atomic — so results and counter totals
    are bit-identical at any domain count. The timing-oriented
    harnesses ([Scaling], [Exp_heuristics], [Exp_update]) stay
    sequential because they measure CPU time.

    This module lives in [replicaml.core] (rather than the experiments
    library) so the solvers themselves can use it. *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count], capped at 8. *)

val map : ?domains:int -> ?weights:int list -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map. [domains] defaults to
    {!default_domains}; values [<= 1] (or lists of length [<= 1]) run
    sequentially in the calling domain. Work is distributed by atomic
    work-stealing over the input positions. An exception raised by [f]
    propagates to the caller.

    [weights] is a size hint, one entry per input item: workers claim
    positions heaviest-first (ties broken by position), so a mix of
    large and small items — e.g. heterogeneous shard sizes in a forest
    solve — cannot strand domains idle behind one late big item that
    was scheduled last. Results are collected positionally, so the
    output is bit-identical with or without the hint, at any domain
    count.
    @raise Invalid_argument if [weights] disagrees with the input
    length. *)

val map2 : ?domains:int -> ('a -> 'b -> 'c) -> 'a list -> 'b list -> 'c list
(** Pairwise variant.
    @raise Invalid_argument on length mismatch. *)
