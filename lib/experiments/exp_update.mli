(** Update-heuristic ablation for [MinCost-WithPre].

    Quantifies the §6 proposal of "faster (but sub-optimal) update
    heuristics" against the exact O(N^5) DP: for random trees with
    pre-existing servers, measure each solver's Eq. 2 cost overhead over
    the DP optimum and its wall-clock time. The solver set is every
    closest-policy cost solver in {!Replica_core.Registry} (greedy,
    dp-nopre, dp-withpre, heuristic-cost — size-guarded oracles and
    other access policies excluded), so a new cost algorithm joins the
    ablation by registering. Not a paper figure; an ablation this
    library adds. *)

type config = {
  shape : Workload.shape;
  trees : int;
  nodes : int;
  pre : int;
  seed : int;
  cost : Cost.basic;
}

val default_config : ?shape:Workload.shape -> unit -> config
(** 20 trees of 60 nodes with 20 pre-existing servers;
    create = 0.5, delete = 0.25. *)

type row = {
  algorithm : string;
  solved : int;
  avg_cost_overhead_percent : float;
  worst_cost_overhead_percent : float;
  avg_seconds : float;
}

val run : config -> row list
(** One row per registry cost solver, in registration order. *)

val to_table : ?no_time:bool -> row list -> Table.t
(** [no_time] prints ["-"] in the timing column — nondeterministic
    wall-clock numbers otherwise break output-pinning tests. *)
