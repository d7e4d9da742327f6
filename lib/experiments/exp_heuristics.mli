(** Heuristic-quality ablation for [MinPower].

    §6 proposes polynomial heuristics as the practical alternative to
    the exponential-in-M dynamic program. This harness measures exactly
    what that trade buys: for {e every registered power solver} (the
    exact DP, the GR capacity sweep, greedy hill-climb, multi-start
    climb, simulated annealing — enumerated from
    {!Replica_core.Registry}, so a new power algorithm joins the
    ablation by registering) it reports the average power overhead
    relative to the DP optimum and the average wall-clock time, over a batch
    of random §5.2 instances. Not a paper figure; an ablation this
    library adds. *)

type config = {
  shape : Workload.shape;
  trees : int;
  nodes : int;
  pre : int;
  seed : int;
  bound_fraction : float;
      (** per-tree cost bound, as a position along that tree's DP
          frontier cost range: 0 = only the cheapest placement fits,
          1 = unconstrained. Mid values are where heuristics diverge
          from the optimum; with no bound the all-slow-servers solution
          is optimal and every solver finds it. *)
  rounds : int;
      (** effort knob passed uniformly through {!Replica_core.Solver.request}:
          annealing iteration budget and local-search round cap *)
}

val default_config : ?shape:Workload.shape -> unit -> config
(** 20 trees of 40 nodes with 4 pre-existing servers,
    [bound_fraction = 0.35], [rounds = 500]. *)

type row = {
  algorithm : string;
  solved : int;  (** instances where the solver found a solution *)
  avg_power_overhead_percent : float;
      (** mean of [100·(power/optimum − 1)] over solved instances *)
  worst_power_overhead_percent : float;
  avg_seconds : float;
}

val run : ?domains:int -> config -> row list
(** One row per registered power solver, in registration order —
    dp-power (the reference, 0 overhead) first, then gr-power,
    heuristic, multi-start, anneal. [domains] parallelizes only the
    untimed setup (frontier sweep and reference optima); the measured
    solver runs stay sequential so the reported wall-clock times remain
    meaningful. *)

val to_table : ?no_time:bool -> row list -> Table.t
(** [no_time] prints ["-"] in the timing column, making the output
    deterministic for a fixed seed — what the CLI's [--no-time] flag
    and the cram test use. *)
