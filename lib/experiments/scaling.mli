(** Runtime scaling measurements (§5's wall-clock observations).

    The paper reports GR running in under a second per 100-node tree
    while DP takes ~40 s, DP handling 500-node trees in ~30 min, the
    power DP handling 300 nodes (no pre-existing) in ~1 h and 70 nodes
    with 10 pre-existing in ~1 h — all on 2010 hardware. We reproduce
    the {e ratios and growth trends} on scaled sizes; Bechamel-based
    micro-benchmarks live in [bench/main.ml], this module provides the
    coarse-grained wall-clock sweep used by the CLI and the reports. *)

type measurement = {
  algorithm : string;
  nodes : int;
  pre_existing : int;
  seconds : float;  (** wall-clock seconds ({!Stats.time}), single run *)
  allocated_mb : float;  (** megabytes allocated by the solve *)
  peak_major_words : int;
      (** major-heap high-water mark after the solve (cumulative
          across the sweep — sizes run in increasing order, so each
          row bounds its own N) *)
  servers : int;  (** solution size, as a sanity output *)
}

val measure_cost_algorithms :
  ?sizes:int list -> ?seed:int -> shape:Workload.shape -> unit -> measurement list
(** Time every closest-policy registry cost solver (greedy, dp-nopre,
    dp-withpre, heuristic-cost; E = N/4 pre-existing) on one random
    tree per size. Default sizes: [20; 40; 80; 160; 100_000;
    1_000_000]; above 4_000 nodes only the near-linear solvers
    (greedy, greedy-qos) run — the DP tables are quadratic in cells. *)

val measure_power_dp :
  ?sizes:int list -> ?pre:int -> ?seed:int -> shape:Workload.shape -> unit ->
  measurement list
(** Time every registry power solver, exact DP first (modes {5, 10}),
    on one random tree per size. Default sizes: [10; 20; 30]; [pre]
    defaults to 3. *)

val measure_power_dp_large :
  ?sizes:int list -> ?pre:int -> ?seed:int -> shape:Workload.shape -> unit ->
  measurement list
(** Large-N power rows (default sizes [1_000; 10_000]): dp-power and
    gr-power only, on a sparse workload whose mode ladder tracks the
    total load so the table stays a few cells per node. Pins the DP
    machinery's per-node constants — wall clock and, via [alloc_mb],
    the packed core's allocation behaviour — rather than state-space
    growth, which {!measure_power_dp}'s classic sizes cover. *)

val to_table : measurement list -> Table.t
