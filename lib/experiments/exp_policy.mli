(** Update-policy ablation (the §6 trade-off, quantified).

    The paper's conclusion frames dynamic replica management as choosing
    an update interval between "lazy" (reconfigure only when the current
    placement breaks) and "systematic" (reconfigure every step), driven
    by the demand's variation rate. This harness runs every
    {!Replica_core.Update_policy.policy} over the same randomly-drifting
    demand sequences and reports the average reconfiguration bill, the
    number of reconfigurations, and the epochs spent with an invalid
    placement — the quantities that §6 argues should guide the interval
    choice. Not a paper figure; an ablation this library adds. *)

type config = {
  shape : Workload.shape;
  trees : int;
  nodes : int;
  epochs : int;
  seed : int;
  cost : Cost.basic;
  policies : Update_policy.policy list;
}

val default_config : ?shape:Workload.shape -> unit -> config
(** 20 trees of 50 nodes over 20 epochs; create = 0.5, delete = 0.25;
    policies: systematic, lazy, periodic(4), drift(0.2). *)

type row = {
  policy : Update_policy.policy;
  avg_total_cost : float;
  avg_reconfigurations : float;
  avg_invalid_epochs : float;
}

val demand_sequence : ?intensity:float -> Rng.t -> config -> Tree.t list
(** The [config.epochs] demand trees the ablation runs: one random tree
    of [config.shape] and [config.nodes] whose clients then drift epoch
    by epoch (±1 request, departures, arrivals, at rates scaled by
    [intensity], default 1), each node's demand kept within
    {!Workload.capacity}. *)

val run : ?domains:int -> config -> row list
(** One row per policy, averaged over the trees; every policy sees the
    same demand sequences. Per-tree simulations fan out over [domains]
    ({!Replica_core.Par.map}); results are identical at any count. *)

val to_table : row list -> Table.t

(** {1 Drift sensitivity (the §6 "rates and amplitudes" remark)} *)

type drift_row = {
  intensity : float;  (** demand volatility multiplier; 1.0 = default *)
  lazy_reconfigurations : float;  (** avg reconfigurations over the run *)
  lazy_cost : float;
  systematic_cost : float;
  lazy_savings_percent : float;
      (** how much of the systematic bill laziness saves at this
          volatility — the §6 interval-choice signal *)
}

val run_drift_sweep : config -> float list -> drift_row list
(** Run lazy vs systematic at each demand-volatility level; every level
    regenerates the same trees (same seed) with scaled client churn. *)

val drift_table : drift_row list -> Table.t
