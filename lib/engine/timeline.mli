(** Machine-readable record of an online reconfiguration run.

    One {!entry} per served epoch: what the demand did (total, how many
    nodes' client sets moved, how much of the tree an incremental
    re-solver must consider dirty), what the engine decided
    (reconfigured or kept the placement, and at what Eq. 2/Eq. 4
    reconfiguration cost), how healthy the result is (validity,
    unserved requests, overloaded servers, placement staleness,
    per-epoch power), and what the solve cost the machine (wall-clock
    seconds plus the {!Replica_core.Stats_counters} deltas attributable
    to this epoch's solve).

    The same timeline backs three surfaces: the human-oriented
    {!print} used by [replica_cli engine], the
    {!to_json} artifact (standard {!Replica_obs.Json.envelope}, so
    [BENCH_engine.json] shares the envelope of every other bench
    artifact), and the test suite's differential assertions. *)

type latency = { p50 : float; p90 : float; p99 : float }
(** Solve-latency quantiles in seconds, estimated from the engine's
    log2 histogram (geometric bin midpoints, within 2x of the true
    value either way; always [p50 <= p90 <= p99]). *)

val latency_of_histogram : Replica_obs.Histogram.t -> latency option
(** The quantiles of a histogram of nanosecond solve times; [None]
    while it is empty. Shared by the engine and the forest engine. *)

val last_latency : ('a -> latency option) -> 'a list -> latency option
(** The last quantiles a run's entries carry: their histogram has seen
    every solve of the run. *)

val latency_to_json : latency option -> Replica_obs.Json.t
(** [{"p50_s", "p90_s", "p99_s"}], or [null]. *)

type entry = {
  epoch : int;  (** 1-based *)
  demand : int;  (** total requests this epoch *)
  changed : int;
      (** nodes whose client multiset differs from the previous epoch
          (first epoch: every node) *)
  dirty : int;
      (** changed nodes plus every ancestor up to the root — the tables
          an incremental re-solve may have to rebuild *)
  reconfigured : bool;
  staleness : int;
      (** epochs since the placement last changed; 0 when (re)placed
          this epoch *)
  servers : Solution.t;  (** placement in force after this epoch *)
  step_cost : float;  (** reconfiguration cost paid this epoch *)
  valid : bool;
  unserved : int;
      (** shortfall when invalid: requests escaping past the root plus
          per-server load beyond capacity *)
  overloaded : int;  (** number of servers beyond capacity *)
  power : float option;
      (** Eq. 3 power of the placement under this epoch's load, when a
          power model is configured and the placement is valid *)
  solve_seconds : float;  (** 0 when no solve ran *)
  solve_latency : latency option;
      (** running quantiles over every solve up to and including this
          epoch; [None] until the first solve *)
  counters : (string * int) list;
      (** {!Stats_counters} deltas during this epoch's solve (nonzero
          entries only, sorted by name, computed with
          {!Stats_counters.diff}) *)
}

type t = {
  entries : entry list;
  total_cost : float;
  reconfigurations : int;
  invalid_epochs : int;
  solve_seconds : float;  (** total across epochs *)
  solve_latency : latency option;  (** quantiles over the whole run *)
}

val of_entries : entry list -> t
(** Aggregate the summary fields. *)

val print : ?times:bool -> out_channel -> t -> unit
(** One line per epoch plus a summary line. With [times = false] (the
    default) the output contains no wall-clock figures and is fully
    deterministic for a fixed run — what the cram tests and examples
    pin. *)

val run_envelope :
  kind:string ->
  ?config:(string * Replica_obs.Json.t) list ->
  ?timeseries:Replica_obs.Timeseries.t ->
  summary:(string * Replica_obs.Json.t) list ->
  Replica_obs.Json.t list ->
  Replica_obs.Json.t
(** [run_envelope ~kind ~summary epochs] is the {!Replica_obs.Json.envelope}
    every epoch timeline exports: a ["summary"] object (the epoch count,
    then [summary]), the per-epoch objects under ["epochs"], and with
    [timeseries] (a recorder the driver sampled once per epoch) a
    ["timeseries"] field of per-epoch metric points. [config] records
    the run configuration. Shared by the engine and the forest
    timelines. *)

val to_json :
  ?config:(string * Replica_obs.Json.t) list ->
  ?timeseries:Replica_obs.Timeseries.t ->
  t ->
  Replica_obs.Json.t
(** The timeline as a {!run_envelope} of kind ["engine_timeline"]. *)
