(** Machine-readable record of a forest run.

    One {!entry} per lock-step epoch across every shard: aggregate
    demand, how many shards reconfigured, the fleet-wide replica count
    and peak physical-server load, what the coupling repair did
    (overloads found, push-downs, replicas added, overloads surviving),
    and the machine cost (wall-clock for the parallel section,
    per-shard solve-latency quantiles from a log2
    {!Replica_obs.Histogram}, global {!Replica_core.Stats_counters}
    deltas).

    Per-shard counter deltas are deliberately {e not} kept: counters
    are process-global atomics, so per-shard diffs taken by concurrent
    {!Replica_engine.Engine.step} calls overlap under parallel
    execution. The forest snapshots once around the whole epoch —
    atomic adds commute, so the totals are deterministic at any domain
    count.

    Same three surfaces as the single-tree {!Replica_engine.Timeline}:
    deterministic {!print} (pinned by the cram test), {!to_json}
    (envelope kind ["forest_timeline"]), and the test suite's
    assertions. *)

type entry = {
  epoch : int;  (** 1-based *)
  demand : int;  (** total requests across shards this epoch *)
  reconfigured_shards : int;
  servers : int;  (** fleet-wide replica count after repair *)
  step_cost : float;  (** summed per-shard reconfiguration cost *)
  invalid_shards : int;  (** shards whose own epoch was invalid *)
  coupling_overloads : int;
      (** physical servers over capacity before repair (0 when
          coupling is off) *)
  repair_pushdowns : int;
  repair_added : int;  (** replicas the repair pass added *)
  unrepaired : int;  (** physical servers still over capacity after *)
  max_server_load : int;  (** peak aggregate physical load after repair *)
  epoch_seconds : float;  (** wall-clock of solves plus repair *)
  solve_latency : Replica_engine.Timeline.latency option;
      (** per-shard solve quantiles over the run so far *)
  counters : (string * int) list;
      (** global counter deltas for the whole epoch (nonzero, sorted) *)
}

type t = {
  entries : entry list;
  total_cost : float;
  reconfigurations : int;  (** total shard reconfigurations *)
  invalid_epochs : int;  (** epochs with an invalid shard or unrepaired
                             overload *)
  repair_added : int;
  epoch_seconds : float;
  solve_latency : Replica_engine.Timeline.latency option;
}

val of_entries : entry list -> t

val print : ?times:bool -> out_channel -> t -> unit
(** One line per epoch plus a summary; [times = false] (default) omits
    every wall-clock figure so output is deterministic for a seed. *)

val to_json :
  ?config:(string * Replica_obs.Json.t) list ->
  ?timeseries:Replica_obs.Timeseries.t ->
  t ->
  Replica_obs.Json.t
(** A {!Replica_engine.Timeline.run_envelope} of kind ["forest_timeline"].
    [timeseries] adds the per-epoch metric points recorded by the
    driver. *)
