(** Human-readable reports for solved instances.

    Renders a placement the way an operator would want to read it: one
    line per server (location, load, operating mode, provenance), then
    the Eq. 2 / Eq. 3 / Eq. 4 totals, then any constraint violations.
    Used by the CLI's [solve] subcommand and handy in the toplevel. *)

val cost_report : Tree.t -> w:int -> Cost.basic -> Solution.t -> string
(** Report for the cost-only problems: loads against the single capacity
    [w], reuse/creation/deletion accounting, Eq. 2 total. *)

val power_report :
  Tree.t -> Modes.t -> Power.t -> Cost.modal -> Solution.t -> string
(** Report for the power problems: per-server operating mode and watts,
    mode-change provenance for reused servers, Eq. 4 cost and Eq. 3
    power totals. The solution must fit within the maximal capacity. *)

val stats_report : ?timers:bool -> unit -> string
(** The solver counters ({!Stats_counters}) as a report section — what
    the CLI's [--stats] flag prints after a solve — followed by a
    [count/p50/p90/p99] summary line per non-empty unlabeled
    {!Replica_obs.Metrics} histogram (e.g. merge products per node). Counters
    and size-distribution histograms are deterministic for a fixed
    workload, safe in cram tests; pass [~timers:true] to additionally
    include wall-clock phase timings and latency ([_ns]-suffixed)
    histograms. *)
