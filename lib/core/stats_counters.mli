(** Solver counter views over {!Replica_obs.Metrics}.

    The dynamic programs are the cost center of every experiment, so
    the solvers ({!Dp_power}, {!Dp_withpre}, {!Brute}) register
    unlabeled counters, timers and per-node histograms on the metric
    registry at module initialization and bump them on their hot paths
    (one atomic add per update, no allocation). This module keeps no
    state of its own: it reads the registry's unlabeled counters and
    timers for {!Report}, the CLI's [--stats] flag, the engines'
    per-epoch counter deltas and the benchmark harnesses.

    Totals are deterministic for a fixed workload, at any domain
    count: integer addition commutes and a high-water mark depends only
    on the {e set} of observed values. The registry accumulates across
    solves until {!reset}; harnesses that attribute numbers to a
    single run call {!reset} first — or bracket the run with
    {!snapshot} and attribute {!diff}s, as the engine does per epoch.
    Timers measure elapsed (not CPU) seconds on
    {!Replica_obs.Clock}'s monotonic clock, so they are never negative
    but are {e not} reproducible between runs — deterministic surfaces
    (cram tests) print counters only. *)

val counters : unit -> (string * int) list
(** Every unlabeled counter, sorted by name, zero or not. *)

val timers : unit -> (string * float) list
(** Every unlabeled timer as accumulated seconds, sorted by name. *)

val reset : unit -> unit
(** Zero every instrument of the registry, solver counters included
    ({!Replica_obs.Metrics.reset}). *)

type snapshot = (string * int) list
(** A point-in-time copy of every unlabeled counter, sorted by name. *)

val snapshot : unit -> snapshot

val diff : snapshot -> snapshot -> (string * int) list
(** [diff before after] is the per-counter movement between two
    snapshots: [(name, after - before)] for every counter whose value
    changed (counters absent from [before] — registered in between —
    count from 0). Sorted by name, zero deltas omitted. This is how
    the engine attributes registry movement to a single epoch. *)

val counters_report : unit -> string
(** Aligned [name value] lines for counters only — deterministic for a
    fixed workload, safe to pin in cram tests. Never-touched (zero)
    counters are omitted: their existence depends on which solver
    modules the binary links, not on the workload. *)

val report : unit -> string
(** {!counters_report} plus wall-clock timer lines (nondeterministic),
    zero timers omitted. *)
