(** Log2-binned, domain-safe histograms with quantile summaries.

    Observations are non-negative integers (nanoseconds, merge-product
    counts, percentages — the caller picks the unit and encodes it in
    the metric name, e.g. [engine.epoch_solve_ns]). Bin [0] holds
    values [<= 0]; bin [i >= 1] holds [2^(i-1) .. 2^i - 1], so 63 bins
    cover the whole non-negative [int] range with a worst-case 2x
    relative error on quantiles — the right trade for latencies and
    size distributions spanning many decades.

    {b Domain safety.} Every bin and the running sum are [Atomic.t];
    {!observe} is two atomic adds, no lock, no allocation, always on
    (like {!Replica_core.Stats_counters} — gating applies to tracing,
    not metrics). Totals are deterministic for a fixed workload at any
    domain count because addition commutes.

    {b Quantiles.} [quantile h q] returns the {e geometric midpoint}
    ([round (sqrt (lo * hi))]) of the bin containing the
    rank-[ceil(q * count)] observation — within 2x of the true value
    in either direction (the upper bound, reported historically, was a
    bucket boundary that overstated tail quantiles by up to 2x), and
    monotone in [q] by construction ([p50 <= p90 <= p99] always
    holds).

    Like counters, histograms are process-global and interned by name;
    harnesses attributing numbers to one run call {!reset_all} first.
    {!make} builds an unregistered instance for per-run ownership (the
    engine keeps one per instance so concurrent engines in experiment
    sweeps don't mix their timelines' percentiles). *)

type t

val create : string -> t
(** Registered and interned by name (the {!Replica_core.Stats_counters}
    convention: dotted [subsystem.metric] names, registration at module
    initialization). *)

val make : string -> t
(** An unregistered instance: same API, not visible to {!snapshots} /
    {!reset_all}. *)

val name : t -> string

val observe : t -> int -> unit
(** Record one observation. Negative values land in bin 0. *)

val count : t -> int

val sum : t -> int
(** The sum of the observations, a negative one counted as [0] like
    the bin it lands in, so the sum never decreases. *)

val quantile : t -> float -> int
(** [quantile h q] for [q] in [[0, 1]]; [0] when the histogram is
    empty. *)

type summary = { s_count : int; s_sum : int; p50 : int; p90 : int; p99 : int }

val summary : t -> summary

val buckets : t -> (int * int) list
(** [(inclusive upper bound, cumulative count)] for every bin up to
    the highest non-empty one — the Prometheus exposition shape
    (cumulative, sorted by bound). Empty list for an empty
    histogram. *)

val snapshots : unit -> (string * t) list
(** Every registered histogram with at least one observation, sorted
    by name. *)

val reset : t -> unit
val reset_all : unit -> unit
