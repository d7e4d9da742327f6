(** Prometheus text exposition (version 0.0.4) of the {!Metrics}
    registry.

    Renders counters, accumulated timers and log2 histograms as a
    scrape-able snapshot: dotted registry names ([dp_power.cells])
    become [replicaml_dp_power_cells], counters expose as [counter],
    timers as a [NAME_seconds] [gauge], histograms as cumulative
    [_bucket{le="..."}] / [_sum] / [_count] families.

    {!validate} checks the exposition grammar line by line (comment
    lines, metric-name syntax, optional label set, float value,
    optional timestamp) and backs the [obs-validate] CLI command and
    the CI smoke step. *)

val metric_name : string -> string
(** [metric_name "dp_power.cells"] is ["replicaml_dp_power_cells"]:
    prefixed, and every character outside [[a-zA-Z0-9_:]] mapped to
    [_]. *)

val expose : unit -> string
(** Render the whole {!Metrics} registry — every instrument (the
    solvers' counters, timers and per-node histograms among them),
    the collectors and the span drop counter — as one exposition.
    Label sets ([solver="dp-withpre"], [shard="3"]) render inline;
    histogram families may carry several label sets, each with its own
    bucket/sum/count series. *)

val label_name : string -> string
(** Character sanitation for label keys: outside [[a-zA-Z0-9_]] maps
    to [_]; no namespace prefix. *)

val scalar_line : ?timestamp:int -> string -> (string * string) list -> float -> string
(** One exposition sample line (no newline): mangled metric name,
    rendered label set, value, optional integer timestamp. Used by
    {!Timeseries.to_openmetrics}, where the timestamp column carries
    the epoch index. *)

val validate : string -> (int, string) result
(** [validate contents] checks every line against the exposition
    grammar and that each [# TYPE] is followed by samples of that
    family. Families declared [histogram] additionally get semantic
    checks: only [_bucket]/[_sum]/[_count] samples, a parseable [le]
    label on every bucket, non-decreasing [le] bounds and cumulative
    counts, a final [le="+Inf"] bucket whose value equals [_count],
    and a [_sum] sample — each applied {e per label set} (excluding
    [le]), so multi-series families (one per shard) validate. An
    OpenMetrics [# EOF] terminator line is accepted. Returns the
    number of samples. *)
