(** Schema-versioned, noise-aware comparison of [BENCH_*.json]
    artifacts — the regression gate behind [replica_cli bench-diff].

    Every benchmark artifact in this repository is a
    {!Json.envelope}: a [schema_version], a [bench] kind
    (["dp_power"], ["engine"], ["obs"]) and kind-specific fields. For
    each kind this module knows a fixed list of {!spec}s: which JSON
    path to read, which direction is better, how severe a regression
    is, and how much noise to tolerate.

    {b Severity.} [Hard] metrics are deterministic for a fixed seed —
    merge products, memo hits, cell counts, optima — so {e any}
    worsening (or for {!Exact} metrics, any change at all) is a
    regression and [bench-diff] exits nonzero. [Soft] metrics are
    wall-clock measurements; their regressions are reported as
    warnings only, because CI machines differ from the machine that
    committed the baseline.

    {b Noise model.} A directional metric regresses only when it moves
    the wrong way by {e both} more than [rel_tol] (relative to the
    baseline) {e and} more than [abs_floor] in absolute value. The
    absolute floor keeps nanosecond jitter on near-zero baselines from
    tripping the relative test; the relative tolerance keeps small
    absolute wobble on large baselines from tripping the absolute one.
    Moves the wrong way inside the tolerance region are reported as
    [Unchanged]; moves the right way beyond it as [Improved].

    {!append} maintains a local JSON-lines history file
    ([BENCH_history.jsonl], gitignored) that the bench harness appends
    every artifact to, so a developer can diff any two past runs, not
    only against the committed baseline. *)

type direction =
  | Lower_better
  | Higher_better
  | Exact  (** any difference is a regression (deterministic metrics) *)

type severity = Hard | Soft

type spec = {
  path : string list;  (** JSON member path inside the envelope *)
  direction : direction;
  severity : severity;
  rel_tol : float;  (** relative tolerance, e.g. [0.25] = 25% *)
  abs_floor : float;  (** minimum absolute move to count at all *)
}

val specs_for : string -> spec list
(** Metric specs for a bench kind; [[]] for unknown kinds. *)

type status = Improved | Unchanged | Regressed

type comparison = {
  metric : string;  (** dotted display name of the path *)
  base : float;
  cur : float;
  delta_pct : float;  (** [100 * (cur - base) / base], [0] if [base = 0] *)
  status : status;
  severity : severity;
}

type report = {
  kind : string;
  comparisons : comparison list;
  missing : string list;
      (** specs absent from both artifacts, and soft specs present in
          only one: listed, not gating *)
  dropped : (string * string) list;
      (** hard specs present in only one artifact, with the side that
          lacks them (["baseline"] or ["current"]); each counts as a
          hard regression *)
  hard_regressions : int;  (** regressed hard comparisons plus [dropped] *)
  soft_regressions : int;
}

val diff :
  ?rel_tol:float ->
  baseline:Json.t ->
  current:Json.t ->
  unit ->
  (report, string) result
(** Compare two parsed artifacts of the same kind and schema version.
    [rel_tol] overrides every directional spec's relative tolerance
    (the CLI's [--threshold]); [Exact] metrics are unaffected. Errors
    on mismatched [schema_version] or [bench] kinds, and on kinds with
    no specs. *)

val render : report -> string
(** Aligned human-readable table plus one [warning:] line per soft
    regression and a final verdict line. *)

val to_json : report -> Json.t

val append : path:string -> Json.t -> unit
(** Append one artifact as a single compact JSON line to [path],
    creating the file if needed. *)

(** {2 Trend over the local history}

    [replica_cli bench-history trend] reads the JSON-lines history and
    fits a least-squares slope per known metric over the last [K]
    matching runs, classifying each as [improving] / [worsening] /
    [flat] against the spec's direction ([Exact] metrics report
    [stable] or [CHANGING]). A total move under 2% of the metric's mean
    counts as flat — run-to-run noise, not a trend. *)

type trend_metric = {
  tm_metric : string;
  tm_values : float list;  (** oldest first *)
  tm_slope : float;  (** least-squares slope per run *)
  tm_direction : direction;
  tm_verdict : string;
      (** ["improving"], ["worsening"], ["flat"], ["stable"] or
          ["CHANGING"] *)
}

type trend_report = {
  t_kind : string;
  t_runs : int;  (** runs actually in the window *)
  t_metrics : trend_metric list;
}

val trend :
  kind:string -> ?last:int -> Json.t list -> (trend_report, string) result
(** [trend ~kind ~last history] over the parsed history lines (oldest
    first, as read from the file). Skips metrics absent from part of
    the window; errors when fewer than 2 matching runs exist or the
    kind has no specs. [last] defaults to 10. *)

val render_trend : trend_report -> string
(** Aligned table: first, last, slope per run, verdict. *)
