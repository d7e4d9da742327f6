(** The metric registry: counters, gauges, timers and histograms with
    [(key, value)] label sets, one process-global namespace.

    Every instrument in the tree lives here: the solvers' counters,
    timers and per-node histograms ([Replica_core.Dp_power],
    [Dp_withpre], [Brute]), the engine's and the forest's labeled
    series. The Prometheus exposition ({!Prometheus.expose}), the
    per-epoch time series ({!Timeseries}), [--stats]
    ([Replica_core.Stats_counters]) and the benches all read it. Four
    instrument kinds:

    - {e counters} — monotone int cells ([incr]/[add]/[record_max]);
    - {e gauges} — last-write-wins floats ([set]);
    - {e timers} — accumulated wall-clock nanoseconds on
      {!Clock}'s monotonic clock ([time]), sampled as a [NAME_seconds]
      gauge;
    - {e histograms} — log2-binned {!Histogram} instances ([observe]).

    Instruments are interned by [(name, canonical label set)]: two
    [counter "x" ~labels:[("a","1")]] calls return the same cell, so
    registration can happen wherever is convenient (engine creation,
    module initializers) without coordination. Label order is
    irrelevant; duplicate keys collapse. Re-registering a name under a
    different kind raises [Invalid_argument] (a timer claims the name
    it emits, [NAME_seconds]).

    Every registered counter and timer is sampled, zero or not: which
    zero-valued solver series appear depends on which solver modules
    the binary links. [--stats] hides zeros; the exposition and the
    time series do not.

    {b Domain safety.} The registry mutex guards registration and
    {!samples} only; every update path ([incr], [add], [record_max],
    [set], [observe], a timer's accumulation) is atomic on the
    instrument's cell — no lock, no allocation — so instruments are
    safe to update from [Par]-fanned domains and totals are
    deterministic for a fixed workload at any domain count.

    {b Collectors.} A source with no instruments of its own bridges in
    by registering a collector — a closure returning a sample list
    pulled on every {!samples} call. {!Gc_stats} is the one such
    source; the span drop counter ([obs.spans_dropped]) is built in. *)

type labels = (string * string) list

type t
(** An instrument handle: one cell (or histogram) for one
    [(name, label set)] pair. *)

val counter : ?labels:labels -> string -> t
val gauge : ?labels:labels -> string -> t
val histogram : ?labels:labels -> string -> t

val timer : ?labels:labels -> string -> t
(** Sampled as the gauge [NAME_seconds]. *)

val incr : t -> unit
val add : t -> int -> unit
(** Counters only; [Invalid_argument] otherwise. *)

val record_max : t -> int -> unit
(** [record_max c v] raises the counter [c] to [v] if [v] is larger —
    a high-water mark (e.g. peak table size). Never lowers it. *)

val set : t -> float -> unit
(** Gauges only. *)

val observe : t -> int -> unit
(** Histograms only. *)

val time : t -> (unit -> 'a) -> 'a
(** [time t f] runs [f ()] and adds its wall-clock duration to the
    timer [t]. Re-raises whatever [f] raises, still accounting the
    elapsed time. Timers only. *)

val value : t -> float
(** Current value of a counter or gauge, or a timer's accumulated
    seconds. *)

(** {2 Unlabeled views} *)

val counters : unit -> (string * int) list
(** Every unlabeled counter, sorted by name — including never-touched
    ones. No lock, no sort: the list is kept in order as counters
    register. *)

val timers : unit -> (string * float) list
(** Every unlabeled timer's accumulated seconds, under its registered
    name (no [_seconds] suffix), sorted by name. *)

(** {2 Sampling} *)

type hist_snapshot = {
  hs_buckets : (int * int) list;
      (** cumulative [(upper bound, count)], the exposition shape *)
  hs_count : int;
  hs_sum : int;
  hs_p50 : int;
  hs_p90 : int;
  hs_p99 : int;
}

type value =
  | Sample_counter of float
  | Sample_gauge of float
  | Sample_histogram of hist_snapshot

type sample = { s_name : string; s_labels : labels; s_value : value }

val samples : unit -> sample list
(** One consistent-enough snapshot of every instrument and collector,
    sorted by [(emitted name, labels)] so a family's samples are
    consecutive. Histograms with zero observations are suppressed. *)

val register_collector : name:string -> (unit -> sample list) -> unit
(** Bridge an external source in. Re-registering a name replaces the
    previous collector (idempotent module initialization). *)

val reset : unit -> unit
(** Zero every registered instrument — counters, gauges, timers and
    histograms, labeled or not (registration survives). Collector-backed
    sources are not reset. *)

val labels_to_string : labels -> string
(** [{k="v",...}], empty string for no labels — the exposition and
    time-series key syntax. *)

val sample_key : sample -> string
(** [name{k="v",...}] — the flattened identity used by
    {!Timeseries}. *)
