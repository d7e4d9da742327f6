(** Aggregation of traces into the paper's steady-state epochs.

    The solvers consume request {e rates} (requests per time unit). This
    module slices a trace into fixed-width windows and produces, for
    each, the tree annotated with every client's observed rate in that
    window — the inputs a periodic reconfiguration pipeline
    ({!Replica_core.Update_policy}) expects. *)

val rates : Trace.t -> Tree.t -> window:float -> index:int -> Tree.t
(** [rates trace tree ~window ~index] is [tree] with each client's
    request count replaced by its event count in
    [\[index·window, (index+1)·window)] divided by [window], rounded to
    the nearest integer (clients observed idle disappear for that
    epoch).
    @raise Invalid_argument if [window <= 0] or [index < 0]. *)

val epochs : Trace.t -> Tree.t -> window:float -> Tree.t list
(** All epoch trees covering the trace's duration, in order. The last
    partial window is included. An empty trace yields a single all-idle
    epoch. Element [k] is {!rates} at index [k], computed for every
    window in one pass over the trace. *)

val epoch_count : Trace.t -> window:float -> int

val epochs_multi :
  (Trace.t * Tree.t) list -> window:float -> Tree.t list list
(** Aligned multi-stream epoch grids: one shared window count covering
    the longest stream, every stream aggregated on that grid. Element
    [k] of the result holds epoch [k]'s demand view of every stream, in
    stream order — so a forest of shards can be stepped epoch-by-epoch
    with all shards observing the same wall-clock interval (streams
    that end early go idle in later windows rather than falling off the
    grid). The per-stream views are exactly {!rates} at the shared
    index; aggregation loses nothing ({!conservation_check} holds per
    stream).
    @raise Invalid_argument if [window <= 0]. *)

val changed_nodes : Tree.t -> Tree.t -> Tree.node list
(** [changed_nodes prev next] lists, in increasing node order, the
    nodes whose client multiset differs between two epoch views of the
    same network — the leaves of the root-to-leaf paths an incremental
    re-solver must treat as dirty. Structure is assumed shared (both
    trees derived from one network by {!Tree.with_clients}).
    @raise Invalid_argument if the trees disagree on size. *)

val conservation_check : Trace.t -> Tree.t -> window:float -> bool
(** Debug helper: total events equal the sum over epochs of each epoch's
    raw (unrounded) counts — aggregation loses nothing. Used by tests. *)
