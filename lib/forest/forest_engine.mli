(** Lock-step online engine for a forest of shards.

    One {!Replica_engine.Engine.t} per shard — each with its own
    placement, update-policy state and incremental solver memo — stepped
    epoch-by-epoch over the aligned demand views of
    {!Forest_trace.epochs}. Per-shard solves within an epoch are
    independent, so they run on separate domains through
    {!Replica_core.Par.map}, size-hinted by tree size (largest shards
    scheduled first); at [domains = 1], or not, the per-shard placements
    are bit-identical, and with [coupling = false] they are bit-identical
    to stepping each engine alone — the forest adds no cross-talk unless
    asked to.

    With [coupling = true] each epoch ends with the {!Repair} push-down
    pass over the shared physical servers; the repaired placements are
    written back into the shard engines
    ({!Replica_engine.Engine.override_placement}) so the next epoch's
    solves treat them as pre-existing, and the epoch's overload counts
    and peak load are the ones the pass reports. Coupled runs require
    a [handles_coupling] solver (see [solve --list-algos]). *)

type config = {
  engine : Replica_engine.Engine.config;  (** per-shard engine config *)
  coupling : bool;
      (** enforce (and repair) cross-object capacity coupling *)
  domains : int;  (** parallel fan-out of the per-shard solves *)
}

type t
(** A running forest engine (mutable shard engines inside). *)

val create : Forest.t -> config -> t
(** @raise Invalid_argument if the per-shard config is rejected by
    {!Replica_engine.Engine.create}, or [coupling] is set and the
    configured solver lacks the [handles_coupling] capability. *)

val step : t -> Tree.t list -> Forest_timeline.entry
(** Serve one epoch: step every shard engine on its demand view (in
    parallel), then, when coupling, repair the shared servers and write
    repaired placements back. The entry's counters are one global
    snapshot/diff around the whole epoch.
    @raise Invalid_argument if the view count differs from the shard
    count. *)

val placements : t -> Solution.t array
(** Per-shard placements currently in force (after any repair). *)

val epochs_served : t -> int

val solver_name : t -> string

val run : Forest.t -> config -> Tree.t list list -> Forest_timeline.t
(** Step a fresh forest engine through every epoch of an aligned grid
    (element [k] = epoch [k]'s per-shard views). *)
