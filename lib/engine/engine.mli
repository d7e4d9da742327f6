(** Online reconfiguration engine: epoch-driven serving of a demand
    stream against a live replica placement.

    The paper's §6 frames dynamic replica management as a sequence of
    steady-state epochs punctuated by reconfigurations, and
    {!Replica_core.Update_policy} defines the triggers of that
    trade-off. This module is the one loop that runs them, for the
    batch ablations and the online runtime alike: a stateful engine
    that consumes epoch demand trees (or a
    raw {!Replica_trace.Trace} aggregated through
    {!Replica_trace.Epochs}), maintains the live placement and its
    per-server loads, fires the configured {!Update_policy.policy}
    trigger each epoch, and re-solves through the solver registry —
    by default {!Registry.default_for} the objective ([dp-withpre] for
    the Eq. 2 cost objectives, [dp-power] under a cost bound for the
    Eq. 3/Eq. 4 power objective), or any registered algorithm named in
    [config.algo] whose capability matches. The placement chosen at
    epoch [k] becomes the pre-existing set of epoch [k+1] (with its
    operating modes as initial modes in the power objective), exactly
    the paper's update model.

    {2 Incremental re-solving}

    With [solver = Incremental] and a registry entry that
    [supports_incremental], the engine keeps the solver's opaque
    {!Solver.memo} alive across epochs: subtree tables are cached under
    demand fingerprints, so an epoch that shifted demand in one subtree
    re-solves only the root-to-changed-leaf paths — the rest of the
    tree is served from cache. Placements are {e bit-identical} to
    [solver = Full] (the full re-solve is the oracle the differential
    test suite and the [bench engine] harness compare against); only
    the work changes, visible in each timeline entry's counter deltas
    ([dp_withpre.memo_hits], …) and solve times. For entries without
    incremental support, [Incremental] silently degrades to [Full].

    Every epoch appends a {!Timeline.entry} (demand movement, decision,
    health, solver work), giving one machine-readable record of the
    whole run. *)

type objective = Problem.objective =
  | Min_servers  (** reconfigure to the fewest servers *)
  | Min_cost of Cost.basic  (** reconfigure to the Eq. 2 optimum *)
  | Min_power of {
      modes : Modes.t;
      power : Power.t;
      cost : Cost.modal;
      bound : float;
    }
      (** reconfigure to the minimal-power placement of Eq. 4 cost at
          most [bound]; [Modes.max_capacity modes] must equal the
          engine's [w] *)

type solver =
  | Full  (** re-solve from scratch every reconfiguration *)
  | Incremental  (** keep the solver's memo alive across epochs *)

type config = {
  w : int;  (** server capacity (maximal mode) *)
  objective : objective;
  policy : Update_policy.policy;
  solver : solver;
  algo : string option;
      (** registry name of the solver to reconfigure with; [None]
          selects {!Registry.default_for} the objective *)
  report_power : (Modes.t * Power.t) option;
      (** with a cost objective, also report each epoch's Eq. 3 power
          under this model in the timeline (a [Min_power] objective
          always reports its own) *)
}

val config :
  ?policy:Update_policy.policy ->
  ?solver:solver ->
  ?algo:string ->
  ?report_power:Modes.t * Power.t ->
  w:int ->
  objective ->
  config
(** Convenience constructor; [policy] defaults to {!Update_policy.Lazy},
    [solver] to [Incremental], [algo] to the registry default. *)

type t
(** A running engine (mutable: placement, memo, epoch counter). *)

val create : config -> t
(** Fresh engine with an empty placement.
    @raise Invalid_argument if [w <= 0], a [Min_power] ladder's maximal
    capacity differs from [w], the policy has a non-positive period or
    a negative drift ({!Update_policy.validate}), [algo] names no
    registered solver, or the named solver's capability rejects the
    objective (wrong objective family, or a finite bound it cannot
    honour). *)

val step : t -> Tree.t -> Timeline.entry
(** Serve one epoch: diff the demand against the previous epoch, fire
    the update policy, re-solve if triggered (the current placement
    becoming the pre-existing set), and record the outcome. An epoch
    whose demand is unserveable even by a fresh optimal placement keeps
    the current placement and is recorded invalid with its shortfall.
    Epoch validity includes QoS and bandwidth when the demand tree
    carries them.
    @raise Invalid_argument if the demand tree carries QoS/bandwidth
    constraints the engine's solver cannot enforce — constraints can
    appear mid-run (CLI tightening), so this is checked per epoch. *)

val placement : t -> Solution.t
(** Placement currently in force. *)

val override_placement : t -> Tree.t -> Solution.t -> unit
(** [override_placement t tree sol] replaces the placement in force with
    [sol], evaluated against [tree] (this epoch's demand view) to fix
    the operating modes that become the next epoch's initial modes.
    Used by coordinators that post-process an epoch's placement — the
    forest engine's cross-object coupling repair — so the adjusted set
    is what the next epoch treats as pre-existing. *)

val epochs_served : t -> int

val solver_name : t -> string
(** Registry name of the solver this engine reconfigures with. *)

val memo_tables : t -> int
(** Tables currently held by the incremental memo (0 for [Full] or a
    solver without incremental support). *)

val run : config -> Tree.t list -> Timeline.t
(** [run config demands] steps a fresh engine through every epoch. *)

val run_trace : config -> Tree.t -> Replica_trace.Trace.t -> window:float -> Timeline.t
(** Aggregate the trace into window epochs over the tree
    ({!Replica_trace.Epochs.epochs}) and {!run} them. *)
