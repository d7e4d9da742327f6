(** Dynamic replica-management policies (the §6 discussion, made runnable).

    The paper frames dynamic replica management as a trade-off between
    two extremes: {e lazy} updates (reconfigure only when the current
    placement is no longer valid — minimal update cost, possibly poor
    resource usage) and {e systematic} updates (reconfigure every
    time-step — optimal usage, maximal update cost), and observes that
    "the rates and amplitudes of the variations of the number of
    requests" should drive the update interval. This module defines
    those triggers — plus a fixed-period and a demand-drift trigger.
    {!Replica_engine.Engine} runs them over a demand sequence, re-solving
    with the §3 optimal single-step reconfiguration ({!Dp_withpre}) the
    paper provides as the building block. *)

type policy =
  | Systematic  (** reconfigure every epoch *)
  | Lazy  (** reconfigure only when a server overflows or requests escape *)
  | Periodic of int
      (** reconfigure every [k] epochs, and whenever the placement breaks *)
  | Drift of float
      (** reconfigure when total demand drifted by more than this fraction
          since the last reconfiguration, and whenever the placement
          breaks *)

val validate : policy -> unit
(** Check a policy's parameter once, before any epoch runs.
    @raise Invalid_argument on a non-positive period or negative
    drift. *)

val should_reconfigure :
  policy ->
  epoch:int ->
  servers_valid:bool ->
  demand:int ->
  last_demand:int ->
  bool
(** The trigger decision for one epoch: [epoch] is 1-based,
    [servers_valid] is whether the current placement still serves this
    epoch within capacity, and [last_demand] is the total demand at the
    last reconfiguration. The policy must have passed {!validate}. *)

val policy_to_string : policy -> string
