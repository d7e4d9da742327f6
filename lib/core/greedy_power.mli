(** The paper's power baseline "GR" (§5.2).

    The greedy of [19] knows nothing about modes or power. The paper
    adapts it as follows: run the greedy once for every integer capacity
    [W'] between [W_1] and [W_M] (placing more, lightly-loaded servers as
    [W'] shrinks), operate every server at the mode its load forces (a
    server with at most [W_1] requests runs in mode 1), evaluate the
    modal cost (Eq. 4) and power (Eq. 3) of each of the resulting
    solutions, and keep — for a given cost bound — the cheapest-power
    one within the bound.

    The sweep runs {!Greedy}'s allocation-free kernel over one scratch
    per tree and scores each capacity in place: one ascending-node pass
    over the kernel's server loads sums the per-mode powers (computed
    once per call) in the order {!Solution.power} does, and counts the
    Eq. 4 tally into reused arrays — so power and cost are bit-identical
    to evaluating a full {!Solution.t}. {!solve} and {!frontier} build a
    {!Dp_power.result} only for their winners, replaying the kernel at
    the winning capacity; {!candidates} still builds one per feasible
    capacity. With tracing on, each capacity emits one [greedy.solve]
    span (replays emit none). *)

type candidate = {
  capacity : int;  (** the greedy's capacity parameter [W'] *)
  result : Dp_power.result;
}

val candidates :
  Tree.t -> modes:Modes.t -> power:Power.t -> cost:Cost.modal -> candidate list
(** One entry per feasible capacity sweep value, increasing [W'] — a
    full result each (the multi-start seeds of
    {!Heuristics.solve_restarts}).
    @raise Invalid_argument (as {!solve} and {!frontier}) if the cost
    model's mode count differs from the ladder's. *)

val solve :
  Tree.t ->
  modes:Modes.t ->
  power:Power.t ->
  cost:Cost.modal ->
  ?bound:float ->
  unit ->
  Dp_power.result option
(** Minimal-power candidate of cost at most [bound] (default infinity);
    ties on (power, cost) go to the smallest capacity. Keeps only the
    running best while sweeping and builds one result. *)

val frontier :
  Tree.t ->
  modes:Modes.t ->
  power:Power.t ->
  cost:Cost.modal ->
  Dp_power.result list
(** Pareto filtering of {!candidates}, sorted by increasing cost (ties
    by power, then capacity). Sorts light (cost, power, capacity) rows
    and builds a result only for the Pareto points. *)
