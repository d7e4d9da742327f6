(** The built-in solver registrations.

    Forcing this module registers every algorithm in the library with
    {!Solver}; look solvers up through the re-exports below (never
    through [Solver.find] directly) and registration can never be
    missed. Registration order — the order of [solve --list-algos], the
    DESIGN.md capability matrix and every registry-driven table — is:

    [greedy], [dp-nopre], [dp-withpre], [heuristic-cost] (cost);
    [greedy-qos] (QoS/bandwidth-constrained);
    [dp-power], [gr-power], [heuristic], [multi-start], [anneal]
    (power); [multiple], [upwards] (access-policy extensions);
    [brute] (exhaustive oracle, guarded to tiny trees). *)

val find : string -> Solver.t option
(** The entry registered under a name. [dp-qos], the former name of the
    constrained exact DP, resolves to [dp-withpre]. *)

val all : unit -> Solver.t list
val names : unit -> string list

val list_algos : unit -> string
(** {!Solver.list_algos} with registration guaranteed forced. *)

val matrix_markdown : unit -> string
(** {!Solver.matrix_markdown} with registration guaranteed forced. *)

val default_for : Problem.objective -> Solver.t
(** The exact reference solver for an objective: [dp-withpre] for the
    cost objectives, [dp-power] for the power objective. *)
