(** Greedy feasibility repair for cross-object capacity coupling.

    Per-shard solves are blind to each other: each places optimally for
    its own tree, and a physical server replicating several objects may
    end up absorbing more aggregate load than its capacity [w]. This
    pass restores coupled feasibility by {e push-down}: pick the most
    overloaded physical server, pick the replica on it whose load is
    most reducible, and add replicas at its tree children carrying
    flow — the child flow is absorbed below, and the chosen replica's
    load drops to its own attached clients.

    Push-down only {e adds} replicas, which makes it sound under the
    closest policy: upward flows only shrink (no link-bandwidth cap can
    newly bind), every client's server only moves closer (no QoS bound
    can newly bind, nobody becomes unserved), and each new child
    replica absorbs at most the flow that previously crossed it, which
    is at most the parent replica's load — itself within [w] for any
    per-shard-valid input. So per-shard validity is preserved exactly,
    and only the coupled constraint improves. This is why coupled
    forest runs are restricted to [handles_coupling] solvers: the
    argument needs closest-policy load semantics.

    The pass is deterministic (largest excess first, smallest shard and
    node on ties) and terminates: every step adds at least one replica
    and the replica count is bounded by the forest's node count. It can
    fail — a server overloaded by clients attached {e directly} to its
    replicas cannot shed load by push-down — in which case the servers
    still over [w] are counted in [unrepaired]. The pass keeps every
    server's load current at each push-down, so its counts and loads
    are read off that state; the forest is evaluated once. *)

type stats = {
  pushdowns : int;  (** push-down steps performed *)
  added : int;  (** replicas added across all shards *)
}

type outcome = {
  placements : Solution.t array;
      (** repaired per-shard placements (supersets of the inputs) *)
  stats : stats;
  overloads : int;  (** physical servers over [w] before repair *)
  unrepaired : int;
      (** servers over [w] after repair (0 on success); a push-down can
          overload a new server, so this may exceed [overloads] *)
  server_loads : int array;
      (** load per server after repair ({!Forest.server_loads}) *)
}

val repair :
  Forest.t -> trees:Tree.t array -> w:int -> Solution.t array -> outcome
(** [repair forest ~trees ~w placements] with [trees.(o)] the demand
    view shard [o]'s placement was solved against. Runs even if some
    shard input is per-shard invalid: its loads still count, as in
    {!Solution.validate_forest}. *)
