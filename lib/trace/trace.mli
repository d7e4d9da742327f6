(** Request traces over a distribution tree.

    The paper's model is steady-state: each client issues [r_i] requests
    {e per time unit}, and §1/§6 frame the dynamic problem — request
    volumes evolving over time — as a sequence of such steady states
    punctuated by reconfigurations. This substrate supplies the missing
    front end: a {e trace} is a time-stamped stream of individual
    requests attributed to client positions; {!Epochs} aggregates it
    into per-window request-rate trees that feed {!Replica_core}'s
    solvers and {!Replica_core.Update_policy}.

    A client position is identified by the internal node it attaches to
    and its index among that node's clients. Traces are immutable sorted
    arrays of events. *)

type event = {
  time : float;  (** seconds from the trace origin, non-negative *)
  node : Tree.node;  (** attachment point *)
  client : int;  (** index within the node's client list *)
}

type t
(** An immutable trace, events sorted by time. *)

val of_events : event list -> t
(** Sorts and validates (negative times rejected).
    @raise Invalid_argument on a negative timestamp. *)

val events : t -> event list

val iter : (event -> unit) -> t -> unit
(** Apply a function to every event, in trace order. *)

val length : t -> int

val duration : t -> float
(** Timestamp of the last event; 0 for the empty trace. *)

val merge : t -> t -> t
(** Interleave two traces by (time, node, client), exactly as
    {!of_events} sorts them; one linear pass. *)

val merge_all : t list -> t
(** Deterministic n-way interleave: all events of all streams, sorted
    by (time, node, client) exactly as {!of_events} sorts them, so the
    result is independent of the list order of equal streams and
    [merge_all [a; b] = merge a b]. The merged length is the sum of
    the stream lengths (nothing is dropped or deduplicated). Pairwise
    rounds of {!merge}: O(events · log streams). *)

val filter : (event -> bool) -> t -> t

val count_by_client : t -> ((Tree.node * int) * int) list
(** Total events per client position, sorted. *)
