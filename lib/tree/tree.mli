(** Distribution-tree network model.

    Following the paper's framework (§2.1), a distribution tree consists of
    internal nodes [N] (candidate replica locations) and client leaves [C].
    Each client issues a fixed number of requests per time unit. A client
    is always a leaf; internal nodes may carry any number of client leaves.
    We represent the tree over its internal nodes only and attach, to each
    internal node, the multiset of request counts of its client children —
    this loses no information because a client interacts with the system
    solely through its request count and its attachment point.

    Some internal nodes may host a {e pre-existing} server (the set [E] of
    the paper), each with the mode it is initially operated at (modes are
    1-based indices into a mode ladder, see {!Replica_core.Modes}; use mode
    [1] when modes are irrelevant).

    Nodes are dense integer identifiers [0 .. size-1]; the root is node
    [0]. Values of type {!t} are immutable once built. *)

type node = int
(** Internal-node identifier, [0 <= node < size]. *)

type t
(** An immutable distribution tree. *)

(** {1 Construction} *)

val unbounded : int
(** Sentinel ([max_int]) meaning "no constraint" for per-client QoS
    bounds and per-link bandwidth caps. Plain integer comparisons work
    unchanged against it, and fully unconstrained trees serialize and
    print exactly as they did before constraints existed. *)

type spec = {
  spec_clients : int list;  (** request counts of client leaves here *)
  spec_qos : int list;
      (** per-client QoS distance bounds, aligned with [spec_clients] *)
  spec_bw : int;  (** bandwidth cap of the link to the parent *)
  spec_pre : int option;  (** [Some m]: pre-existing server at initial mode [m] *)
  spec_children : spec list;  (** internal children *)
}
(** Recursive building block for literal trees (tests, examples). *)

val node :
  ?clients:int list -> ?qos:int list -> ?bw:int -> ?pre:int -> spec list -> spec
(** [node ~clients ~qos ~bw ~pre children] is a convenience {!spec}
    constructor; [pre] is the initial mode of a pre-existing server,
    [qos] gives each client's maximum hop distance to its server
    (defaults to {!unbounded} for every client) and [bw] caps the link
    to the parent (default {!unbounded}). *)

val build : spec -> t
(** Materialize a spec. Node identifiers are assigned in preorder, so the
    spec root becomes node [0].
    @raise Invalid_argument if a client request count or constraint is
    negative, a pre-existing mode is not positive, or a spec's QoS list
    does not align with its client list. *)

val of_parents :
  parents:int array -> clients:int list array -> pre:int option array -> t
(** Low-level constructor. [parents.(0)] must be [-1] (root); every other
    [parents.(i)] must be a valid node id that, followed transitively,
    reaches the root (i.e. the arrays describe a single tree).
    @raise Invalid_argument on malformed input. *)

(** {1 Accessors} *)

val size : t -> int
(** Number of internal nodes, [N] in the paper. *)

val root : t -> node

val parent : t -> node -> node option
(** [None] for the root. *)

val children : t -> node -> node list
(** Internal children of a node. *)

val children_array : t -> node -> node array
(** Internal children as the underlying array — zero-allocation
    accessor for hot solver loops. The caller must not mutate it: trees
    derived from one another (e.g. by {!with_pre_existing}) share their
    unchanged arrays, so the array returned here may belong to several
    trees at once. *)

val children_arrays : t -> node array array
(** Every node's {!children_array} at once, for loops that visit the
    whole tree many times; the same no-mutation rule applies. *)

val clients : t -> node -> int list
(** Request counts of the client leaves attached to a node. *)

val client_load : t -> node -> int
(** Sum of {!clients} — [client(j)] in Algorithm 2. *)

val initial_mode : t -> node -> int option
(** [Some m] iff the node hosts a pre-existing server initially at mode
    [m]. *)

val is_pre_existing : t -> node -> bool

(** {1 Constraints}

    QoS bounds and link bandwidths follow Rehn-Sonigo (arXiv 0706.3350):
    a client with QoS bound [q] must find its (closest-policy) server at
    most [q] hops above its attachment node — [q = 0] demands a server at
    the attachment node itself — and the flow crossing the link from [j]
    up to its parent may not exceed [bandwidth t j]. *)

val client_qos : t -> node -> int list
(** Per-client QoS distance bounds, aligned with {!clients}.
    {!unbounded} entries are unconstrained. *)

val qos_radius : t -> node -> int
(** The binding QoS bound at a node: minimum bound over its clients with
    positive request counts ({!unbounded} if there are none). Under the
    closest policy all clients of a node share one server, so this is
    the only quantity solvers need; zero-request clients generate no
    flow and never constrain. *)

val bandwidth : t -> node -> int
(** Capacity of the link from [node] to its parent; {!unbounded} if
    uncapped. The root has no upward link and always reports
    {!unbounded}. *)

val has_qos : t -> bool
(** True iff some positive-request client carries a finite QoS bound. *)

val has_bandwidth : t -> bool
(** True iff some link carries a finite bandwidth cap. *)

val is_constrained : t -> bool
(** [has_qos t || has_bandwidth t]. *)

val pre_existing : t -> node list
(** The set [E], in increasing node order. *)

val num_pre_existing : t -> int
(** [E = |E|]. *)

val num_clients : t -> int
(** Total number of client leaves. *)

val total_requests : t -> int
(** Sum of all client request counts. *)

(** {1 Traversal} *)

val postorder : t -> node array
(** All nodes, children before parents. Computed once at build time. *)

val preorder : t -> node array
(** All nodes, parents before children. *)

val fold_postorder : t -> init:'a -> f:('a -> node -> 'a) -> 'a

val subtree_size : t -> node -> int
(** Number of internal nodes strictly below [node] (the paper's
    [subtree_j] excludes [j] itself). *)

val subtree_pre_count : t -> node -> int
(** Pre-existing servers strictly below [node]. *)

val subtree_demand : t -> node -> int
(** Total client requests attached at [node] or below — the flow that
    would cross the link [node -> parent] if no server were placed in
    the subtree. O(subtree size). *)

val depth : t -> node -> int
(** Root has depth 0. *)

val height : t -> int
(** Maximum depth over internal nodes. *)

val subtree_fingerprints : t -> int64 array
(** Per-node 64-bit fingerprints of the subtree rooted at each node:
    the fingerprint covers the node's client multiset (in order), each
    client's QoS bound, the node's link bandwidth, its pre-existing
    marker (with initial mode), and its children's fingerprints (in
    child order) — everything a bottom-up solver's
    per-node table can depend on besides the global parameters. Two
    epoch views of the same network ({!with_clients} /
    {!with_pre_existing} derivatives) agree on a node's fingerprint iff
    the subtrees agree on that data, up to a ~2^-64 collision
    probability; the incremental dynamic programs key their memo tables
    on these. One postorder pass, O(size + clients). *)

val combine_fingerprints : int64 -> int64 -> int64
(** Order-sensitive 64-bit mixing step used by {!subtree_fingerprints},
    exposed so solvers can extend fingerprints into cache-key chains
    (e.g. hashing a prefix of merged child tables). *)

val ancestors : t -> node -> node list
(** Path from [node] (excluded) up to the root (included). *)

val is_ancestor : t -> anc:node -> desc:node -> bool
(** True iff [anc] lies strictly above [desc]. *)

(** {1 Derivation} *)

val with_pre_existing : t -> (node * int) list -> t
(** [with_pre_existing t l] is [t] with its pre-existing set replaced by
    the nodes in [l] (node, initial mode) — all previous pre-existing
    markers are dropped. Used by dynamic-update experiments where the
    servers of step [k] become the pre-existing set of step [k+1].
    Structure, clients, QoS bounds and bandwidths are shared with [t],
    not copied (trees are never mutated); only the markers and the
    per-subtree marker counts are rebuilt, in O(size).
    @raise Invalid_argument on a node out of range or a mode [<= 0]. *)

val with_clients : t -> (node -> int list) -> t
(** [with_clients t f] replaces each node's client multiset by [f node];
    structure, pre-existing markers and link bandwidths are kept. QoS
    bounds are kept verbatim when [f node] has the same arity as the old
    client list; otherwise every new client at the node inherits the
    node's tightest old bound, so epoch-derived views of a constrained
    network stay constrained. *)

val with_qos : t -> (node -> int -> int) -> t
(** [with_qos t f] replaces the QoS bound of the [i]-th client at node
    [j] by [f j i]; everything else is kept. Use {!unbounded} to lift a
    bound.
    @raise Invalid_argument on a negative bound. *)

val with_bandwidth : t -> (node -> int) -> t
(** [with_bandwidth t f] replaces the bandwidth of each link [j ->
    parent] by [f j] (the root's slot is forced to {!unbounded});
    everything else is kept.
    @raise Invalid_argument on a negative cap. *)

(** {1 Serialization and printing} *)

val to_string : t -> string
(** Compact, parseable representation. QoS bounds ([r@q] client tokens)
    and bandwidth caps (a trailing [b<cap>] token) appear only when
    finite, so unconstrained trees round-trip byte-identically to the
    historical format. *)

val of_string : string -> t
(** Inverse of {!to_string}.
    @raise Invalid_argument on a malformed string. *)

val pp : Format.formatter -> t -> unit
(** Human-oriented ASCII rendering, one node per line, indented. *)

val equal : t -> t -> bool
(** Structural equality. *)
