(** Flat arena for catenable placement lists — how every dynamic
    program of this library ({!Dp_power}, {!Dp_withpre}, {!Dp_nopre},
    {!Multiple}) carries the placement realizing each
    table cell. This is the paper's §3.3 "copy outside the loop"
    device: extending a placement is an O(1) push, and the full list
    is materialized once, at the root.

    A placement is an [int] handle into the arena; [empty] ([= 0]) is
    the shared empty list. {!snoc} and {!append} are O(1) pushes into
    preallocated parallel int arrays, so a DP merge inner loop working
    over a pre-grown arena allocates zero GC words; structure is shared
    (a handle may appear under any number of later cells).

    Arenas are single-writer. The parallel sibling fan-out gives each
    domain a private arena and copies results back with {!graft};
    long-lived arenas (incremental memos) reclaim dead cells with the
    {!compact_begin}/{!compact_root}/{!compact_commit} protocol. *)

type t

val create : ?capacity:int -> unit -> t
(** Fresh arena (default initial capacity 1024 cells). *)

val empty : int
(** The empty placement ([0]), valid in every arena. *)

val length : t -> int
(** Number of cells in use (including the reserved empty cell). *)

val clear : t -> unit
(** Forget every cell (previously returned handles become invalid);
    keeps the backing storage, so refilling allocates nothing. *)

val leaf : t -> node:int -> flow:int -> int
(** Single-element placement [(node, flow)]. *)

val snoc : t -> int -> node:int -> flow:int -> int
(** [snoc t l ~node ~flow] appends one element to [l]. O(1). *)

val append : t -> int -> int -> int
(** Concatenate two placements. O(1); shares both arguments. *)

val iter : t -> (int -> int -> unit) -> int -> unit
(** [iter t f l] applies [f node flow] to each element of [l] in
    left-to-right order. Allocation-free (beyond a transient stack). *)

val nodes : t -> int -> int list
(** Element nodes of a placement, in order. *)

val to_list : t -> int -> (int * int) list
(** All [(node, flow)] elements of a placement, in order. *)

val count : t -> int -> int
(** Number of elements in a placement. O(length). *)

val graft : src:t -> dst:t -> map:int array -> int -> int
(** [graft ~src ~dst ~map l] copies the cells of [l] from [src] into
    [dst] and returns the new handle. [map] must have length
    [length src] and start zeroed; it accumulates the old->new index
    mapping so that repeated grafts through the same map preserve
    sharing across placements. *)

(** {1 Compaction} *)

type compaction

val compact_begin : t -> compaction
(** Start compacting: a fresh target arena plus a sharing map. *)

val compact_root : t -> compaction -> int -> int
(** Copy one live placement into the target, returning its new handle.
    Call once per stored handle and store the result. *)

val compact_commit : t -> compaction -> unit
(** Swap the compacted storage into [t]. Handles not passed through
    {!compact_root} are dead after this. *)
