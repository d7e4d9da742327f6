(** Open-addressing [int -> int] hash table with insertion-order
    iteration — the packed DP cores' table primitive.

    Keys and values live unboxed in flat arrays (no GC allocation per
    insert once capacity is reached), {!iter} walks entries in
    insertion order (so first-wins tie-breaking is a function of merge
    order alone, independent of hashing or key layout), and
    {!reserve}/{!set_val} split the insert so callers build a value
    (e.g. an arena push) only when the key is actually new. *)

type t

val create : ?capacity:int -> unit -> t

val length : t -> int

val clear : t -> unit
(** Empty the table, keeping the backing storage — refilling to the
    previous size allocates nothing. *)

val reserve : t -> int -> int
(** [reserve t key] inserts [key] if absent and returns the dense
    index whose value must then be set with {!set_val}; [-1] when the
    key was already present. *)

val set_val : t -> int -> int -> unit
(** [set_val t i v] fills the value slot returned by {!reserve}. *)

val index : t -> int -> int
(** Dense index of a key ([-1] if absent), usable with {!key_at} /
    {!val_at} / {!set_val}. *)

val mem : t -> int -> bool
val find_default : t -> int -> int -> int

val get : t -> int -> int
(** @raise Not_found when the key is absent. *)

val replace : t -> int -> int -> unit
(** Insert or overwrite. *)

val copy : t -> t
(** An independent table with the same entries in the same insertion
    order, sized to [length t] (not to [t]'s backing storage). *)

val iter : t -> (int -> int -> unit) -> unit
(** Insertion-order iteration over [(key, value)]. *)

val key_at : t -> int -> int
(** Key at a dense index [0 <= i < length t], in insertion order. *)

val val_at : t -> int -> int

val fold : t -> 'a -> ('a -> int -> int -> 'a) -> 'a
