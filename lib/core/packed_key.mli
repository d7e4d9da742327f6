(** Bit-packed DP state keys for the MinPower dynamic program.

    Packs {!Dp_power}'s state vector
    [| n_1; …; n_M; e_11; …; e_MM; flow |] into one unboxed [int]:
    field 0 in the most significant bits, the flow in the least
    significant bits, each field as wide as the per-instance maximum
    it can hold. Integer comparison of packed keys is then exactly
    lexicographic comparison of the vectors, [key lsr flow_bits] is
    the counts prefix the flow-dominance prune groups by, and adding
    two keys of disjoint subtrees adds field-wise without carries
    (sums are bounded by the maxima the layout was sized from, and the
    flow sum is capacity-checked before the add). *)

type layout

val make : m:int -> count_max:int array -> flow_max:int -> layout option
(** [make ~m ~count_max ~flow_max] sizes a layout for [m] modes, the
    given per-field count maxima ([m + m*m] entries, same order as the
    vector) and maximal flow. [None] when the packed key would exceed
    62 bits — {!Dp_power} then retries with tighter maxima and, past
    those, takes its sequential [int array] fallback. A field with
    maximum 0 gets width 0: it always reads 0 and must never be
    bumped.
    @raise Invalid_argument on negative maxima or a wrong-length
    [count_max]. *)

val width : count_max:int array -> flow_max:int -> int
(** Bits a layout for these maxima needs; {!make} succeeds iff this is
    at most 62. *)

val total_bits : layout -> int
(** Total key width in bits (≤ 62). *)

val flow_bits : layout -> int
(** Width of the flow field. *)

val equal : layout -> layout -> bool
(** Same mode count and identical field widths — packed keys are
    comparable across the two layouts. *)

(** {1 Field access}

    Fields are indexed as in the wide vector: [0 .. m-1] for new-server
    counts, [m + (i0-1)*m + (op-1)] for reused (initial, operating)
    pairs, [m + m*m] for the flow. *)

val flow : layout -> int -> int
(** Flow field of a key. *)

val counts : layout -> int -> int
(** The counts prefix ([key lsr flow_bits]) — equal iff the two keys
    agree on every field but the flow. *)

val get : layout -> int -> int -> int
(** [get l key field] extracts one field. *)

val bump : layout -> int -> int -> int
(** [bump l key field] is [key] with [field] incremented. The caller
    guarantees the field is below its sized maximum. *)

val zero_flow : layout -> int -> int
(** [key] with the flow field cleared. *)

val encode : layout -> int array -> int
(** Pack a wide vector.
    @raise Invalid_argument if a field exceeds its width. *)

val decode : layout -> int -> int array
(** Unpack to the wide vector ([m + m*m + 1] entries). *)

val pp : Format.formatter -> layout -> unit
