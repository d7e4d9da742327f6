(** Small descriptive-statistics toolkit for the experiment harness. *)

val mean : float list -> float
(** Arithmetic mean; 0 on the empty list. *)

val stddev : float list -> float
(** Population standard deviation; 0 on lists shorter than 2. *)

val minimum : float list -> float
val maximum : float list -> float

val median : float list -> float
(** Lower median; 0 on the empty list. *)

val quantile : float -> float list -> float
(** [quantile q l] with [0 <= q <= 1], nearest-rank; 0 on the empty list.
    @raise Invalid_argument if [q] is out of range. *)

val histogram : int list -> (int * int) list
(** Occurrence counts of each distinct value, sorted by value. *)

val mean_int : int list -> float

val time : (unit -> 'a) -> float * 'a
(** [time f] runs [f] once and returns its wall-clock seconds on the
    monotonic {!Replica_obs.Clock}, with its result. Wall time, not CPU
    time: a solve that fans out over domains is not over-counted. *)

val confidence95 : float list -> float
(** Half-width of the normal-approximation 95% confidence interval of the
    mean ([1.96 * stddev / sqrt n]); 0 on lists shorter than 2. *)
