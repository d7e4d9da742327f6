let bins = 63

type t = {
  h_name : string;
  counts : int Atomic.t array;  (* counts.(i): bin i, see index below *)
  h_sum : int Atomic.t;
}

(* Bin 0: v <= 0. Bin i >= 1: 2^(i-1) <= v <= 2^i - 1. *)
let index v =
  if v <= 0 then 0
  else begin
    let i = ref 0 and v = ref v in
    while !v > 0 do
      incr i;
      v := !v lsr 1
    done;
    min !i (bins - 1)
  end

let upper_bound i = if i = 0 then 0 else (1 lsl i) - 1

(* Geometric midpoint of bin i's [2^(i-1), 2^i - 1] range: the
   unbiased point estimate for a log-scale bucket. Reporting the upper
   bound instead (as quantiles once did) pins the estimate to a bucket
   boundary and overstates tail quantiles by up to 2x. *)
let midpoint i =
  if i = 0 then 0
  else
    let lo = float_of_int (1 lsl (i - 1))
    and hi = float_of_int ((1 lsl i) - 1) in
    int_of_float (Float.round (sqrt (lo *. hi)))

let make name =
  {
    h_name = name;
    counts = Array.init bins (fun _ -> Atomic.make 0);
    h_sum = Atomic.make 0;
  }

let name h = h.h_name

let observe h v =
  ignore (Atomic.fetch_and_add h.counts.(index v) 1);
  ignore (Atomic.fetch_and_add h.h_sum (max 0 v))

let count h = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 h.counts
let sum h = Atomic.get h.h_sum

let quantile h q =
  let total = count h in
  if total = 0 then 0
  else begin
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int total))) in
    let rank = min rank total in
    let acc = ref 0 and result = ref 0 in
    (try
       for i = 0 to bins - 1 do
         acc := !acc + Atomic.get h.counts.(i);
         if !acc >= rank then begin
           result := midpoint i;
           raise Exit
         end
       done
     with Exit -> ());
    !result
  end

type summary = { s_count : int; s_sum : int; p50 : int; p90 : int; p99 : int }

(* One pass over the atomic bins; quantiles are then computed from the
   frozen snapshot. `quantile` alone would rescan (and re-count) the
   live cells per call — 4x the atomic traffic, and each scan could see
   a different in-flight total. *)
let summary h =
  let snap = Array.map Atomic.get h.counts in
  let total = Array.fold_left ( + ) 0 snap in
  let q_of q =
    if total = 0 then 0
    else begin
      let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int total))) in
      let rank = min rank total in
      let acc = ref 0 and result = ref 0 in
      (try
         for i = 0 to bins - 1 do
           acc := !acc + snap.(i);
           if !acc >= rank then begin
             result := midpoint i;
             raise Exit
           end
         done
       with Exit -> ());
      !result
    end
  in
  {
    s_count = total;
    s_sum = sum h;
    p50 = q_of 0.50;
    p90 = q_of 0.90;
    p99 = q_of 0.99;
  }

let buckets h =
  let highest = ref (-1) in
  for i = 0 to bins - 1 do
    if Atomic.get h.counts.(i) > 0 then highest := i
  done;
  if !highest < 0 then []
  else begin
    let acc = ref 0 in
    List.init (!highest + 1) (fun i ->
        acc := !acc + Atomic.get h.counts.(i);
        (upper_bound i, !acc))
  end

let reset h =
  Array.iter (fun c -> Atomic.set c 0) h.counts;
  Atomic.set h.h_sum 0
