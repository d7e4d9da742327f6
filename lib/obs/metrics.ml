type labels = (string * string) list

type t =
  | C of int Atomic.t
  | G of float Atomic.t
  | H of Histogram.t
  | T of int Atomic.t  (* accumulated nanoseconds *)

type kind = Counter | Gauge | Histo | Timer

type hist_snapshot = {
  hs_buckets : (int * int) list;
  hs_count : int;
  hs_sum : int;
  hs_p50 : int;
  hs_p90 : int;
  hs_p99 : int;
}

type value =
  | Sample_counter of float
  | Sample_gauge of float
  | Sample_histogram of hist_snapshot

type sample = { s_name : string; s_labels : labels; s_value : value }

(* Families are keyed by the name they emit (a timer [x] emits
   [x_seconds]) and kept in that order; each holds one instrument per
   distinct label set, in label order. Both orders are kept by sorted
   insertion at registration, so the scrape path never sorts.
   Registration (rare: engine/forest creation, module initializers) is
   mutex-protected; the hot path only ever touches the Atomic cells
   inside the instrument, never the registry. *)
type family = {
  fam_name : string;
  fam_kind : kind;
  mutable instruments : (labels * t) list;
}

let lock = Mutex.create ()
let families : family list ref = ref []
let collectors : (string * (unit -> sample list)) list ref = ref []

(* The unlabeled counters and timers under their registered names, in
   name order: immutable lists republished at registration, so the
   solver views and the per-epoch counter snapshots read them with no
   lock and no sort. *)
let plain_counters : (string * int Atomic.t) list Atomic.t = Atomic.make []
let plain_timers : (string * int Atomic.t) list Atomic.t = Atomic.make []

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let canonical labels =
  List.sort_uniq (fun (a, _) (b, _) -> compare a b) labels

(* Allocation-free comparison (no tuple boxing, no polymorphic
   dispatch): sampling runs once per epoch, so its constant factor is
   the telemetry overhead budget. *)
let rec compare_labels la lb =
  match (la, lb) with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | (ka, va) :: ra, (kb, vb) :: rb -> (
      match String.compare ka kb with
      | 0 -> ( match String.compare va vb with 0 -> compare_labels ra rb | c -> c)
      | c -> c)

let rec insert_sorted cmp x = function
  | [] -> [ x ]
  | hd :: tl when cmp hd x < 0 -> hd :: insert_sorted cmp x tl
  | rest -> x :: rest

let by_name (a, _) (b, _) = String.compare a b

let kind_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histo -> "histogram"
  | Timer -> "timer"

let fresh kind name =
  match kind with
  | Counter -> C (Atomic.make 0)
  | Gauge -> G (Atomic.make 0.)
  | Histo -> H (Histogram.make name)
  | Timer -> T (Atomic.make 0)

let intern kind ?(labels = []) name =
  let labels = canonical labels in
  let emitted = match kind with Timer -> name ^ "_seconds" | _ -> name in
  with_lock (fun () ->
      let fam =
        match
          List.find_opt (fun f -> String.equal f.fam_name emitted) !families
        with
        | Some f ->
            if f.fam_kind <> kind then
              invalid_arg
                (Printf.sprintf "Metrics: %s already registered as a %s"
                   emitted (kind_name f.fam_kind));
            f
        | None ->
            let f = { fam_name = emitted; fam_kind = kind; instruments = [] } in
            families :=
              insert_sorted
                (fun a b -> String.compare a.fam_name b.fam_name)
                f !families;
            f
      in
      match List.assoc_opt labels fam.instruments with
      | Some i -> i
      | None ->
          let i = fresh kind name in
          fam.instruments <-
            insert_sorted
              (fun (a, _) (b, _) -> compare_labels a b)
              (labels, i) fam.instruments;
          let publish view cell =
            Atomic.set view
              (insert_sorted by_name (name, cell) (Atomic.get view))
          in
          (match (labels, i) with
          | [], C c -> publish plain_counters c
          | [], T ns -> publish plain_timers ns
          | _ -> ());
          i)

let counter ?labels name = intern Counter ?labels name
let gauge ?labels name = intern Gauge ?labels name
let histogram ?labels name = intern Histo ?labels name
let timer ?labels name = intern Timer ?labels name

let add m n =
  match m with
  | C c -> ignore (Atomic.fetch_and_add c n)
  | G _ | H _ | T _ -> invalid_arg "Metrics.add: not a counter"

let incr m = add m 1

(* Top-level recursion, not a local [let rec]: the retry loop runs in
   the packed DP's zero-alloc merge path, where a per-call closure
   would show up in the allocation gate. *)
let rec raise_to c v =
  let cur = Atomic.get c in
  if v > cur && not (Atomic.compare_and_set c cur v) then raise_to c v

let record_max m v =
  match m with
  | C c -> raise_to c v
  | G _ | H _ | T _ -> invalid_arg "Metrics.record_max: not a counter"

let set m v =
  match m with
  | G g -> Atomic.set g v
  | C _ | H _ | T _ -> invalid_arg "Metrics.set: not a gauge"

let observe m v =
  match m with
  | H h -> Histogram.observe h v
  | C _ | G _ | T _ -> invalid_arg "Metrics.observe: not a histogram"

let time m f =
  match m with
  | T ns ->
      let t0 = Clock.now_ns () in
      Fun.protect
        ~finally:(fun () ->
          ignore (Atomic.fetch_and_add ns (Clock.now_ns () - t0)))
        f
  | C _ | G _ | H _ -> invalid_arg "Metrics.time: not a timer"

let seconds ns = float_of_int (Atomic.get ns) /. 1e9

let value = function
  | C c -> float_of_int (Atomic.get c)
  | G g -> Atomic.get g
  | T ns -> seconds ns
  | H _ -> invalid_arg "Metrics.value: histogram (use samples)"

let read view get =
  List.map (fun (name, cell) -> (name, get cell)) (Atomic.get view)

let counters () = read plain_counters Atomic.get
let timers () = read plain_timers seconds

let hist_snapshot h =
  let s = Histogram.summary h in
  {
    hs_buckets = Histogram.buckets h;
    hs_count = s.Histogram.s_count;
    hs_sum = s.Histogram.s_sum;
    hs_p50 = s.Histogram.p50;
    hs_p90 = s.Histogram.p90;
    hs_p99 = s.Histogram.p99;
  }

let register_collector ~name f =
  with_lock (fun () ->
      collectors := List.filter (fun (n, _) -> n <> name) !collectors;
      collectors := !collectors @ [ (name, f) ])

(* Built in: the span buffers' drop counter, so a scrape can tell a
   truncated trace from a quiet one. *)
let builtin_samples () =
  [
    {
      s_name = "obs.spans_dropped";
      s_labels = [];
      s_value = Sample_counter (float_of_int (Span.dropped ()));
    };
  ]

let direct_samples () =
  with_lock (fun () ->
      List.concat_map
        (fun fam ->
          List.map
            (fun (labels, inst) ->
              let v =
                match inst with
                | C c -> Sample_counter (float_of_int (Atomic.get c))
                | G g -> Sample_gauge (Atomic.get g)
                | T ns -> Sample_gauge (seconds ns)
                | H h -> Sample_histogram (hist_snapshot h)
              in
              { s_name = fam.fam_name; s_labels = labels; s_value = v })
            fam.instruments)
        !families)

let collector_samples () =
  let fs = with_lock (fun () -> !collectors) in
  List.concat_map
    (fun (_, f) ->
      List.map (fun s -> { s with s_labels = canonical s.s_labels }) (f ()))
    fs

let compare_sample a b =
  match String.compare a.s_name b.s_name with
  | 0 -> compare_labels a.s_labels b.s_labels
  | c -> c

let samples () =
  (* Histograms that never saw an observation are suppressed (their
     exposition would be bucketless); zero counters and gauges are
     real states and stay. *)
  let live s =
    match s.s_value with
    | Sample_histogram h -> h.hs_count > 0
    | Sample_counter _ | Sample_gauge _ -> true
  in
  let direct = List.filter live (direct_samples ()) in
  let extra =
    List.sort compare_sample
      (List.filter live (collector_samples () @ builtin_samples ()))
  in
  (* Direct samples arrive sorted; only the handful of collector and
     builtin rows need sorting, then a linear merge. *)
  List.merge compare_sample direct extra

let reset () =
  with_lock (fun () ->
      List.iter
        (fun fam ->
          List.iter
            (fun (_, inst) ->
              match inst with
              | C c | T c -> Atomic.set c 0
              | G g -> Atomic.set g 0.
              | H h -> Histogram.reset h)
            fam.instruments)
        !families)

let labels_to_string labels =
  match labels with
  | [] -> ""
  | _ ->
      let buf = Buffer.create 32 in
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf k;
          Buffer.add_char buf '=';
          Buffer.add_char buf '"';
          String.iter
            (fun c ->
              match c with
              | '"' | '\\' ->
                  Buffer.add_char buf '\\';
                  Buffer.add_char buf c
              | '\n' -> Buffer.add_string buf "\\n"
              | c -> Buffer.add_char buf c)
            v;
          Buffer.add_char buf '"')
        labels;
      Buffer.add_char buf '}';
      Buffer.contents buf

let sample_key s = s.s_name ^ labels_to_string s.s_labels
