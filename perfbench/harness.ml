(* Closed-loop measurement, GC accounting and reduction of a span trace
   into per-layer figures, shared by every workload.

   Load model: one client, closed loop. The next operation is issued
   only when the previous one has returned; there is no arrival queue
   because the engine and forest step epochs synchronously. *)

module Span = Replica_obs.Span
module Clock = Replica_obs.Clock
module Trace_reader = Replica_obs.Trace_reader
module Profile = Replica_obs.Profile
module Critical_path = Replica_obs.Critical_path

type verdict = {
  failed : int;  (* recorded operations that failed verification *)
  offered : int;  (* requests offered by the recorded operations *)
  unserved : int;  (* of those, requests left unserved *)
  objective : float;  (* the workload objective summed over one pass *)
}

type session = {
  cycle : int;  (* operations in one deterministic pass over the inputs *)
  begin_pass : unit -> unit;  (* fresh per-pass state (engines); untimed *)
  op : int -> unit -> (string * float) list;
      (* [op k] runs operation [k] — the timed part — and returns the
         untimed step that records its result and reports per-operation
         timeline figures *)
  verify : unit -> verdict;  (* checks every recorded result *)
}

type workload = {
  name : string;
  warmup : int;  (* operations run as part of set-up *)
  setup : unit -> session;
}

let now = Clock.now_ns
let ms ns = float_of_int ns /. 1e6
let secs ns = float_of_int ns /. 1e9

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted q =
  let n = Array.length sorted in
  sorted.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  percentile a q

let median xs = quantile xs 0.5

(* --- set-up --- *)

(* One set-up, timed from nothing to the first measured operation:
   instance, trace and engine construction plus [warmup] operations. *)
let timed_setup w =
  Gc.full_major ();
  let t0 = now () in
  let s = w.setup () in
  s.begin_pass ();
  for k = 0 to min w.warmup s.cycle - 1 do
    ignore (s.op k () : (string * float) list)
  done;
  let dt = now () - t0 in
  Gc.full_major ();
  (dt, s)

(* --- the measured loop --- *)

type phase = {
  lat_ns : int array;  (* sorted per-operation latencies *)
  passes : (int array * int) list;
      (* per pass: its sorted latencies and its wall time *)
  ops : int;
  raised : int;
  alloc_words : float;  (* all domains: minor + major - promoted *)
  promoted_words : float;
  minor_gcs : int;
  major_gcs : int;
  figures : (string, float) Hashtbl.t;  (* summed timeline figures *)
  samples : int list;  (* durations returned by the [sample] hook *)
}

let add tbl key v =
  Hashtbl.replace tbl key (v +. Option.value ~default:0. (Hashtbl.find_opt tbl key))

let sorted_array l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let allocated g = g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words

(* Run whole passes until [seconds] have passed and at least [min_ops]
   operations are done. [around] brackets each operation (tracing),
   outside its timing. [sample = (n, f)] runs [f] at the first pass
   boundary after each of [n] instants spread evenly over the run,
   outside every pass and with its allocation left out. Gc.quick_stat
   sums every domain, including the Par helpers that joined before the
   operation returned; the Gc.minor calls flush the calling domain's
   counters so the phase delta is exact. *)
let run_phase ?(around = fun f -> f ()) ?(sample = (0, fun () -> 0)) s
    ~seconds ~min_ops =
  let figures = Hashtbl.create 8 in
  let lat = ref [] and pass_lat = ref [] and passes = ref [] in
  let k = ref 0 and raised = ref 0 in
  let samples = ref [] and sampled_words = ref 0. in
  Gc.minor ();
  let g0 = Gc.quick_stat () in
  let t_start = now () in
  let deadline = t_start + int_of_float (seconds *. 1e9) in
  let n_samples, f_sample = sample in
  let due i =
    t_start + (int_of_float (seconds *. 1e9) * i / (n_samples + 1))
  in
  let pass_start = ref t_start in
  while !k mod s.cycle <> 0 || !k < min_ops || now () < deadline do
    if !k mod s.cycle = 0 then s.begin_pass ();
    let dt, finish =
      around (fun () ->
          let t0 = now () in
          let finish = try Some (s.op !k) with _ -> None in
          (now () - t0, finish))
    in
    (match finish with
    | Some f -> List.iter (fun (name, v) -> add figures name v) (f ())
    | None -> incr raised);
    lat := dt :: !lat;
    pass_lat := dt :: !pass_lat;
    incr k;
    if !k mod s.cycle = 0 then begin
      passes := (sorted_array !pass_lat, now () - !pass_start) :: !passes;
      pass_lat := [];
      let taken = List.length !samples in
      if taken < n_samples && now () >= due (taken + 1) then begin
        Gc.minor ();
        let before = allocated (Gc.quick_stat ()) in
        samples := f_sample () :: !samples;
        Gc.minor ();
        sampled_words :=
          !sampled_words +. allocated (Gc.quick_stat ()) -. before
      end;
      pass_start := now ()
    end
  done;
  Gc.minor ();
  let g1 = Gc.quick_stat () in
  let d f = f g1 -. f g0 in
  {
    lat_ns = sorted_array !lat;
    passes = List.rev !passes;
    ops = !k;
    raised = !raised;
    alloc_words = d allocated -. !sampled_words;
    promoted_words = d (fun g -> g.Gc.promoted_words);
    minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
    figures;
    samples = !samples;
  }

(* --- trace reduction --- *)

(* Layer of a span by its name's first component. The benchmark's own
   spans ([bench.op], [solver.solve], [greedy_power.solve],
   [forest.step]) sit around calls into the layers; the program's spans
   ([engine.*], [dp_withpre.*], [dp_power.*], [greedy.*]) nest under
   them. [greedy.*] is the MinCost
   greedy that GR reruns once per capacity. *)
let layer_of name =
  match String.index_opt name '.' with
  | None -> "bench"
  | Some i -> (
      match String.sub name 0 i with
      | "solver" -> "core.solver"
      | "dp_power" -> "core.dp_power"
      | "greedy_power" | "greedy" -> "core.greedy_power"
      | "dp_withpre" -> "core.dp_withpre"
      | "engine" -> "engine"
      | "forest" -> "forest"
      | _ -> "bench")

(* Layers an operation's time can land in; [bench] is the harness's own
   unattributed share and [par] the calling domain's wait inside the
   forest's Par section. *)
let op_layers =
  [
    "core.solver";
    "core.dp_power";
    "core.greedy_power";
    "core.dp_withpre";
    "engine";
    "forest";
    "par";
    "bench";
  ]

type acc = {
  mutable ops : int;
  self_ns : (string, float) Hashtbl.t;  (* per layer *)
  self_words : (string, float) Hashtbl.t;  (* per layer, minor + major *)
  name_self_ns : (string, float) Hashtbl.t;  (* per span name *)
  outer_ns : (string, float) Hashtbl.t;
      (* per span name, outermost occurrences only (no recursion
         double count) *)
  calls : (string, float) Hashtbl.t;  (* per span name *)
  args : (string, float) Hashtbl.t;  (* summed int args, "name:key" *)
  counters : (string, float) Hashtbl.t;  (* Stats_counters, summed *)
  peaks : (string, float) Hashtbl.t;  (* Stats_counters peaks, max *)
  mutable covered_ns : int;  (* root span time over every domain *)
  mutable root_words : float;  (* root span words over every domain *)
  mutable partition_error_ns : int;
  mutable critical_path_error_ns : int;
  mutable coordinator_ns : int;
  mutable par_wall_ns : int;
  mutable par_busy_ns : int;
  mutable shard_solve_ns : int list;
  mutable spans : int;
  mutable dropped : int;
}

let acc () =
  let t () = Hashtbl.create 32 in
  {
    ops = 0;
    self_ns = t ();
    self_words = t ();
    name_self_ns = t ();
    outer_ns = t ();
    calls = t ();
    args = t ();
    counters = t ();
    peaks = t ();
    covered_ns = 0;
    root_words = 0.;
    partition_error_ns = 0;
    critical_path_error_ns = 0;
    coordinator_ns = 0;
    par_wall_ns = 0;
    par_busy_ns = 0;
    shard_solve_ns = [];
    spans = 0;
    dropped = 0;
  }

(* Outermost-occurrence totals and int args of every span, by name. *)
let walk_outer a roots =
  let rec walk above (n : Trace_reader.node) =
    let s = n.Trace_reader.span in
    let name = s.Span.name in
    if not (List.mem name above) then
      add a.outer_ns name (float_of_int s.Span.dur_ns);
    List.iter
      (function
        | key, Span.Int v -> add a.args (name ^ ":" ^ key) (float_of_int v)
        | _ -> ())
      s.Span.args;
    List.iter (walk (name :: above)) n.Trace_reader.children
  in
  List.iter (walk []) roots

(* Drain the spans one operation recorded and fold them into [a]. *)
let reduce a =
  let spans = Span.export () in
  a.dropped <- a.dropped + Span.dropped ();
  Span.reset ();
  a.ops <- a.ops + 1;
  a.spans <- a.spans + List.length spans;
  let roots = Trace_reader.forest_of_spans spans in
  let rows = Profile.rows roots in
  List.iter
    (fun (r : Profile.row) ->
      add a.calls r.Profile.name (float_of_int r.Profile.calls))
    rows;
  walk_outer a roots;
  List.iter
    (fun (r : Trace_reader.node) ->
      let s = r.Trace_reader.span in
      let path = Critical_path.of_node r in
      a.critical_path_error_ns <-
        a.critical_path_error_ns
        + abs (Critical_path.total_ns path - s.Span.dur_ns))
    roots;
  let covered = Trace_reader.wall_ns roots in
  a.covered_ns <- a.covered_ns + covered;
  a.root_words <-
    a.root_words
    +. float_of_int
         (Trace_reader.total_minor_w roots + Trace_reader.total_major_w roots);
  (* The forest step's own self time splits at the Par section — the
     interval from the first shard step's start to the last one's end,
     on any domain: outside it is the coordinator (validation, repair,
     loads), inside it the calling domain waited for its helpers. *)
  let epochs =
    List.filter (fun (s : Span.span) -> s.Span.name = "engine.epoch") spans
  in
  let par_wall =
    match epochs with
    | [] -> 0
    | e :: _ ->
        let lo, hi =
          List.fold_left
            (fun (lo, hi) (s : Span.span) ->
              (min lo s.Span.start_ns, max hi (s.Span.start_ns + s.Span.dur_ns)))
            (e.Span.start_ns, e.Span.start_ns) epochs
        in
        hi - lo
  in
  let step =
    List.find_opt (fun (s : Span.span) -> s.Span.name = "forest.step") spans
  in
  let coordinator =
    match step with
    | Some s -> max 0 (s.Span.dur_ns - par_wall)
    | None -> 0
  in
  let self_total = ref 0 in
  List.iter
    (fun (r : Profile.row) ->
      let name = r.Profile.name in
      let layer = layer_of name in
      let self_w = float_of_int (r.Profile.self_minor_w + r.Profile.self_major_w) in
      self_total := !self_total + r.Profile.self_ns;
      add a.name_self_ns name (float_of_int r.Profile.self_ns);
      if name = "forest.step" then begin
        let coord = min coordinator r.Profile.self_ns in
        add a.self_ns "forest" (float_of_int coord);
        add a.self_ns "par" (float_of_int (r.Profile.self_ns - coord));
        add a.self_words "forest" self_w
      end
      else begin
        add a.self_ns layer (float_of_int r.Profile.self_ns);
        add a.self_words layer self_w
      end)
    rows;
  (* On the calling domain every root is a [bench.op]; other roots are
     Par helpers' shard steps. *)
  let main = (Domain.self () :> int) in
  let stray =
    List.fold_left
      (fun acc (r : Trace_reader.node) ->
        let s = r.Trace_reader.span in
        if s.Span.tid = main && s.Span.name <> "bench.op" then acc + s.Span.dur_ns
        else acc)
      0 roots
  in
  a.partition_error_ns <-
    a.partition_error_ns + abs (!self_total - covered) + stray;
  if step <> None then begin
    a.coordinator_ns <- a.coordinator_ns + coordinator;
    a.par_wall_ns <- a.par_wall_ns + par_wall;
    a.par_busy_ns <-
      a.par_busy_ns
      + List.fold_left (fun acc (s : Span.span) -> acc + s.Span.dur_ns) 0 epochs;
    List.iter
      (fun (s : Span.span) ->
        if s.Span.name = "engine.solve" then
          a.shard_solve_ns <- s.Span.dur_ns :: a.shard_solve_ns)
      spans
  end

(* Per-operation registry movement: reset before, read after. *)
let read_counters a =
  List.iter
    (fun (name, v) ->
      let v = float_of_int v in
      if String.ends_with ~suffix:"peak_table_size" name then
        Hashtbl.replace a.peaks name
          (max v (Option.value ~default:0. (Hashtbl.find_opt a.peaks name)))
      else add a.counters name v)
    (Stats_counters.counters ())

(* Trace one operation: a [bench.op] root span with alloc capture,
   registry counters reset before and read after, spans drained into
   [a] — all outside the operation's own timing. *)
let traced a f =
  Stats_counters.reset ();
  Span.begin_span "bench.op";
  let r = f () in
  Span.end_span ();
  read_counters a;
  reduce a;
  r
