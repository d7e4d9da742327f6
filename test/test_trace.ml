open Replica_tree
open Replica_trace
open Helpers

let ev time node client = { Trace.time; node; client }

(* Fixture: root with clients [2], child with clients [3; 1]. *)
let sample_tree () =
  Tree.build (Tree.node ~clients:[ 2 ] [ Tree.node ~clients:[ 3; 1 ] [] ])

(* --- Trace --- *)

let test_of_events_sorts () =
  let t = Trace.of_events [ ev 3. 0 0; ev 1. 1 0; ev 2. 1 1 ] in
  check ci "length" 3 (Trace.length t);
  let times = List.map (fun e -> e.Trace.time) (Trace.events t) in
  check (Alcotest.list cf) "sorted" [ 1.; 2.; 3. ] times;
  check cf "duration" 3. (Trace.duration t)

let test_of_events_rejects_negative () =
  Alcotest.check_raises "negative time"
    (Invalid_argument "Trace.of_events: negative timestamp") (fun () ->
      ignore (Trace.of_events [ ev (-1.) 0 0 ]))

let test_empty () =
  let t = Trace.of_events [] in
  check ci "empty" 0 (Trace.length t);
  check cf "zero duration" 0. (Trace.duration t);
  check (Alcotest.list (Alcotest.pair (Alcotest.pair ci ci) ci)) "no counts" []
    (Trace.count_by_client t)

let test_merge_and_filter () =
  let a = Trace.of_events [ ev 1. 0 0; ev 3. 0 0 ] in
  let b = Trace.of_events [ ev 2. 1 0 ] in
  let m = Trace.merge a b in
  check ci "merged" 3 (Trace.length m);
  let times = List.map (fun e -> e.Trace.time) (Trace.events m) in
  check (Alcotest.list cf) "interleaved" [ 1.; 2.; 3. ] times;
  let only_node0 = Trace.filter (fun e -> e.Trace.node = 0) m in
  check ci "filtered" 2 (Trace.length only_node0)

let test_count_by_client () =
  let t = Trace.of_events [ ev 1. 0 0; ev 2. 1 0; ev 3. 0 0; ev 4. 1 1 ] in
  check
    (Alcotest.list (Alcotest.pair (Alcotest.pair ci ci) ci))
    "counts"
    [ ((0, 0), 2); ((1, 0), 1); ((1, 1), 1) ]
    (Trace.count_by_client t)

(* --- Arrivals --- *)

let test_poisson_rate_convergence () =
  (* Over a long horizon, per-client event counts approach rate·horizon. *)
  let tree = sample_tree () in
  let rng = Rng.create 21 in
  let horizon = 500. in
  let trace = Arrivals.poisson rng tree ~horizon in
  List.iter
    (fun ((node, client), count) ->
      let rate = float_of_int (List.nth (Tree.clients tree node) client) in
      let expected = rate *. horizon in
      let observed = float_of_int count in
      check cb
        (Printf.sprintf "node %d client %d within 15%%" node client)
        true
        (abs_float (observed -. expected) < 0.15 *. expected))
    (Trace.count_by_client trace);
  check ci "all clients emitted" 3 (List.length (Trace.count_by_client trace))

let test_poisson_determinism () =
  let tree = sample_tree () in
  let a = Arrivals.poisson (Rng.create 5) tree ~horizon:50. in
  let b = Arrivals.poisson (Rng.create 5) tree ~horizon:50. in
  check ci "same length" (Trace.length a) (Trace.length b)

let test_poisson_validation () =
  Alcotest.check_raises "bad horizon"
    (Invalid_argument "Arrivals.poisson: horizon must be positive") (fun () ->
      ignore (Arrivals.poisson (Rng.create 1) (sample_tree ()) ~horizon:0.))

let test_diurnal_thins () =
  (* The diurnal trace is a thinning of the max-rate process: strictly
     fewer events than plain Poisson in expectation when floor < 1. *)
  let tree = sample_tree () in
  let horizon = 400. in
  let plain = Arrivals.poisson (Rng.create 9) tree ~horizon in
  let cycled =
    Arrivals.diurnal (Rng.create 9) tree ~horizon ~period:100. ~floor:0.2
  in
  check cb "fewer events" true (Trace.length cycled < Trace.length plain);
  (* The average modulation is (1 + floor)/2 = 0.6: expect roughly that
     fraction. *)
  let ratio = float_of_int (Trace.length cycled) /. float_of_int (Trace.length plain) in
  check cb "ratio near 0.6" true (ratio > 0.45 && ratio < 0.75)

let test_diurnal_validation () =
  let t = sample_tree () in
  Alcotest.check_raises "bad floor"
    (Invalid_argument "Arrivals.diurnal: floor must be within [0, 1]")
    (fun () ->
      ignore (Arrivals.diurnal (Rng.create 1) t ~horizon:10. ~period:5. ~floor:2.))

let test_flash_crowd_localized () =
  let tree = sample_tree () in
  let rng = Rng.create 31 in
  let base = Arrivals.poisson rng tree ~horizon:100. in
  let spiked =
    Arrivals.flash_crowd rng tree ~base ~at:40. ~duration:20. ~node:1
      ~multiplier:4.
  in
  check cb "more events" true (Trace.length spiked > Trace.length base);
  (* Every extra event is in node 1's subtree and within the window. *)
  let extra = Trace.length spiked - Trace.length base in
  let in_window =
    Trace.filter
      (fun e -> e.Trace.node = 1 && e.Trace.time >= 40. && e.Trace.time < 60.)
      spiked
  in
  let base_in_window =
    Trace.filter
      (fun e -> e.Trace.node = 1 && e.Trace.time >= 40. && e.Trace.time < 60.)
      base
  in
  check ci "extras localized" extra
    (Trace.length in_window - Trace.length base_in_window)

(* --- Epochs --- *)

let test_rates_rounding () =
  let tree = sample_tree () in
  (* 6 events for (1,0) in window [0,2): rate 3; 1 event for (0,0): 0.5
     rounds to 1... Float.round 0.5 = 1. *)
  let trace =
    Trace.of_events
      (List.init 6 (fun i -> ev (0.3 *. float_of_int i) 1 0) @ [ ev 1.5 0 0 ])
  in
  let epoch = Epochs.rates trace tree ~window:2. ~index:0 in
  check ci "node 1 rate" 3 (Tree.client_load epoch 1);
  check ci "node 0 rate" 1 (Tree.client_load epoch 0)

let test_idle_clients_dropped () =
  let tree = sample_tree () in
  let trace = Trace.of_events [ ev 0.5 1 0 ] in
  let epoch = Epochs.rates trace tree ~window:1. ~index:0 in
  check ci "only one client left" 1 (Tree.num_clients epoch);
  (* Structure preserved. *)
  check ci "same size" (Tree.size tree) (Tree.size epoch)

let test_epoch_partition () =
  let tree = sample_tree () in
  let trace = Trace.of_events [ ev 0.5 0 0; ev 4.5 1 0; ev 9.9 1 1 ] in
  check ci "epoch count" 2 (Epochs.epoch_count trace ~window:5.);
  let epochs = Epochs.epochs trace tree ~window:5. in
  check ci "two epochs" 2 (List.length epochs);
  check cb "conservation" true (Epochs.conservation_check trace tree ~window:5.)

let test_empty_trace_epochs () =
  let tree = sample_tree () in
  let trace = Trace.of_events [] in
  let epochs = Epochs.epochs trace tree ~window:3. in
  check ci "one idle epoch" 1 (List.length epochs);
  check ci "no demand" 0 (Tree.total_requests (List.hd epochs))

let test_epochs_validation () =
  let trace = Trace.of_events [] in
  Alcotest.check_raises "bad window"
    (Invalid_argument "Epochs: window must be positive") (fun () ->
      ignore (Epochs.epoch_count trace ~window:0.));
  Alcotest.check_raises "bad index"
    (Invalid_argument "Epochs: negative index") (fun () ->
      ignore (Epochs.rates trace (sample_tree ()) ~window:1. ~index:(-1)))

(* Windowed aggregation conserves every event, whatever the arrival
   process (the flash-crowd generator included — previously untested). *)
let trace_case_gen =
  QCheck2.Gen.map
    (fun (seed, nodes, knobs) ->
      let rng = Rng.create (1 + seed) in
      let nodes = 1 + (nodes mod 10) in
      let tree = small_tree rng ~nodes ~max_requests:4 in
      let kind = knobs mod 3 in
      let horizon = 6. +. float_of_int (knobs mod 4) in
      let trace =
        match kind with
        | 0 -> Arrivals.poisson rng tree ~horizon
        | 1 ->
            Arrivals.diurnal rng tree ~horizon ~period:(horizon /. 2.)
              ~floor:0.25
        | _ ->
            let base = Arrivals.poisson rng tree ~horizon in
            let node = Rng.int rng (Tree.size tree) in
            Arrivals.flash_crowd rng tree ~base ~at:(horizon /. 4.)
              ~duration:(horizon /. 3.) ~node ~multiplier:3.
      in
      let window = 0.5 +. (0.5 *. float_of_int (knobs mod 5)) in
      (tree, trace, window))
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_bound 1_000) (int_bound 1_000))

let prop_aggregation_conserves_requests =
  qcheck_case "epochs conserve events on poisson/diurnal/flash traces"
    trace_case_gen
    (fun (tree, trace, window) ->
      Epochs.conservation_check trace tree ~window)

let prop_epochs_cover_trace =
  qcheck_case "every event lands in exactly one epoch window" trace_case_gen
    (fun (_, trace, window) ->
      let epochs = Epochs.epoch_count trace ~window in
      epochs >= 1
      && Trace.duration trace <= (float_of_int epochs *. window) +. 1e-9)

(* --- changed_nodes (epoch diffing for the incremental engine) --- *)

let test_changed_nodes_identity () =
  let tree = sample_tree () in
  check (Alcotest.list ci) "no change" [] (Epochs.changed_nodes tree tree)

let test_changed_nodes_exact () =
  let tree = sample_tree () in
  let next =
    Tree.with_clients tree (fun j ->
        if j = 1 then [ 4; 1 ] else Tree.clients tree j)
  in
  check (Alcotest.list ci) "only node 1" [ 1 ] (Epochs.changed_nodes tree next);
  check (Alcotest.list ci) "symmetric" [ 1 ] (Epochs.changed_nodes next tree)

let test_changed_nodes_size_mismatch () =
  let small = sample_tree () in
  let big = Tree.build (Tree.node ~clients:[ 1 ] [ Tree.node []; Tree.node [] ]) in
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Epochs: changed_nodes expects views of one network")
    (fun () -> ignore (Epochs.changed_nodes small big))

let prop_changed_nodes_match_direct_diff =
  qcheck_case "changed_nodes = the nodes whose multisets differ"
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_bound 1_000))
    (fun (seed, mask) ->
      let rng = Rng.create (1 + seed) in
      let tree = small_tree rng ~nodes:(1 + (mask mod 9)) ~max_requests:4 in
      let next =
        Tree.with_clients tree (fun j ->
            let cs = Tree.clients tree j in
            if (mask lsr (j mod 10)) land 1 = 1 then
              match cs with c :: rest -> (c + 1) :: rest | [] -> [ 1 ]
            else cs)
      in
      let expected =
        List.filter
          (fun j -> Tree.clients tree j <> Tree.clients next j)
          (List.init (Tree.size tree) Fun.id)
      in
      Epochs.changed_nodes tree next = expected)

let test_end_to_end_rates () =
  (* Poisson trace aggregated over whole-trace windows recovers the
     original request counts approximately. *)
  let tree = sample_tree () in
  let rng = Rng.create 77 in
  let trace = Arrivals.poisson rng tree ~horizon:300. in
  let epochs = Epochs.epochs trace tree ~window:100. in
  List.iter
    (fun epoch ->
      check cb "total demand near original" true
        (abs (Tree.total_requests epoch - Tree.total_requests tree) <= 2))
    epochs

(* --- Frozen copies of the list-and-sort trace pipeline --- *)

(* The trace, arrival and epoch functions as they were before the
   monomorphic sort, the linear merge and the one-pass epoch bucketing:
   the reference those must reproduce event for event and tree for
   tree. Traces are plain sorted event lists here. *)
module Frozen = struct
  let of_events l =
    let a = Array.of_list l in
    Array.sort
      (fun (a : Trace.event) (b : Trace.event) ->
        compare (a.time, a.node, a.client) (b.time, b.node, b.client))
      a;
    Array.to_list a

  let merge a b = of_events (a @ b)
  let merge_all ts = of_events (List.concat ts)
  let exponential rng rate = -.log (1. -. Rng.float rng 1.0) /. rate

  let poisson_stream rng ~rate ~start ~stop ~node ~client acc =
    if rate <= 0. then acc
    else begin
      let acc = ref acc in
      let t = ref (start +. exponential rng rate) in
      while !t < stop do
        acc := { Trace.time = !t; node; client } :: !acc;
        t := !t +. exponential rng rate
      done;
      !acc
    end

  let iter_clients tree f =
    for j = 0 to Tree.size tree - 1 do
      List.iteri
        (fun i r -> f ~node:j ~client:i ~rate:(float_of_int r))
        (Tree.clients tree j)
    done

  let poisson rng tree ~horizon =
    let acc = ref [] in
    iter_clients tree (fun ~node ~client ~rate ->
        acc := poisson_stream rng ~rate ~start:0. ~stop:horizon ~node ~client !acc);
    of_events !acc

  let diurnal rng tree ~horizon ~period ~floor =
    let modulation t =
      floor +. ((1. -. floor) *. (1. +. sin (2. *. Float.pi *. t /. period)) /. 2.)
    in
    let acc = ref [] in
    iter_clients tree (fun ~node ~client ~rate ->
        let events =
          poisson_stream rng ~rate ~start:0. ~stop:horizon ~node ~client []
        in
        List.iter
          (fun (e : Trace.event) ->
            if Rng.float rng 1.0 < modulation e.time then acc := e :: !acc)
          events);
    of_events !acc

  let flash_crowd rng tree ~base ~at ~duration ~node ~multiplier =
    let in_subtree j = j = node || Tree.is_ancestor tree ~anc:node ~desc:j in
    let extra = ref [] in
    iter_clients tree (fun ~node:j ~client ~rate ->
        if in_subtree j then
          extra :=
            poisson_stream rng
              ~rate:((multiplier -. 1.) *. rate)
              ~start:at ~stop:(at +. duration) ~node:j ~client !extra);
    merge base (of_events !extra)

  let window_counts events ~window ~index =
    let start = float_of_int index *. window in
    let stop = start +. window in
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun (e : Trace.event) ->
        if e.time >= start && e.time < stop then begin
          let key = (e.node, e.client) in
          Hashtbl.replace tbl key
            ((try Hashtbl.find tbl key with Not_found -> 0) + 1)
        end)
      events;
    tbl

  let rates events tree ~window ~index =
    let counts = window_counts events ~window ~index in
    Tree.with_clients tree (fun j ->
        List.filteri
          (fun _ r -> r > 0)
          (List.mapi
             (fun i _ ->
               let events = try Hashtbl.find counts (j, i) with Not_found -> 0 in
               int_of_float (Float.round (float_of_int events /. window)))
             (Tree.clients tree j)))

  let epoch_count events ~window =
    let d =
      match List.rev events with [] -> 0. | (e : Trace.event) :: _ -> e.time
    in
    max 1 (int_of_float (Float.ceil ((d +. epsilon_float) /. window)))

  let epochs events tree ~window =
    List.init (epoch_count events ~window) (fun index ->
        rates events tree ~window ~index)

  let epochs_multi streams ~window =
    let count =
      List.fold_left
        (fun acc (events, _) -> max acc (epoch_count events ~window))
        1 streams
    in
    List.init count (fun index ->
        List.map (fun (events, tree) -> rates events tree ~window ~index) streams)
end

let events_testable =
  Alcotest.testable
    (fun fmt (e : Trace.event) ->
      Format.fprintf fmt "(%h, %d, %d)" e.time e.node e.client)
    (fun (a : Trace.event) b ->
      Int64.equal (Int64.bits_of_float a.time) (Int64.bits_of_float b.time)
      && a.node = b.node && a.client = b.client)

let same_events msg expected got =
  check (Alcotest.list events_testable) msg expected (Trace.events got)

let same_views msg expected got =
  check (Alcotest.list Alcotest.string) msg
    (List.map Tree.to_string expected)
    (List.map Tree.to_string got)

let frozen_tree seed =
  let rng = Rng.create seed in
  let nodes = 10 + Rng.int rng 40 in
  let profile =
    if seed mod 2 = 0 then Generator.fat ~nodes () else Generator.high ~nodes ()
  in
  Generator.random rng profile

let test_frozen_arrivals () =
  List.iter
    (fun seed ->
      let tree = frozen_tree seed in
      let horizon = 5. +. float_of_int (seed mod 7) in
      same_events "poisson"
        (Frozen.poisson (Rng.create seed) tree ~horizon)
        (Arrivals.poisson (Rng.create seed) tree ~horizon);
      same_events "diurnal"
        (Frozen.diurnal (Rng.create seed) tree ~horizon ~period:3. ~floor:0.2)
        (Arrivals.diurnal (Rng.create seed) tree ~horizon ~period:3. ~floor:0.2);
      (* Several bursts on one base, as the engine benchmarks stack them. *)
      let node = Rng.int (Rng.create (seed + 1)) (Tree.size tree) in
      let frozen = ref (Frozen.poisson (Rng.create seed) tree ~horizon) in
      let fresh = ref (Arrivals.poisson (Rng.create seed) tree ~horizon) in
      for b = 0 to 2 do
        let at = float_of_int b *. horizon /. 3. in
        frozen :=
          Frozen.flash_crowd (Rng.create (seed + b)) tree ~base:!frozen ~at
            ~duration:(horizon /. 4.) ~node ~multiplier:2.5;
        fresh :=
          Arrivals.flash_crowd (Rng.create (seed + b)) tree ~base:!fresh ~at
            ~duration:(horizon /. 4.) ~node ~multiplier:2.5
      done;
      same_events "flash" !frozen !fresh)
    seeds

let test_frozen_merge_all () =
  List.iter
    (fun seed ->
      let streams =
        List.init (1 + (seed mod 6)) (fun k ->
            let tree = frozen_tree (seed + k) in
            Arrivals.poisson (Rng.create (seed * 7 + k)) tree ~horizon:4.)
      in
      (* Equal events across streams, as identical shards produce. *)
      let streams = streams @ [ List.hd streams ] in
      same_events "merge_all"
        (Frozen.merge_all (List.map Trace.events streams))
        (Trace.merge_all streams);
      same_events "merge_all []" (Frozen.merge_all []) (Trace.merge_all []))
    seeds;
  (* Equal timestamps, so that node and client order the events. *)
  let tied k =
    List.init 40 (fun i ->
        ev (float_of_int ((i + k) mod 5)) ((i * 7 + k) mod 11) ((i * 3) mod 4))
  in
  let streams = List.init 3 tied in
  same_events "tied of_events" (Frozen.of_events (tied 0))
    (Trace.of_events (tied 0));
  same_events "tied merge_all"
    (Frozen.merge_all (List.map Frozen.of_events streams))
    (Trace.merge_all (List.map Trace.of_events streams))

(* Windows whose float grid [k·w, k·w + w) overlaps or leaves gaps, and
   events placed on those very edges. *)
let edge_events tree ~window ~count =
  List.concat
    (List.init count (fun k ->
         let j = k mod Tree.size tree in
         match Tree.clients tree j with
         | [] -> []
         | _ ->
             let start = float_of_int k *. window in
             List.filter
               (fun (e : Trace.event) -> e.time >= 0.)
               [
                 { Trace.time = start; node = j; client = 0 };
                 { Trace.time = float_of_int (k - 1) *. window +. window; node = j;
                   client = 0 };
                 { Trace.time = Float.pred start; node = j; client = 0 };
                 { Trace.time = Float.succ start; node = j; client = 0 };
               ]))

let test_frozen_epochs () =
  List.iter
    (fun seed ->
      let tree = frozen_tree seed in
      let rng = Rng.create seed in
      let trace =
        Frozen.flash_crowd rng tree
          ~base:(Frozen.poisson rng tree ~horizon:9.)
          ~at:2. ~duration:3. ~node:0 ~multiplier:3.
      in
      List.iter
        (fun window ->
          let trace =
            Frozen.merge trace (Frozen.of_events (edge_events tree ~window ~count:40))
          in
          same_views
            (Printf.sprintf "epochs seed %d window %g" seed window)
            (Frozen.epochs trace tree ~window)
            (Epochs.epochs (Trace.of_events trace) tree ~window))
        [ 0.1; 0.3; 1. /. 3.; 0.7; 1.; 2.5 ])
    seeds

let test_frozen_epochs_multi () =
  List.iter
    (fun seed ->
      let streams =
        List.init 3 (fun k ->
            let tree = frozen_tree (seed + k) in
            let horizon = 3. +. float_of_int k in
            (Frozen.poisson (Rng.create (seed + k)) tree ~horizon, tree))
      in
      List.iter
        (fun window ->
          let expected = Frozen.epochs_multi streams ~window in
          let got =
            Epochs.epochs_multi
              (List.map (fun (l, tree) -> (Trace.of_events l, tree)) streams)
              ~window
          in
          check ci "epoch count" (List.length expected) (List.length got);
          List.iteri
            (fun k views ->
              same_views
                (Printf.sprintf "epochs_multi seed %d window %g epoch %d" seed
                   window k)
                views (List.nth got k))
            expected)
        [ 0.3; 1.; 1.7 ])
    seeds

let () =
  Alcotest.run "trace"
    [
      ( "trace",
        [
          Alcotest.test_case "sorting" `Quick test_of_events_sorts;
          Alcotest.test_case "negative time" `Quick test_of_events_rejects_negative;
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "merge/filter" `Quick test_merge_and_filter;
          Alcotest.test_case "count by client" `Quick test_count_by_client;
        ] );
      ( "frozen copy",
        [
          Alcotest.test_case "arrivals" `Quick test_frozen_arrivals;
          Alcotest.test_case "merge_all" `Quick test_frozen_merge_all;
          Alcotest.test_case "epochs" `Quick test_frozen_epochs;
          Alcotest.test_case "epochs_multi" `Quick test_frozen_epochs_multi;
        ] );
      ( "arrivals",
        [
          Alcotest.test_case "poisson rates" `Slow test_poisson_rate_convergence;
          Alcotest.test_case "determinism" `Quick test_poisson_determinism;
          Alcotest.test_case "validation" `Quick test_poisson_validation;
          Alcotest.test_case "diurnal thinning" `Slow test_diurnal_thins;
          Alcotest.test_case "diurnal validation" `Quick test_diurnal_validation;
          Alcotest.test_case "flash crowd" `Quick test_flash_crowd_localized;
        ] );
      ( "epochs",
        [
          Alcotest.test_case "rounding" `Quick test_rates_rounding;
          Alcotest.test_case "idle clients" `Quick test_idle_clients_dropped;
          Alcotest.test_case "partition" `Quick test_epoch_partition;
          Alcotest.test_case "empty trace" `Quick test_empty_trace_epochs;
          Alcotest.test_case "validation" `Quick test_epochs_validation;
          Alcotest.test_case "end to end" `Slow test_end_to_end_rates;
          prop_aggregation_conserves_requests;
          prop_epochs_cover_trace;
        ] );
      ( "changed nodes",
        [
          Alcotest.test_case "identity" `Quick test_changed_nodes_identity;
          Alcotest.test_case "exact" `Quick test_changed_nodes_exact;
          Alcotest.test_case "size mismatch" `Quick
            test_changed_nodes_size_mismatch;
          prop_changed_nodes_match_direct_diff;
        ] );
    ]
