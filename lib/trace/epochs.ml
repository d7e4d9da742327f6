let window_counts trace ~window ~index =
  if window <= 0. then invalid_arg "Epochs: window must be positive";
  if index < 0 then invalid_arg "Epochs: negative index";
  let start = float_of_int index *. window in
  let stop = start +. window in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun e ->
      if e.Trace.time >= start && e.Trace.time < stop then begin
        let key = (e.Trace.node, e.Trace.client) in
        Hashtbl.replace tbl key
          ((try Hashtbl.find tbl key with Not_found -> 0) + 1)
      end)
    (Trace.events trace);
  tbl

(* [tree] with client [i] of node [j] at rate [events j i / window],
   rounded; clients at rate 0 are dropped. *)
let view tree ~window events =
  Tree.with_clients tree (fun j ->
      List.filteri
        (fun _ r -> r > 0)
        (List.mapi
           (fun i _ ->
             int_of_float (Float.round (float_of_int (events j i) /. window)))
           (Tree.clients tree j)))

let rates trace tree ~window ~index =
  let counts = window_counts trace ~window ~index in
  view tree ~window (fun j i ->
      try Hashtbl.find counts (j, i) with Not_found -> 0)

let epoch_count trace ~window =
  if window <= 0. then invalid_arg "Epochs: window must be positive";
  let d = Trace.duration trace in
  max 1 (int_of_float (Float.ceil ((d +. epsilon_float) /. window)))

(* Every epoch view of one stream, [count] windows, from one pass over
   its events. An event is counted in each window k whose float test
   [k·window <= time < k·window + window] holds — the test of
   {!window_counts}, so the views are exactly those of {!rates}.
   Rounding can put an event in two adjacent windows or in none, but
   only windows next to floor(time / window) can hold it. Counts sit in
   one flat array, per window one slot per client position in node
   order. *)
let views trace tree ~window ~count =
  let n = Tree.size tree in
  let off = Array.make (n + 1) 0 in
  for j = 0 to n - 1 do
    off.(j + 1) <- off.(j) + List.length (Tree.clients tree j)
  done;
  let width = off.(n) in
  let counts = Array.make (count * width) 0 in
  Trace.iter
    (fun e ->
      let j = e.Trace.node and i = e.Trace.client in
      if j >= 0 && j < n && i >= 0 && i < off.(j + 1) - off.(j) then begin
        let x = e.Trace.time /. window in
        let k0 = if x < float_of_int count then int_of_float x else count in
        for k = max 0 (k0 - 1) to min (count - 1) (k0 + 1) do
          let start = float_of_int k *. window in
          if e.Trace.time >= start && e.Trace.time < start +. window then begin
            let p = (k * width) + off.(j) + i in
            counts.(p) <- counts.(p) + 1
          end
        done
      end)
    trace;
  Array.init count (fun k ->
      view tree ~window (fun j i -> counts.((k * width) + off.(j) + i)))

let epochs trace tree ~window =
  let count = epoch_count trace ~window in
  Array.to_list (views trace tree ~window ~count)

let epochs_multi streams ~window =
  if window <= 0. then invalid_arg "Epochs: window must be positive";
  (* One shared window grid across every stream: the count covers the
     longest stream, and every stream is aggregated on that grid, so
     epoch k of stream A and epoch k of stream B describe the same
     wall-clock interval. A stream that ends early simply goes idle in
     the later windows. *)
  let count =
    List.fold_left
      (fun acc (trace, _) -> max acc (epoch_count trace ~window))
      1 streams
  in
  let per_stream =
    List.map (fun (trace, tree) -> views trace tree ~window ~count) streams
  in
  List.init count (fun k -> List.map (fun v -> v.(k)) per_stream)

let changed_nodes prev next =
  if Tree.size prev <> Tree.size next then
    invalid_arg "Epochs: changed_nodes expects views of one network";
  List.filter
    (fun j -> Tree.clients prev j <> Tree.clients next j)
    (List.init (Tree.size next) Fun.id)

let conservation_check trace tree ~window =
  ignore tree;
  let total = Trace.length trace in
  let summed = ref 0 in
  for index = 0 to epoch_count trace ~window - 1 do
    let counts = window_counts trace ~window ~index in
    Hashtbl.iter (fun _ c -> summed := !summed + c) counts
  done;
  !summed = total
