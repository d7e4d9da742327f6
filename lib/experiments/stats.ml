let mean = function
  | [] -> 0.
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let stddev l =
  match l with
  | [] | [ _ ] -> 0.
  | _ ->
      let m = mean l in
      let sq = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. l in
      sqrt (sq /. float_of_int (List.length l))

let minimum = function [] -> 0. | x :: rest -> List.fold_left min x rest
let maximum = function [] -> 0. | x :: rest -> List.fold_left max x rest

let sorted l = List.sort compare l

let median l =
  match sorted l with
  | [] -> 0.
  | s -> List.nth s ((List.length s - 1) / 2)

let quantile q l =
  if q < 0. || q > 1. then invalid_arg "Stats.quantile: q out of [0,1]";
  match sorted l with
  | [] -> 0.
  | s ->
      let n = List.length s in
      let rank =
        int_of_float (Float.round (q *. float_of_int (n - 1)))
      in
      List.nth s rank

let histogram l =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun v ->
      Hashtbl.replace tbl v ((try Hashtbl.find tbl v with Not_found -> 0) + 1))
    l;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let mean_int l = mean (List.map float_of_int l)

let time f =
  let start = Replica_obs.Clock.now_ns () in
  let result = f () in
  (float_of_int (Replica_obs.Clock.now_ns () - start) *. 1e-9, result)

let confidence95 l =
  match l with
  | [] | [ _ ] -> 0.
  | _ -> 1.96 *. stddev l /. sqrt (float_of_int (List.length l))
