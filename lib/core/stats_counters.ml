module Metrics = Replica_obs.Metrics

let counters = Metrics.counters
let timers = Metrics.timers
let reset = Metrics.reset

type snapshot = (string * int) list

let snapshot = counters

(* Both snapshots are name-sorted, so one merge pass pairs them up; a
   counter absent from [before] counts from 0. *)
let rec diff before after =
  match (before, after) with
  | _, [] -> []
  | (kb, _) :: rb, (ka, _) :: _ when String.compare kb ka < 0 -> diff rb after
  | (kb, vb) :: rb, (ka, va) :: ra when String.equal kb ka ->
      moved ka (va - vb) (diff rb ra)
  | _, (ka, va) :: ra -> moved ka va (diff before ra)

and moved name delta rest = if delta <> 0 then (name, delta) :: rest else rest

let pad_to entries =
  List.fold_left (fun acc (name, _) -> max acc (String.length name)) 0 entries

let counters_report () =
  (* Hide never-touched counters: which zero-valued cells exist depends
     on which solver modules the binary happens to link, not on the
     workload. *)
  let entries = List.filter (fun (_, v) -> v <> 0) (counters ()) in
  let width = pad_to entries in
  let buf = Buffer.create 256 in
  List.iter
    (fun (name, v) -> Buffer.add_string buf (Printf.sprintf "%-*s %d\n" width name v))
    entries;
  Buffer.contents buf

let report () =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (counters_report ());
  let entries = List.filter (fun (_, s) -> s <> 0.) (timers ()) in
  let width = pad_to entries in
  List.iter
    (fun (name, s) ->
      Buffer.add_string buf (Printf.sprintf "%-*s %.6f s\n" width name s))
    entries;
  Buffer.contents buf
