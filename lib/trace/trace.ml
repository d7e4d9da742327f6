type event = { time : float; node : Tree.node; client : int }

type t = event array

(* Events order by (time, node, client). Events equal in all three are
   equal records, so every sort or merge by this order yields the same
   array. *)
let compare_events a b =
  let c = Float.compare a.time b.time in
  if c <> 0 then c
  else
    let c = Int.compare a.node b.node in
    if c <> 0 then c else Int.compare a.client b.client

let of_events l =
  List.iter
    (fun e ->
      if e.time < 0. || Float.is_nan e.time then
        invalid_arg "Trace.of_events: negative timestamp")
    l;
  let a = Array.of_list l in
  Array.sort compare_events a;
  a

let events t = Array.to_list t
let iter f t = Array.iter f t
let length = Array.length

let duration t = if Array.length t = 0 then 0. else t.(Array.length t - 1).time

(* Linear merge of two sorted traces; traces are immutable, so an empty
   side just shares the other. *)
let merge a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 then b
  else if lb = 0 then a
  else begin
    let out = Array.make (la + lb) a.(0) in
    let i = ref 0 and j = ref 0 in
    for k = 0 to la + lb - 1 do
      if !j >= lb || (!i < la && compare_events a.(!i) b.(!j) <= 0) then begin
        out.(k) <- a.(!i);
        incr i
      end
      else begin
        out.(k) <- b.(!j);
        incr j
      end
    done;
    out
  end

(* Pairwise rounds of linear merges: O(events · log streams). *)
let rec merge_all = function
  | [] -> [||]
  | [ t ] -> t
  | ts ->
      let rec round = function
        | a :: b :: rest -> merge a b :: round rest
        | rest -> rest
      in
      merge_all (round ts)

let filter p t = Array.of_list (List.filter p (Array.to_list t))

let count_by_client t =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun e ->
      let key = (e.node, e.client) in
      Hashtbl.replace tbl key
        ((try Hashtbl.find tbl key with Not_found -> 0) + 1))
    t;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
