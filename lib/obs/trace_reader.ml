type node = { span : Span.span; children : node list }

type t = { roots : node list; span_count : int; dropped : int }

(* Mutable scaffolding used only while stacking a sorted span list
   into trees; [b_children] is kept reversed and flipped once when the
   builder is popped. *)
type builder = { b_span : Span.span; mutable b_children : node list }

let span_end (s : Span.span) = s.Span.start_ns + s.Span.dur_ns

let forest_of_tid spans =
  (* Sorted by (start asc, dur desc): at equal starts the enclosing
     span precedes the enclosed one, so a plain containment stack
     rebuilds the nesting. *)
  let spans =
    List.sort
      (fun (a : Span.span) (b : Span.span) ->
        compare
          (a.Span.start_ns, -a.Span.dur_ns, a.Span.depth)
          (b.Span.start_ns, -b.Span.dur_ns, b.Span.depth))
      spans
  in
  let roots = ref [] in
  let stack = ref [] in
  let pop () =
    match !stack with
    | [] -> ()
    | b :: rest ->
        stack := rest;
        let n = { span = b.b_span; children = List.rev b.b_children } in
        (match rest with
        | [] -> roots := n :: !roots
        | p :: _ -> p.b_children <- n :: p.b_children)
  in
  List.iter
    (fun (s : Span.span) ->
      while
        match !stack with
        | b :: _ -> s.Span.start_ns >= span_end b.b_span
        | [] -> false
      do
        pop ()
      done;
      let s = { s with Span.depth = List.length !stack } in
      stack := { b_span = s; b_children = [] } :: !stack)
    spans;
  while !stack <> [] do
    pop ()
  done;
  List.rev !roots

let forest_of_spans spans =
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun (s : Span.span) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_tid s.Span.tid) in
      Hashtbl.replace by_tid s.Span.tid (s :: prev))
    spans;
  Hashtbl.fold (fun _tid ss acc -> forest_of_tid (List.rev ss) :: acc) by_tid []
  |> List.concat
  |> List.sort (fun a b ->
         compare
           (a.span.Span.start_ns, a.span.Span.tid)
           (b.span.Span.start_ns, b.span.Span.tid))

(* --- JSON direction --- *)

let ( let* ) = Result.bind

let number = function
  | Some (Json.Int i) -> Some (float_of_int i)
  | Some (Json.Float f) -> Some f
  | _ -> None

let us_to_ns us = int_of_float (Float.round (us *. 1e3))

let arg_of_json : Json.t -> Span.arg = function
  | Json.String s -> Span.Str s
  | Json.Int i -> Span.Int i
  | Json.Float f -> Span.Float f
  | Json.Bool b -> Span.Bool b
  | j -> Span.Str (Json.to_string j)

let event_span json =
  match (Json.member "ph" json, Json.member "name" json) with
  | Some (Json.String "X"), Some (Json.String name) ->
      let ts = Option.value ~default:0. (number (Json.member "ts" json)) in
      let dur = Option.value ~default:0. (number (Json.member "dur" json)) in
      let tid =
        match Json.member "tid" json with Some (Json.Int t) -> t | _ -> 0
      in
      let args =
        match Json.member "args" json with
        | Some (Json.Obj members) ->
            List.map (fun (k, v) -> (k, arg_of_json v)) members
        | _ -> []
      in
      (* Alloc columns travel as reserved arg keys (see Chrome_trace);
         lift them back into span fields so analyses see them exactly
         as a live Span.export would, and keep user args clean. *)
      let words k =
        match List.assoc_opt k args with
        | Some (Span.Int w) when w >= 0 -> w
        | _ -> 0
      in
      let minor_w = words "minor_w" and major_w = words "major_w" in
      let args =
        List.filter (fun (k, _) -> k <> "minor_w" && k <> "major_w") args
      in
      Some
        {
          Span.name;
          start_ns = us_to_ns ts;
          dur_ns = us_to_ns dur;
          tid;
          depth = 0;
          minor_w;
          major_w;
          args;
        }
  | _ -> None

let event_dropped json =
  match (Json.member "ph" json, Json.member "name" json) with
  | Some (Json.String "M"), Some (Json.String "spans_dropped") -> (
      match Json.member "args" json with
      | Some args -> (
          match Json.member "count" args with
          | Some (Json.Int n) -> Some n
          | _ -> None)
      | None -> None)
  | _ -> None

let of_string contents =
  let* _events = Chrome_trace.validate contents in
  let* json = Json.parse contents in
  let events =
    match Json.member "traceEvents" json with
    | Some (Json.List events) -> events
    | _ -> []
  in
  let spans = List.filter_map event_span events in
  let dropped =
    List.fold_left
      (fun acc e -> acc + Option.value ~default:0 (event_dropped e))
      0 events
  in
  Ok
    {
      roots = forest_of_spans spans;
      span_count = List.length spans;
      dropped;
    }

let of_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> of_string contents
  | exception Sys_error e ->
      (* Sys_error messages lead with the path; callers prefix it too. *)
      let prefix = path ^ ": " in
      Error
        (if String.starts_with ~prefix e then
           String.sub e (String.length prefix)
             (String.length e - String.length prefix)
         else e)

let rec fold f acc nodes =
  List.fold_left (fun acc n -> fold f (f acc n) n.children) acc nodes

let wall_ns roots =
  List.fold_left (fun acc n -> acc + n.span.Span.dur_ns) 0 roots

let total_minor_w roots =
  List.fold_left (fun acc n -> acc + n.span.Span.minor_w) 0 roots

let total_major_w roots =
  List.fold_left (fun acc n -> acc + n.span.Span.major_w) 0 roots
