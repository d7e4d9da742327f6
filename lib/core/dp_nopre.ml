(* Cells carry their placement as an [Arena] handle of (node, flow)
   elements; one arena serves a whole solve. *)
type cell = { flow : int; placed : int }

type result = { solution : Solution.t; servers : int }

(* Table for a region: cells.(k) = flow-minimal placement with exactly k
   replicas in the region, or None. All stored flows are <= w. The
   placement is only built (pushed into the arena) when it wins. *)

let better table k flow =
  match table.(k) with None -> true | Some c -> flow < c.flow

(* Root-to-leaves recursion; returns the table of node j over replicas
   placed strictly below j. *)
let rec table_of arena tree ~w j =
  let start = Array.make 1 None in
  let client = Tree.client_load tree j in
  if client <= w then start.(0) <- Some { flow = client; placed = Arena.empty };
  List.fold_left (merge arena tree ~w) start (Tree.children tree j)

and merge arena tree ~w left c =
  let sub = table_of arena tree ~w c in
  (* Extend the child's table with the "replica at c" decision. *)
  let extended = Array.make (Array.length sub + 1) None in
  Array.iteri
    (fun k cell_opt ->
      match cell_opt with
      | None -> ()
      | Some cell ->
          if better extended k cell.flow then extended.(k) <- Some cell;
          if better extended (k + 1) 0 then
            extended.(k + 1) <-
              Some
                {
                  flow = 0;
                  placed = Arena.snoc arena cell.placed ~node:c ~flow:cell.flow;
                })
    sub;
  let merged = Array.make (Array.length left + Array.length extended - 1) None in
  Array.iteri
    (fun k1 l ->
      match l with
      | None -> ()
      | Some lc ->
          Array.iteri
            (fun k2 r ->
              match r with
              | None -> ()
              | Some rc ->
                  let flow = lc.flow + rc.flow in
                  if flow <= w && better merged (k1 + k2) flow then
                    merged.(k1 + k2) <-
                      Some
                        { flow; placed = Arena.append arena lc.placed rc.placed })
            extended)
    left;
  merged

let root_table arena tree ~w =
  if w <= 0 then invalid_arg "Dp_nopre: w must be positive";
  table_of arena tree ~w (Tree.root tree)

module Span = Replica_obs.Span

let solve tree ~w =
  let tracing = Span.enabled () in
  if tracing then Span.begin_span "dp_nopre.solve";
  let arena = Arena.create () in
  let table = root_table arena tree ~w in
  let root = Tree.root tree in
  let best = ref None in
  let consider servers placed =
    match !best with
    | Some (s, _) when s <= servers -> ()
    | _ -> best := Some (servers, placed)
  in
  Array.iteri
    (fun k cell_opt ->
      match cell_opt with
      | None -> ()
      | Some cell ->
          if cell.flow = 0 then consider k cell.placed
          else
            consider (k + 1)
              (Arena.snoc arena cell.placed ~node:root ~flow:cell.flow))
    table;
  let result =
    match !best with
    | None -> None
    | Some (servers, placed) ->
        Some { solution = Solution.of_nodes (Arena.nodes arena placed); servers }
  in
  if tracing then
    Span.end_span
      ~args:
        [
          ("nodes", Span.Int (Tree.size tree));
          ("w", Span.Int w);
          ("solved", Span.Bool (result <> None));
        ]
      ();
  result

let min_flow_per_count tree ~w =
  let table = root_table (Arena.create ()) tree ~w in
  Array.map (Option.map (fun c -> c.flow)) table
