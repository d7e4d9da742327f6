type evaluation = { loads : (Tree.node * int) list; unserved : int }

let evaluate tree ~w solution =
  if w <= 0 then invalid_arg "Multiple.evaluate: w must be positive";
  let n = Tree.size tree in
  let flow = Array.make n 0 in
  let loads = Array.make n 0 in
  Array.iter
    (fun j ->
      let arriving =
        List.fold_left
          (fun acc c -> acc + flow.(c))
          (Tree.client_load tree j)
          (Tree.children tree j)
      in
      if Solution.mem solution j then begin
        let absorbed = min w arriving in
        loads.(j) <- absorbed;
        flow.(j) <- arriving - absorbed
      end
      else flow.(j) <- arriving)
    (Tree.postorder tree);
  {
    loads = List.map (fun j -> (j, loads.(j))) (Solution.nodes solution);
    unserved = flow.(Tree.root tree);
  }

let is_valid tree ~w solution = (evaluate tree ~w solution).unserved = 0

type result = { solution : Solution.t; servers : int }

(* Per-node table over the exact number of replicas strictly below the
   node: flow-minimal placement, flows unbounded (they may be served by
   several ancestors). Placements are [Arena] handles, built only when
   the cell wins. *)
type cell = { flow : int; placed : int }

let better table k flow =
  match table.(k) with Some c -> flow < c.flow | None -> true

let rec table_of arena tree ~w j =
  let start = Array.make 1 None in
  start.(0) <- Some { flow = Tree.client_load tree j; placed = Arena.empty };
  List.fold_left (merge arena tree ~w) start (Tree.children tree j)

and merge arena tree ~w left c =
  let sub = table_of arena tree ~w c in
  let extended = Array.make (Array.length sub + 1) None in
  Array.iteri
    (fun k cell_opt ->
      match cell_opt with
      | None -> ()
      | Some cell ->
          if better extended k cell.flow then extended.(k) <- Some cell;
          let flow = max 0 (cell.flow - w) in
          if better extended (k + 1) flow then
            extended.(k + 1) <-
              Some
                { flow; placed = Arena.snoc arena cell.placed ~node:c ~flow:0 })
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
                  if better merged (k1 + k2) flow then
                    merged.(k1 + k2) <-
                      Some
                        { flow; placed = Arena.append arena lc.placed rc.placed })
            extended)
    left;
  merged

let solve tree ~w =
  if w <= 0 then invalid_arg "Multiple.solve: w must be positive";
  let root = Tree.root tree in
  let arena = Arena.create () in
  let table = table_of arena tree ~w root in
  let best = ref None in
  Array.iteri
    (fun k cell_opt ->
      match cell_opt with
      | None -> ()
      | Some cell ->
          let consider servers placed =
            match !best with
            | Some (s, _) when s <= servers -> ()
            | Some _ | None -> best := Some (servers, placed)
          in
          if cell.flow = 0 then consider k cell.placed
          else if cell.flow <= w then
            consider (k + 1) (Arena.snoc arena cell.placed ~node:root ~flow:0))
    table;
  match !best with
  | None -> None
  | Some (servers, placed) ->
      Some { solution = Solution.of_nodes (Arena.nodes arena placed); servers }

let min_servers_lower_bound tree ~w =
  if w <= 0 then invalid_arg "Multiple.min_servers_lower_bound";
  (Tree.total_requests tree + w - 1) / w
