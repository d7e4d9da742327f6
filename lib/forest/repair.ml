type stats = { pushdowns : int; added : int }

type outcome = {
  placements : Solution.t array;
  stats : stats;
  overloads : int;
  unrepaired : int;
  server_loads : int array;
}

(* Load absorbed at each node (0 off the placement) and upward flow
   leaving each node, as arrays so the repair loop can read child flows
   directly. One postorder pass, recomputed only for the shard a
   push-down modified. *)
let eval_arrays tree sol =
  let n = Tree.size tree in
  let flow = Array.make n 0 and loads = Array.make n 0 in
  Array.iter
    (fun j ->
      let arriving =
        List.fold_left
          (fun acc c -> acc + flow.(c))
          (Tree.client_load tree j)
          (Tree.children tree j)
      in
      if Solution.mem sol j then loads.(j) <- arriving
      else flow.(j) <- arriving)
    (Tree.postorder tree);
  (loads, flow)

let repair forest ~trees ~w placements =
  let shard_count = Array.length placements in
  if Array.length trees <> shard_count then
    invalid_arg "Repair: shard count mismatch";
  let sols = Array.copy placements in
  let evals = Array.init shard_count (fun o -> eval_arrays trees.(o) sols.(o)) in
  let phys = Array.make (Forest.num_servers forest) 0 in
  let account sign o =
    let loads, _ = evals.(o) in
    Array.iteri
      (fun j l ->
        if l > 0 then begin
          let s = Forest.server_of forest o j in
          phys.(s) <- phys.(s) + (sign * l)
        end)
      loads
  in
  for o = 0 to shard_count - 1 do
    account 1 o
  done;
  let overloaded () =
    Array.fold_left (fun n load -> if load > w then n + 1 else n) 0 phys
  in
  let overloads = overloaded () in
  let pushdowns = ref 0 and added = ref 0 in
  let progress = ref true in
  while !progress do
    progress := false;
    (* Most overloaded server, smallest id on ties. *)
    let worst = ref (-1) in
    Array.iteri
      (fun s load ->
        if load > w && (!worst < 0 || load > phys.(!worst)) then worst := s)
      phys;
    if !worst >= 0 then begin
      let s = !worst in
      (* The replica on [s] shedding the most load per push-down:
         maximal (load - attached clients), smallest (shard, node) on
         ties. Replicas loaded purely by direct clients cannot shed. *)
      let best = ref None in
      for o = 0 to shard_count - 1 do
        let loads, _ = evals.(o) in
        Array.iteri
          (fun j l ->
            if l > 0 && Forest.server_of forest o j = s then begin
              let reducible = l - Tree.client_load trees.(o) j in
              match !best with
              | _ when reducible <= 0 -> ()
              | None -> best := Some (reducible, o, j)
              | Some (r, _, _) when reducible > r ->
                  best := Some (reducible, o, j)
              | Some _ -> ()
            end)
          loads
      done;
      match !best with
      | None -> () (* stuck: the remaining overloads are counted below *)
      | Some (_, o, j) ->
          incr pushdowns;
          let _, flow = evals.(o) in
          let extra =
            List.filter (fun c -> flow.(c) > 0) (Tree.children trees.(o) j)
          in
          added := !added + List.length extra;
          sols.(o) <- Solution.of_nodes (extra @ Solution.nodes sols.(o));
          account (-1) o;
          evals.(o) <- eval_arrays trees.(o) sols.(o);
          account 1 o;
          progress := true
    end
  done;
  {
    placements = sols;
    stats = { pushdowns = !pushdowns; added = !added };
    overloads;
    unrepaired = overloaded ();
    server_loads = phys;
  }
