(* Frozen batch update-policy loop: the simulator the online engine
   replaced, kept verbatim (trigger included) as the oracle that
   [Engine.run] must match run for run. Each epoch re-solves with a
   memo-less Dp_withpre whose pre-existing set is the previous
   placement. *)

type step_record = {
  epoch : int;
  reconfigured : bool;
  servers : Solution.t;
  step_cost : float;
  valid : bool;
  unserved : int;
}

type summary = {
  records : step_record list;
  total_cost : float;
  reconfigurations : int;
  invalid_epochs : int;
}

let demand_of tree = Tree.total_requests tree

let shortfall tree ~w servers =
  let ev = Solution.evaluate tree servers in
  List.fold_left
    (fun acc (_, load) -> acc + max 0 (load - w))
    ev.Solution.unserved ev.Solution.loads

let should_reconfigure (policy : Update_policy.policy) ~epoch ~servers_valid
    ~demand ~last_demand =
  match policy with
  | Systematic -> true
  | Lazy -> not servers_valid
  | Periodic k ->
      if k <= 0 then invalid_arg "Update_policy: period must be positive";
      (not servers_valid) || epoch mod k = 0
  | Drift fraction ->
      if fraction < 0. then invalid_arg "Update_policy: negative drift";
      (not servers_valid)
      ||
      let base = float_of_int (max 1 last_demand) in
      abs_float (float_of_int (demand - last_demand)) /. base > fraction

let simulate ~w ~cost policy demands =
  let servers = ref Solution.empty in
  let last_demand = ref 0 in
  let records = ref [] in
  List.iteri
    (fun i demand_tree ->
      let epoch = i + 1 in
      let demand = demand_of demand_tree in
      let servers_valid = Solution.is_valid demand_tree ~w !servers in
      let reconfigure =
        should_reconfigure policy ~epoch ~servers_valid ~demand
          ~last_demand:!last_demand
      in
      let record =
        if reconfigure then begin
          let with_pre =
            Tree.with_pre_existing demand_tree
              (List.map (fun j -> (j, 1)) (Solution.nodes !servers))
          in
          match Dp_withpre.solve with_pre ~w ~cost with
          | Some r ->
              servers := r.Dp_withpre.solution;
              last_demand := demand;
              {
                epoch;
                reconfigured = true;
                servers = !servers;
                step_cost = r.Dp_withpre.cost;
                valid = true;
                unserved = 0;
              }
          | None ->
              (* Demand is unserveable even with a fresh optimal placement:
                 keep the old servers and report the shortfall. *)
              {
                epoch;
                reconfigured = false;
                servers = !servers;
                step_cost = 0.;
                valid = false;
                unserved = shortfall demand_tree ~w !servers;
              }
        end
        else
          {
            epoch;
            reconfigured = false;
            servers = !servers;
            step_cost = 0.;
            valid = servers_valid;
            unserved =
              (if servers_valid then 0 else shortfall demand_tree ~w !servers);
          }
      in
      records := record :: !records)
    demands;
  let records = List.rev !records in
  {
    records;
    total_cost = List.fold_left (fun acc r -> acc +. r.step_cost) 0. records;
    reconfigurations =
      List.length (List.filter (fun r -> r.reconfigured) records);
    invalid_epochs = List.length (List.filter (fun r -> not r.valid) records);
  }
