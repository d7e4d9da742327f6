let max_nodes = 20

module Metrics = Replica_obs.Metrics

let c_masks = Metrics.counter "brute.masks_scanned"
let c_valid = Metrics.counter "brute.valid_placements"
let c_qos_rejected = Metrics.counter "brute.qos_rejected"
let c_bw_rejected = Metrics.counter "brute.bw_rejected"
let t_scan = Metrics.timer "brute.scan"

let fold_valid tree ~w ~init ~f =
  let n = Tree.size tree in
  if n > max_nodes then
    invalid_arg "Brute.fold_valid: tree too large for exhaustive search";
  Metrics.time t_scan (fun () ->
      let acc = ref init in
      let valid = ref 0 and qos_rej = ref 0 and bw_rej = ref 0 in
      for mask = 0 to (1 lsl n) - 1 do
        let nodes = ref [] in
        for j = n - 1 downto 0 do
          if mask land (1 lsl j) <> 0 then nodes := j :: !nodes
        done;
        let sol = Solution.of_nodes !nodes in
        match Solution.validate tree ~w sol with
        | Ok ev ->
            incr valid;
            acc := f !acc sol ev
        | Error vs ->
            if List.exists (function Solution.Qos_violated _ -> true | _ -> false) vs
            then incr qos_rej;
            if
              List.exists
                (function Solution.Link_overloaded _ -> true | _ -> false)
                vs
            then incr bw_rej
      done;
      Metrics.add c_masks (1 lsl n);
      Metrics.add c_valid !valid;
      Metrics.add c_qos_rejected !qos_rej;
      Metrics.add c_bw_rejected !bw_rej;
      !acc)

let argmin tree ~w ~value =
  fold_valid tree ~w ~init:None ~f:(fun best sol ev ->
      match value sol ev with
      | None -> best
      | Some v -> (
          match best with
          | Some (bv, _) when bv <= v -> best
          | Some _ | None -> Some (v, sol)))

let min_servers tree ~w =
  Option.map
    (fun (v, s) -> (int_of_float v, s))
    (argmin tree ~w ~value:(fun sol _ ->
         Some (float_of_int (Solution.cardinal sol))))

let min_basic_cost tree ~w ~cost =
  argmin tree ~w ~value:(fun sol _ -> Some (Solution.basic_cost tree cost sol))

let min_power tree ~modes ~power ~cost ?(bound = infinity) () =
  let w = Modes.max_capacity modes in
  argmin tree ~w ~value:(fun sol _ ->
      let c = Solution.modal_cost tree modes cost sol in
      if c > bound then None else Some (Solution.power tree modes power sol))
