type policy =
  | Systematic
  | Lazy
  | Periodic of int
  | Drift of float

let validate = function
  | Periodic k when k <= 0 ->
      invalid_arg "Update_policy: period must be positive"
  | Drift fraction when fraction < 0. ->
      invalid_arg "Update_policy: negative drift"
  | Systematic | Lazy | Periodic _ | Drift _ -> ()

let should_reconfigure policy ~epoch ~servers_valid ~demand ~last_demand =
  match policy with
  | Systematic -> true
  | Lazy -> not servers_valid
  | Periodic k -> (not servers_valid) || epoch mod k = 0
  | Drift fraction ->
      (not servers_valid)
      ||
      let base = float_of_int (max 1 last_demand) in
      abs_float (float_of_int (demand - last_demand)) /. base > fraction

let policy_to_string = function
  | Systematic -> "systematic"
  | Lazy -> "lazy"
  | Periodic k -> Printf.sprintf "periodic(%d)" k
  | Drift f -> Printf.sprintf "drift(%.2f)" f
