type candidate = { capacity : int; result : Dp_power.result }

(* Per-solve state for scoring the kernel's runs: the power of one
   server at each mode, each node's initial mode (0 = not
   pre-existing), and a tally refilled in place for every capacity. *)
type sweep = {
  kernel : Greedy.kernel;
  modes : Modes.t;
  cost : Cost.modal;
  mode_power : float array;
  initial : int array;
  tally : Cost.tally;
}

let sweep tree ~modes ~power ~cost =
  let m = Modes.count modes in
  if Cost.mode_count cost <> m then
    invalid_arg "Greedy_power: cost model mode count mismatch";
  {
    kernel = Greedy.kernel tree;
    modes;
    cost;
    mode_power = Array.init m (fun i -> Power.of_mode power modes (i + 1));
    initial =
      Array.init (Tree.size tree) (fun j ->
          Option.value (Tree.initial_mode tree j) ~default:0);
    tally = Cost.empty_tally ~modes:m;
  }

(* Power of the kernel's last (feasible) run, with its Eq. 4 tally left
   in [s.tally], in one ascending-node pass: the power sum adds the
   servers in the order [Solution.power] does, so the float is
   bit-identical. *)
let score s =
  let t = s.tally in
  Array.fill t.Cost.created 0 (Array.length t.Cost.created) 0;
  Array.fill t.Cost.deleted 0 (Array.length t.Cost.deleted) 0;
  Array.iter (fun row -> Array.fill row 0 (Array.length row) 0) t.Cost.reused;
  let power = ref 0. in
  for j = 0 to Array.length s.initial - 1 do
    let load = Greedy.load s.kernel j and init = s.initial.(j) in
    if load >= 0 then begin
      let op = Modes.mode_of_load s.modes load - 1 in
      power := !power +. s.mode_power.(op);
      if init = 0 then t.Cost.created.(op) <- t.Cost.created.(op) + 1
      else
        t.Cost.reused.(init - 1).(op) <- t.Cost.reused.(init - 1).(op) + 1
    end
    else if init > 0 then
      t.Cost.deleted.(init - 1) <- t.Cost.deleted.(init - 1) + 1
  done;
  !power

(* The sweep: [f w power] for every feasible capacity W_1..W_M, in
   increasing order, with the run's tally in [s.tally]. *)
let each_feasible s f =
  for w = Modes.capacity s.modes 1 to Modes.max_capacity s.modes do
    if Greedy.run s.kernel ~w then f w (score s)
  done

let result s ~power =
  let t = s.tally in
  {
    Dp_power.solution = Greedy.placement s.kernel;
    power;
    cost = Cost.modal_cost s.cost t;
    tally =
      {
        Cost.created = Array.copy t.Cost.created;
        reused = Array.map Array.copy t.Cost.reused;
        deleted = Array.copy t.Cost.deleted;
      };
  }

(* Rebuild a winner's result by replaying its capacity. *)
let rebuild s w =
  Greedy.replay s.kernel ~w;
  result s ~power:(score s)

let candidates tree ~modes ~power ~cost =
  let s = sweep tree ~modes ~power ~cost in
  let acc = ref [] in
  each_feasible s (fun w power ->
      acc := { capacity = w; result = result s ~power } :: !acc);
  List.rev !acc

let solve tree ~modes ~power ~cost ?(bound = infinity) () =
  let s = sweep tree ~modes ~power ~cost in
  (* The running best: a candidate within the bound replaces it unless
     the best is at most as large on (power, cost) — lexicographically,
     so the earliest capacity wins ties. *)
  let best_w = ref 0 and best_power = ref 0. and best_cost = ref 0. in
  each_feasible s (fun w p ->
      let c = Cost.modal_cost s.cost s.tally in
      if
        (not (c > bound))
        && (!best_w = 0
           || not (!best_power < p || (!best_power = p && !best_cost <= c)))
      then begin
        best_w := w;
        best_power := p;
        best_cost := c
      end);
  if !best_w = 0 then None else Some (rebuild s !best_w)

type row = { row_cost : float; row_power : float; row_capacity : int }

let frontier tree ~modes ~power ~cost =
  let s = sweep tree ~modes ~power ~cost in
  let rows = ref [] in
  each_feasible s (fun w p ->
      rows :=
        {
          row_cost = Cost.modal_cost s.cost s.tally;
          row_power = p;
          row_capacity = w;
        }
        :: !rows);
  let sorted =
    List.stable_sort
      (fun a b ->
        match Float.compare a.row_cost b.row_cost with
        | 0 -> Float.compare a.row_power b.row_power
        | c -> c)
      (List.rev !rows)
  in
  let rec filter best_power = function
    | [] -> []
    | r :: rest ->
        if r.row_power < best_power then
          rebuild s r.row_capacity :: filter r.row_power rest
        else filter best_power rest
  in
  filter infinity sorted
