(* Constraint-aware adaptation of the bottom-up greedy: one postorder
   pass tracking, per node, the upward flow and the remaining QoS slack
   of its still-unserved clients. A child's flow is forced down into a
   server at the child whenever passing it up would break a constraint —
   slack exhausted or link bandwidth exceeded — and the capacity rule of
   the plain greedy (absorb the largest child flows while the arriving
   total exceeds w) handles the rest.

   Feasibility-complete: every table flow satisfies flow <= w (clients
   of one node can always be absorbed at their attachment node unless
   their combined load alone exceeds w, which no placement can serve
   under the closest policy), so a forced placement always succeeds and
   the greedy fails exactly on the truly infeasible instances. It is NOT
   count-optimal — an early forced server can beat two late ones — hence
   the [Heuristic] capability; {!Dp_withpre} carries exactness. *)

module Span = Replica_obs.Span

let solve tree ~w =
  if w <= 0 then invalid_arg "Greedy_qos.solve: w must be positive";
  let tracing = Span.enabled () in
  if tracing then Span.begin_span "greedy_qos.solve";
  let n = Tree.size tree in
  let flow = Array.make n 0 in
  let slack = Array.make n Tree.unbounded in
  let replicas = ref [] in
  let feasible = ref true in
  let place j =
    replicas := j :: !replicas;
    flow.(j) <- 0;
    slack.(j) <- Tree.unbounded
  in
  let dec s = if s = Tree.unbounded then s else s - 1 in
  let process j =
    let kids = Tree.children tree j in
    (* Children whose flow cannot legally cross the link into j get a
       server at the child (flow <= w makes this always feasible). *)
    List.iter
      (fun c ->
        if flow.(c) > 0 && (slack.(c) < 1 || flow.(c) > Tree.bandwidth tree c)
        then place c)
      kids;
    let client = Tree.client_load tree j in
    if client > w then feasible := false
    else begin
      let arriving =
        List.fold_left (fun acc c -> acc + flow.(c)) client kids
      in
      flow.(j) <- arriving;
      if arriving > w then begin
        let sorted = List.sort (fun a b -> compare flow.(b) flow.(a)) kids in
        let rec absorb = function
          | [] -> ()
          | c :: rest ->
              if flow.(j) > w && flow.(c) > 0 then begin
                flow.(j) <- flow.(j) - flow.(c);
                place c;
                absorb rest
              end
        in
        absorb sorted
        (* flow.(j) <= w now: at worst every child was absorbed and only
           [client <= w] remains. *)
      end;
      slack.(j) <-
        List.fold_left
          (fun acc c -> if flow.(c) > 0 then min acc (dec slack.(c)) else acc)
          (if client > 0 then Tree.qos_radius tree j else Tree.unbounded)
          kids
    end
  in
  Array.iter process (Tree.postorder tree);
  let root = Tree.root tree in
  if flow.(root) > 0 then place root;
  let result =
    if !feasible then begin
      let sol = Solution.of_nodes !replicas in
      (* The pass above is argued feasibility-complete; a final oracle
         check keeps any future drift from returning an invalid
         placement. *)
      if Solution.is_valid tree ~w sol then Some sol else None
    end
    else None
  in
  if tracing then
    Span.end_span
      ~args:
        [
          ("nodes", Span.Int n);
          ("w", Span.Int w);
          ("servers", Span.Int (List.length !replicas));
          ("solved", Span.Bool (result <> None));
        ]
      ();
  result

let solve_count tree ~w = Option.map Solution.cardinal (solve tree ~w)
