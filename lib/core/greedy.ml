module Span = Replica_obs.Span

type kernel = {
  tree : Tree.t;
  children : Tree.node array array;
      (* held here: [fill] reads it for every node of every pass *)
  post : Tree.node array;
  own : int array;  (* each node's own client load *)
  flow : int array;
  load : int array;  (* server load, -1 = no server *)
  placed : Tree.node array;  (* servers in placement order *)
  mutable servers : int;
  kids : Tree.node array;  (* child buffer, max-degree size *)
  merge_buf : Tree.node array;  (* merge sort's second buffer *)
}

let kernel tree =
  let n = Tree.size tree in
  let degree = ref 0 in
  for j = 0 to n - 1 do
    degree := max !degree (Array.length (Tree.children_array tree j))
  done;
  {
    tree;
    children = Tree.children_arrays tree;
    post = Tree.postorder tree;
    own = Array.init n (Tree.client_load tree);
    flow = Array.make n 0;
    load = Array.make n (-1);
    placed = Array.make n 0;
    servers = 0;
    kids = Array.make !degree 0;
    merge_buf = Array.make !degree 0;
  }

(* The child buffer is ordered by descending flow, ties in child order,
   as [List.sort] orders the child list. Runs of [run_len] children are
   insertion-sorted in place; wider nodes (stars) merge the runs through
   [merge_buf], which keeps the sort O(d log d) without allocating. *)
let run_len = 16

let insertion flow a lo hi =
  for i = lo + 1 to hi - 1 do
    let x = a.(i) in
    let fx = flow.(x) in
    let p = ref (i - 1) in
    while !p >= lo && flow.(a.(!p)) < fx do
      a.(!p + 1) <- a.(!p);
      decr p
    done;
    a.(!p + 1) <- x
  done

let merge flow src dst lo mid hi =
  let i = ref lo and j = ref mid in
  for k = lo to hi - 1 do
    if !i < mid && (!j >= hi || flow.(src.(!i)) >= flow.(src.(!j))) then begin
      dst.(k) <- src.(!i);
      incr i
    end
    else begin
      dst.(k) <- src.(!j);
      incr j
    end
  done

let sort_kids k d =
  let lo = ref 0 in
  while !lo < d do
    insertion k.flow k.kids !lo (min d (!lo + run_len));
    lo := !lo + run_len
  done;
  let src = ref k.kids and dst = ref k.merge_buf and width = ref run_len in
  while !width < d do
    let lo = ref 0 in
    while !lo < d do
      let mid = min d (!lo + !width) in
      let hi = min d (mid + !width) in
      merge k.flow !src !dst !lo mid hi;
      lo := hi
    done;
    let s = !src in
    src := !dst;
    dst := s;
    width := 2 * !width
  done;
  if !src != k.kids then Array.blit !src 0 k.kids 0 d

let place k c =
  k.load.(c) <- k.flow.(c);
  k.flow.(c) <- 0;
  k.placed.(k.servers) <- c;
  k.servers <- k.servers + 1

let fill k ~w =
  let flow = k.flow and kids = k.kids in
  for i = 0 to k.servers - 1 do
    k.load.(k.placed.(i)) <- -1
  done;
  k.servers <- 0;
  let feasible = ref true in
  for p = 0 to Array.length k.post - 1 do
    let j = k.post.(p) in
    let cs = k.children.(j) in
    let d = Array.length cs in
    let arriving = ref k.own.(j) in
    for i = 0 to d - 1 do
      arriving := !arriving + flow.(cs.(i))
    done;
    flow.(j) <- !arriving;
    if !arriving > w then begin
      (* Absorb the largest child flows first; own clients can only be
         served at j or above, so they are not absorbable here. *)
      Array.blit cs 0 kids 0 d;
      sort_kids k d;
      let i = ref 0 in
      while !i < d && flow.(j) > w && flow.(kids.(!i)) > 0 do
        flow.(j) <- flow.(j) - flow.(kids.(!i));
        place k kids.(!i);
        incr i
      done;
      if flow.(j) > w then feasible := false
    end
  done;
  let root = Tree.root k.tree in
  if flow.(root) > 0 then place k root;
  !feasible

let run k ~w =
  if w <= 0 then invalid_arg "Greedy.solve: w must be positive";
  if not (Span.enabled ()) then fill k ~w
  else begin
    Span.begin_span "greedy.solve";
    let feasible = fill k ~w in
    Span.end_span
      ~args:
        [
          ("nodes", Span.Int (Tree.size k.tree));
          ("w", Span.Int w);
          ("servers", Span.Int k.servers);
          ("solved", Span.Bool feasible);
        ]
      ();
    feasible
  end

let replay k ~w = ignore (fill k ~w)

let load k j = k.load.(j)

(* Consed in placement order, last server first, as the list-based
   greedy built its set, so the resulting [Solution.t] is structurally
   the same value. *)
let placement k =
  let nodes = ref [] in
  for i = 0 to k.servers - 1 do
    nodes := k.placed.(i) :: !nodes
  done;
  Solution.of_nodes !nodes

let solve tree ~w =
  let k = kernel tree in
  if run k ~w then Some (placement k) else None

let solve_count tree ~w =
  Option.map Solution.cardinal (solve tree ~w)
