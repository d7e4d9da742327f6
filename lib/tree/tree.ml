type node = int

(* Per-client QoS bounds and per-link bandwidth caps (Rehn-Sonigo,
   arXiv 0706.3350) use [max_int] as "unconstrained": comparisons work
   unchanged and unconstrained trees serialize byte-identically to the
   pre-constraint format. *)
let unbounded = max_int

type t = {
  parents : int array;
  children : node array array;
  clients : int array array;
  qos : int array array;  (* per client, aligned with [clients] *)
  bw : int array;  (* bw.(j) caps the edge j -> parent; bw.(0) unused *)
  pre : int option array;
  post : node array; (* postorder *)
  pre_order : node array;
  sub_size : int array; (* internal nodes strictly below *)
  sub_pre : int array; (* pre-existing strictly below *)
  depths : int array;
}

type spec = {
  spec_clients : int list;
  spec_qos : int list;
  spec_bw : int;
  spec_pre : int option;
  spec_children : spec list;
}

let node ?(clients = []) ?qos ?(bw = unbounded) ?pre spec_children =
  let spec_qos =
    match qos with
    | Some q -> q
    | None -> List.map (fun _ -> unbounded) clients
  in
  { spec_clients = clients; spec_qos; spec_bw = bw; spec_pre = pre;
    spec_children }

let compute_orders parents children =
  let n = Array.length parents in
  let pre_order = Array.make n 0 in
  let post = Array.make n 0 in
  let depths = Array.make n 0 in
  let pre_i = ref 0 and post_i = ref 0 in
  (* Explicit preallocated int stack: safe on deep (path-like) trees
     and allocation-free at N = 10^6 (the old (node, `Enter|`Exit)
     list stack allocated a cons + tag block per visit). Each node is
     pushed at most once as "enter" (encoded as j) and once as "exit"
     (encoded as j + n), so 2n slots always suffice. *)
  let stack = Array.make (max 1 (2 * n)) 0 in
  let sp = ref 0 in
  let push v =
    (* Malformed (cyclic/shared) parent structures could overflow 2n
       pushes; bail out and let the count check below report it. *)
    if !sp >= 2 * n then invalid_arg "Tree: disconnected or cyclic parent structure";
    stack.(!sp) <- v;
    incr sp
  in
  push 0;
  while !sp > 0 do
    decr sp;
    let v = stack.(!sp) in
    if v >= n then begin
      (* exit *)
      post.(!post_i) <- v - n;
      incr post_i
    end
    else begin
      let j = v in
      pre_order.(!pre_i) <- j;
      incr pre_i;
      let d = if parents.(j) < 0 then 0 else depths.(parents.(j)) + 1 in
      depths.(j) <- d;
      push (j + n);
      (* Children pushed in reverse so the first child pops first. *)
      let cs = children.(j) in
      for i = Array.length cs - 1 downto 0 do
        push cs.(i)
      done
    end
  done;
  if !pre_i <> n || !post_i <> n then
    invalid_arg "Tree: disconnected or cyclic parent structure";
  (pre_order, post, depths)

(* Pre-existing nodes strictly below each node, bottom-up over [post]. *)
let sub_pre_counts ~post ~children pre =
  let sub_pre = Array.make (Array.length pre) 0 in
  for k = 0 to Array.length post - 1 do
    let j = post.(k) in
    let cs = children.(j) in
    for i = 0 to Array.length cs - 1 do
      let c = cs.(i) in
      sub_pre.(j) <-
        sub_pre.(j) + sub_pre.(c) + if pre.(c) <> None then 1 else 0
    done
  done;
  sub_pre

let make ?qos ?bw parents clients pre =
  let n = Array.length parents in
  if n = 0 then invalid_arg "Tree: empty tree";
  if parents.(0) <> -1 then invalid_arg "Tree: node 0 must be the root";
  Array.iteri
    (fun i p ->
      if i > 0 && (p < 0 || p >= n) then
        invalid_arg "Tree: parent out of range")
    parents;
  Array.iter
    (fun cl -> Array.iter (fun r -> if r < 0 then invalid_arg "Tree: negative request count") cl)
    clients;
  Array.iter
    (function Some m when m <= 0 -> invalid_arg "Tree: mode must be positive" | _ -> ())
    pre;
  let qos =
    match qos with
    | None -> Array.map (fun cl -> Array.make (Array.length cl) unbounded) clients
    | Some q ->
        if Array.length q <> n then
          invalid_arg "Tree: qos array length mismatch";
        Array.iteri
          (fun j ql ->
            if Array.length ql <> Array.length clients.(j) then
              invalid_arg "Tree: qos must align with clients";
            Array.iter
              (fun v -> if v < 0 then invalid_arg "Tree: negative QoS bound")
              ql)
          q;
        q
  in
  let bw =
    match bw with
    | None -> Array.make n unbounded
    | Some b ->
        if Array.length b <> n then
          invalid_arg "Tree: bandwidth array length mismatch";
        Array.iter
          (fun v -> if v < 0 then invalid_arg "Tree: negative bandwidth")
          b;
        (* The root has no upward link; normalize its slot. *)
        b.(0) <- unbounded;
        b
  in
  let deg = Array.make n 0 in
  for i = 1 to n - 1 do
    deg.(parents.(i)) <- deg.(parents.(i)) + 1
  done;
  let children = Array.map (fun d -> Array.make d 0) (Array.copy deg) in
  let fill = Array.make n 0 in
  for i = 1 to n - 1 do
    let p = parents.(i) in
    children.(p).(fill.(p)) <- i;
    fill.(p) <- fill.(p) + 1
  done;
  let pre_order, post, depths = compute_orders parents children in
  let sub_size = Array.make n 0 in
  Array.iter
    (fun j ->
      Array.iter
        (fun c -> sub_size.(j) <- sub_size.(j) + sub_size.(c) + 1)
        children.(j))
    post;
  let sub_pre = sub_pre_counts ~post ~children pre in
  { parents; children; clients; qos; bw; pre; post; pre_order; sub_size;
    sub_pre; depths }

let of_parents ~parents ~clients ~pre =
  let n = Array.length parents in
  if Array.length clients <> n || Array.length pre <> n then
    invalid_arg "Tree.of_parents: array length mismatch";
  make
    (Array.copy parents)
    (Array.map (fun l -> Array.of_list l) clients)
    (Array.copy pre)

let build spec =
  let parents = ref [] and clients = ref [] and pre = ref [] in
  let qos = ref [] and bw = ref [] in
  let count = ref 0 in
  let rec go parent s =
    let id = !count in
    incr count;
    if List.length s.spec_qos <> List.length s.spec_clients then
      invalid_arg "Tree.build: qos must align with clients";
    parents := (id, parent) :: !parents;
    clients := (id, Array.of_list s.spec_clients) :: !clients;
    qos := (id, Array.of_list s.spec_qos) :: !qos;
    bw := (id, s.spec_bw) :: !bw;
    pre := (id, s.spec_pre) :: !pre;
    List.iter (go id) s.spec_children
  in
  go (-1) spec;
  let n = !count in
  let arr_of default l =
    let a = Array.make n default in
    List.iter (fun (i, v) -> a.(i) <- v) l;
    a
  in
  make
    ~qos:(arr_of [||] !qos)
    ~bw:(arr_of unbounded !bw)
    (arr_of 0 !parents) (arr_of [||] !clients) (arr_of None !pre)

let size t = Array.length t.parents
let root _ = 0
let parent t j = if j = 0 then None else Some t.parents.(j)
let children t j = Array.to_list t.children.(j)
let children_array t j = t.children.(j)
let children_arrays t = t.children
let clients t j = Array.to_list t.clients.(j)
let client_load t j = Array.fold_left ( + ) 0 t.clients.(j)
let initial_mode t j = t.pre.(j)
let is_pre_existing t j = t.pre.(j) <> None

(* --- constraint accessors --- *)

let client_qos t j = Array.to_list t.qos.(j)
let bandwidth t j = t.bw.(j)

(* Under the closest policy every client attached at [j] is served by
   the same (nearest ancestor-or-self) replica, so the binding QoS at a
   node is the minimum over its clients. Zero-request clients generate
   no flow and are vacuously served; they do not constrain. *)
let qos_radius t j =
  let cl = t.clients.(j) and ql = t.qos.(j) in
  let r = ref unbounded in
  for i = 0 to Array.length cl - 1 do
    if cl.(i) > 0 && ql.(i) < !r then r := ql.(i)
  done;
  !r

(* Plain loops, no closures: the engine asks on every epoch and the DP
   on every solve, so a query must not allocate. *)
let has_qos t =
  let found = ref false and j = ref 0 in
  while (not !found) && !j < Array.length t.qos do
    let cl = t.clients.(!j) and ql = t.qos.(!j) in
    for i = 0 to Array.length ql - 1 do
      if ql.(i) <> unbounded && cl.(i) > 0 then found := true
    done;
    incr j
  done;
  !found

let has_bandwidth t =
  let found = ref false in
  for j = 0 to Array.length t.bw - 1 do
    if t.bw.(j) <> unbounded then found := true
  done;
  !found
let is_constrained t = has_qos t || has_bandwidth t

let pre_existing t =
  let acc = ref [] in
  for j = size t - 1 downto 0 do
    if is_pre_existing t j then acc := j :: !acc
  done;
  !acc

let num_pre_existing t =
  Array.fold_left (fun n p -> if p <> None then n + 1 else n) 0 t.pre

let num_clients t =
  Array.fold_left (fun n cl -> n + Array.length cl) 0 t.clients

let total_requests t =
  Array.fold_left (fun n cl -> n + Array.fold_left ( + ) 0 cl) 0 t.clients

let postorder t = Array.copy t.post
let preorder t = Array.copy t.pre_order

let fold_postorder t ~init ~f = Array.fold_left f init t.post

let subtree_size t j = t.sub_size.(j)
let subtree_pre_count t j = t.sub_pre.(j)
let depth t j = t.depths.(j)
let height t = Array.fold_left max 0 t.depths

let subtree_demand t j =
  let total = ref 0 in
  let rec go j =
    total := !total + client_load t j;
    Array.iter go t.children.(j)
  in
  go j;
  !total

(* Subtree fingerprints: 64-bit order-sensitive hashes over (clients,
   QoS bounds, link bandwidth, pre-existing marker, children
   fingerprints), computed bottom-up in one postorder pass. The mixer is
   splitmix64's finalizer, whose avalanche makes accidental collisions
   across epoch-derived trees a ~2^-64 event — the soundness assumption
   of the DP memo tables. *)
let[@inline] fp_mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let[@inline] combine_fingerprints h x =
  fp_mix (Int64.logxor (Int64.mul h 0x9E3779B97F4A7C15L) x)

(* Plain loops over an inlined mixer keep the running hash unboxed: one
   boxed [int64] per node, for the result array. *)
let subtree_fingerprints t =
  let fps = Array.make (size t) 0L in
  for k = 0 to Array.length t.post - 1 do
    let j = t.post.(k) in
    let cl = t.clients.(j) and ql = t.qos.(j) in
    let h = ref (fp_mix (Int64.of_int (Array.length cl + 1))) in
    for i = 0 to Array.length cl - 1 do
      h := combine_fingerprints !h (Int64.of_int cl.(i));
      h := combine_fingerprints !h (Int64.of_int ql.(i))
    done;
    (match t.pre.(j) with
    | None -> h := combine_fingerprints !h 0L
    | Some m -> h := combine_fingerprints !h (Int64.of_int (m + 1)));
    h := combine_fingerprints !h (Int64.of_int t.bw.(j));
    let cs = t.children.(j) in
    for i = 0 to Array.length cs - 1 do
      h := combine_fingerprints !h fps.(cs.(i))
    done;
    fps.(j) <- !h
  done;
  fps

let ancestors t j =
  let rec up j acc =
    if j = 0 then List.rev acc else up t.parents.(j) (t.parents.(j) :: acc)
  in
  up j []

let is_ancestor t ~anc ~desc =
  if desc = anc || desc = 0 then false
  else
    let rec up j =
      if j = 0 then false
      else
        let p = t.parents.(j) in
        p = anc || up p
    in
    up desc

(* Only the markers change: every other array is shared with [t] (none
   is mutated after construction) and only [pre] and [sub_pre] are
   recomputed. *)
let with_pre_existing t l =
  let n = size t in
  let pre = Array.make n None in
  List.iter
    (fun (j, m) ->
      if j < 0 || j >= n then invalid_arg "Tree.with_pre_existing: bad node";
      if m <= 0 then invalid_arg "Tree.with_pre_existing: bad mode";
      pre.(j) <- Some m)
    l;
  let sub_pre = sub_pre_counts ~post:t.post ~children:t.children pre in
  { t with pre; sub_pre }

(* Demand redraws keep the node's binding constraint: when the new client
   multiset has the same arity the per-client bounds are kept verbatim;
   otherwise every new client inherits the node's tightest old bound, so
   epoch views of a constrained network stay constrained. *)
let with_clients t f =
  let clients = Array.init (size t) (fun j -> Array.of_list (f j)) in
  let qos =
    Array.init (size t) (fun j ->
        let n = Array.length clients.(j) in
        if n = Array.length t.qos.(j) then Array.copy t.qos.(j)
        else begin
          let tightest = Array.fold_left min unbounded t.qos.(j) in
          Array.make n tightest
        end)
  in
  make ~qos ~bw:(Array.copy t.bw) (Array.copy t.parents) clients
    (Array.copy t.pre)

let with_qos t f =
  let qos =
    Array.init (size t) (fun j ->
        Array.init (Array.length t.clients.(j)) (fun i ->
            let q = f j i in
            if q < 0 then invalid_arg "Tree.with_qos: negative QoS bound";
            q))
  in
  make ~qos ~bw:(Array.copy t.bw) (Array.copy t.parents)
    (Array.map Array.copy t.clients) (Array.copy t.pre)

let with_bandwidth t f =
  let bw =
    Array.init (size t) (fun j ->
        if j = 0 then unbounded
        else
          let b = f j in
          if b < 0 then invalid_arg "Tree.with_bandwidth: negative bandwidth";
          b)
  in
  make ~qos:(Array.map Array.copy t.qos) ~bw (Array.copy t.parents)
    (Array.map Array.copy t.clients) (Array.copy t.pre)

(* Serialization: one line per node in id order:
   "<parent> p<mode-or-.> c<r1[@q1],r2[@q2],...>[ b<bw>]" separated by
   ';'. QoS suffixes and the bandwidth token are emitted only when
   finite, so unconstrained trees round-trip byte-identically to the
   historical format. *)
let to_string t =
  let buf = Buffer.create 256 in
  for j = 0 to size t - 1 do
    if j > 0 then Buffer.add_char buf ';';
    Buffer.add_string buf (string_of_int t.parents.(j));
    Buffer.add_string buf " p";
    (match t.pre.(j) with
    | None -> Buffer.add_char buf '.'
    | Some m -> Buffer.add_string buf (string_of_int m));
    Buffer.add_string buf " c";
    Array.iteri
      (fun i r ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (string_of_int r);
        if t.qos.(j).(i) <> unbounded then begin
          Buffer.add_char buf '@';
          Buffer.add_string buf (string_of_int t.qos.(j).(i))
        end)
      t.clients.(j);
    if t.bw.(j) <> unbounded then begin
      Buffer.add_string buf " b";
      Buffer.add_string buf (string_of_int t.bw.(j))
    end
  done;
  Buffer.contents buf

let of_string s =
  let fail () = invalid_arg "Tree.of_string: malformed input" in
  let fields = String.split_on_char ';' s in
  let parse_node field =
    let p, pre, cl, bw_tok =
      match String.split_on_char ' ' (String.trim field) with
      | [ p; pre; cl ] -> (p, pre, cl, None)
      | [ p; pre; cl; b ] -> (p, pre, cl, Some b)
      | _ -> fail ()
    in
    let parent = try int_of_string p with _ -> fail () in
    if String.length pre < 2 || pre.[0] <> 'p' then fail ();
    let mode =
      let body = String.sub pre 1 (String.length pre - 1) in
      if body = "." then None
      else Some (try int_of_string body with _ -> fail ())
    in
    if String.length cl < 1 || cl.[0] <> 'c' then fail ();
    let body = String.sub cl 1 (String.length cl - 1) in
    let reqs, qs =
      if body = "" then ([||], [||])
      else
        let parts =
          List.map
            (fun tok ->
              match String.split_on_char '@' tok with
              | [ r ] -> ((try int_of_string r with _ -> fail ()), unbounded)
              | [ r; q ] ->
                  ( (try int_of_string r with _ -> fail ()),
                    (try int_of_string q with _ -> fail ()) )
              | _ -> fail ())
            (String.split_on_char ',' body)
        in
        (Array.of_list (List.map fst parts), Array.of_list (List.map snd parts))
    in
    let bw =
      match bw_tok with
      | None -> unbounded
      | Some b ->
          if String.length b < 2 || b.[0] <> 'b' then fail ();
          (try int_of_string (String.sub b 1 (String.length b - 1))
           with _ -> fail ())
    in
    (parent, mode, reqs, qs, bw)
  in
  let nodes = List.map parse_node fields in
  let n = List.length nodes in
  if n = 0 then fail ();
  let parents = Array.make n 0
  and pre = Array.make n None
  and clients = Array.make n [||]
  and qos = Array.make n [||]
  and bw = Array.make n unbounded in
  List.iteri
    (fun i (p, m, cl, q, b) ->
      parents.(i) <- p;
      pre.(i) <- m;
      clients.(i) <- cl;
      qos.(i) <- q;
      bw.(i) <- b)
    nodes;
  make ~qos ~bw parents clients pre

let pp fmt t =
  let rec go indent j =
    Format.fprintf fmt "%s- node %d" indent j;
    (match t.pre.(j) with
    | Some m -> Format.fprintf fmt " [pre-existing, mode %d]" m
    | None -> ());
    if t.bw.(j) <> unbounded then Format.fprintf fmt " [bw %d]" t.bw.(j);
    let cl = t.clients.(j) in
    if Array.length cl > 0 then begin
      Format.fprintf fmt " clients:";
      Array.iteri
        (fun i r ->
          if t.qos.(j).(i) <> unbounded then
            Format.fprintf fmt " %d@%d" r t.qos.(j).(i)
          else Format.fprintf fmt " %d" r)
        cl
    end;
    Format.pp_print_newline fmt ();
    Array.iter (go (indent ^ "  ")) t.children.(j)
  in
  go "" 0

let equal a b =
  a.parents = b.parents && a.clients = b.clients && a.pre = b.pre
  && a.qos = b.qos && a.bw = b.bw
