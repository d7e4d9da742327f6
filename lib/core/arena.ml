(* Flat arena for catenable placement lists, carrying the replica
   placement of every DP table cell. The paper's pseudo-code copies an
   O(N) request vector on every improvement and §3.3 hoists those
   copies out of the inner loop; here extending a placement is one
   O(1) push and full materialization happens once, at the root. A
   placement is an [int] index into the arena; cell 0 is the shared
   empty list. Each cell is a pair of ints across two parallel arrays:

     leaf (node, flow):  fst = -(node + 1)   snd = flow
     cat  (left, right): fst = left index    snd = right index

   [snoc]/[append] are O(1) pushes into preallocated storage, so the
   merge inner loops of the DP solvers allocate zero GC words (growth
   doubles the backing arrays, amortized and absent once the arena has
   reached steady size — which is what the zero-alloc bench assert
   measures). Structure sharing is free: a cell index can appear as a
   child of any number of later cells.

   Arenas are single-writer: the parallel sibling fan-out gives each
   domain a private arena and {!graft}s the results back into the
   parent's arena after the join, preserving sharing via an old->new
   index map. Long-lived arenas (the incremental memos) reclaim dead
   cells with the {!compact_begin}/{!compact_root}/{!compact_commit}
   protocol: copy every live root into a fresh arena, rewrite the
   stored indices, swap the storage. *)

type t = {
  mutable fst_ : int array;
  mutable snd_ : int array;
  mutable len : int; (* next free cell; cell 0 is [empty] *)
}

let empty = 0

let create ?(capacity = 1024) () =
  let capacity = max 2 capacity in
  { fst_ = Array.make capacity 0; snd_ = Array.make capacity 0; len = 1 }

let length t = t.len

let clear t = t.len <- 1

let[@inline never] grow t =
  let cap = Array.length t.fst_ * 2 in
  let fst' = Array.make cap 0 and snd' = Array.make cap 0 in
  Array.blit t.fst_ 0 fst' 0 t.len;
  Array.blit t.snd_ 0 snd' 0 t.len;
  t.fst_ <- fst';
  t.snd_ <- snd'

let[@inline] push t a b =
  if t.len >= Array.length t.fst_ then grow t;
  let i = t.len in
  t.fst_.(i) <- a;
  t.snd_.(i) <- b;
  t.len <- i + 1;
  i

let[@inline] leaf t ~node ~flow = push t (-node - 1) flow

let[@inline] append t l r = if l = 0 then r else if r = 0 then l else push t l r

let[@inline] snoc t l ~node ~flow = append t l (leaf t ~node ~flow)

(* In-order traversal (left to right), explicit int stack so deep
   left/right spines cannot overflow the OCaml stack. *)
let iter t f root =
  if root <> 0 then begin
    let stack = ref (Array.make 64 0) in
    let sp = ref 0 in
    let push_s v =
      if !sp >= Array.length !stack then begin
        let s' = Array.make (2 * Array.length !stack) 0 in
        Array.blit !stack 0 s' 0 !sp;
        stack := s'
      end;
      !stack.(!sp) <- v;
      incr sp
    in
    push_s root;
    while !sp > 0 do
      decr sp;
      let i = !stack.(!sp) in
      if i <> 0 then begin
        let a = t.fst_.(i) in
        if a < 0 then f (-a - 1) t.snd_.(i)
        else begin
          (* right pushed first so left pops (and visits) first *)
          push_s t.snd_.(i);
          push_s a
        end
      end
    done
  end

let nodes t root =
  let acc = ref [] in
  iter t (fun node _flow -> acc := node :: !acc) root;
  List.rev !acc

let to_list t root =
  let acc = ref [] in
  iter t (fun node flow -> acc := (node, flow) :: !acc) root;
  List.rev !acc

let count t root =
  let n = ref 0 in
  iter t (fun _ _ -> incr n) root;
  !n

(* Copy the cell graph reachable from [root] in [src] into [dst],
   preserving sharing through [map] (0 = not yet copied; cell 0 maps to
   itself). Iterative two-phase traversal: a cat cell is revisited
   (encoded as [lnot i]) once both children have been copied. *)
let graft ~src ~dst ~map root =
  if root = 0 then 0
  else begin
    let stack = ref (Array.make 64 0) in
    let sp = ref 0 in
    let push_s v =
      if !sp >= Array.length !stack then begin
        let s' = Array.make (2 * Array.length !stack) 0 in
        Array.blit !stack 0 s' 0 !sp;
        stack := s'
      end;
      !stack.(!sp) <- v;
      incr sp
    in
    push_s root;
    while !sp > 0 do
      decr sp;
      let tagged = !stack.(!sp) in
      if tagged < 0 then begin
        (* second visit of a cat cell: children are mapped *)
        let i = lnot tagged in
        if map.(i) = 0 then
          map.(i) <- push dst map.(src.fst_.(i)) map.(src.snd_.(i))
      end
      else begin
        let i = tagged in
        if i <> 0 && map.(i) = 0 then begin
          let a = src.fst_.(i) in
          if a < 0 then map.(i) <- push dst a src.snd_.(i)
          else begin
            push_s (lnot i);
            push_s a;
            push_s src.snd_.(i)
          end
        end
      end
    done;
    map.(root)
  end

type compaction = { target : t; map : int array }

let compact_begin t =
  {
    target = create ~capacity:(max 1024 (t.len / 2)) ();
    map = Array.make t.len 0;
  }

let compact_root t c root = graft ~src:t ~dst:c.target ~map:c.map root

let compact_commit t c =
  t.fst_ <- c.target.fst_;
  t.snd_ <- c.target.snd_;
  t.len <- c.target.len
