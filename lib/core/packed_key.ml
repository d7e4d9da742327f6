(* Bit-packed DP state keys for the MinPower dynamic program.

   A {!Dp_power} cell key is the vector

     [| n_1; ...; n_M; e_11; ...; e_MM; flow |]

   (new servers per operating mode, reused pre-existing servers per
   (initial, operating) mode pair, requests traversing the node). This
   module packs that vector into one unboxed OCaml [int]: field 0
   (n_1) in the most significant bits down to the flow in the least
   significant bits, each field wide enough for the per-instance
   maximum it can ever hold. Consequences the solver relies on:

   - integer comparison of packed keys = lexicographic comparison of
     the key vectors (fields are compared most-significant first);
   - [key lsr flow_bits] is exactly the counts prefix, so the
     flow-dominance prune groups states with one shift and picks the
     flow-minimal representative as the minimal key of the group;
   - adding two packed keys adds field-wise {e provided} no field
     overflows its width. The DP merges tables of disjoint subtrees,
     whose per-field sums are bounded by the instance-wide maxima the
     layout was sized from, and checks the flow sum against the
     capacity [w <= 2^flow_bits - 1] before adding — so carries cannot
     happen by construction.

   [make] refuses layouts beyond 62 bits (the portable OCaml int
   budget, keeping every key non-negative); the solver then retries
   with tighter maxima and, past those, takes its sequential [int
   array] fallback. A field with maximum 0
   gets width 0 — it always reads 0 and is never bumped (a field is
   only ever incremented for a node that exists, and a 0 maximum means
   no such node does). *)

type layout = {
  m : int;
  fields : int; (* m + m*m + 1, flow last *)
  widths : int array;
  shifts : int array; (* field i occupies bits [shift, shift+width) *)
  flow_bits : int;
  flow_mask : int;
  total_bits : int;
}

let bits_for v =
  let rec go acc v = if v = 0 then acc else go (acc + 1) (v lsr 1) in
  go 0 v

let max_bits = 62

let width ~count_max ~flow_max =
  Array.fold_left (fun acc c -> acc + bits_for c) (bits_for flow_max) count_max

let make ~m ~count_max ~flow_max =
  let nf = m + (m * m) in
  if Array.length count_max <> nf then
    invalid_arg "Packed_key.make: count_max length";
  if flow_max < 0 then invalid_arg "Packed_key.make: negative flow_max";
  let fields = nf + 1 in
  let widths = Array.make fields 0 in
  for i = 0 to nf - 1 do
    if count_max.(i) < 0 then invalid_arg "Packed_key.make: negative count_max";
    widths.(i) <- bits_for count_max.(i)
  done;
  widths.(nf) <- bits_for flow_max;
  let total_bits = Array.fold_left ( + ) 0 widths in
  if total_bits > max_bits then None
  else begin
    let shifts = Array.make fields 0 in
    for i = fields - 2 downto 0 do
      shifts.(i) <- shifts.(i + 1) + widths.(i + 1)
    done;
    let flow_bits = widths.(nf) in
    Some
      {
        m;
        fields;
        widths;
        shifts;
        flow_bits;
        flow_mask = (1 lsl flow_bits) - 1;
        total_bits;
      }
  end

let total_bits l = l.total_bits
let flow_bits l = l.flow_bits

let equal la lb = la.m = lb.m && la.widths = lb.widths

let[@inline] flow l key = key land l.flow_mask

let[@inline] counts l key = key lsr l.flow_bits

let[@inline] get l key field =
  (key lsr l.shifts.(field)) land ((1 lsl l.widths.(field)) - 1)

let[@inline] bump l key field = key + (1 lsl l.shifts.(field))

let[@inline] zero_flow l key = key land lnot l.flow_mask

let encode l v =
  if Array.length v <> l.fields then invalid_arg "Packed_key.encode: length";
  let key = ref 0 in
  for i = 0 to l.fields - 1 do
    if v.(i) < 0 || v.(i) >= 1 lsl l.widths.(i) then
      invalid_arg "Packed_key.encode: field out of range";
    key := !key lor (v.(i) lsl l.shifts.(i))
  done;
  !key

let decode l key =
  Array.init l.fields (fun i -> get l key i)

let pp fmt l =
  Format.fprintf fmt "packed<%db:" l.total_bits;
  Array.iter (fun w -> Format.fprintf fmt " %d" w) l.widths;
  Format.fprintf fmt ">"
