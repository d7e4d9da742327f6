(* Open-addressing int -> int hash table with insertion-order
   iteration, for the packed DP cores.

   Three properties the solvers need and [Hashtbl] does not give:

   - zero boxing: keys and values are unboxed ints in flat arrays, so
     the merge inner loop (probe + insert) allocates no GC words once
     the table has reached steady capacity;
   - insertion-order iteration: [iter] walks the dense [keys]/[vals]
     prefix, so which representative placement survives a first-wins
     insert — and hence the solver's tie-broken output — is a
     deterministic function of the merge order alone, independent of
     hashing, capacity, or the packed-key layout;
   - reserve-then-fill inserts: {!reserve} probes once and either
     reports the key as present or hands back the value slot to fill,
     so callers pay for building a value (an arena push) only when the
     insert actually happens.

   [clear] keeps the backing storage, which is what lets the per-depth
   scratch pools reuse tables across sibling merges without
   reallocating. *)

type t = {
  mutable keys : int array; (* dense, insertion order *)
  mutable vals : int array;
  mutable count : int;
  mutable slots : int array; (* 0 = empty, else index into keys + 1 *)
  mutable mask : int; (* Array.length slots - 1, power of two minus 1 *)
}

let[@inline] hash key =
  let h = key lxor (key lsr 29) in
  let h = h * 0x2545F4914F6CDD1D in
  h lxor (h lsr 32)

let rec pow2_above n c = if c >= n then c else pow2_above n (c * 2)

let create ?(capacity = 16) () =
  let capacity = max 8 capacity in
  let slot_len = pow2_above (2 * capacity) 16 in
  {
    keys = Array.make capacity 0;
    vals = Array.make capacity 0;
    count = 0;
    slots = Array.make slot_len 0;
    mask = slot_len - 1;
  }

let length t = t.count

let clear t =
  t.count <- 0;
  Array.fill t.slots 0 (Array.length t.slots) 0

let[@inline never] rehash t =
  let slot_len = 2 * (t.mask + 1) in
  let slots = Array.make slot_len 0 in
  let mask = slot_len - 1 in
  for i = 0 to t.count - 1 do
    let j = ref (hash t.keys.(i) land mask) in
    while slots.(!j) <> 0 do
      j := (!j + 1) land mask
    done;
    slots.(!j) <- i + 1
  done;
  t.slots <- slots;
  t.mask <- mask

let[@inline never] grow_dense t =
  let cap = 2 * Array.length t.keys in
  let keys = Array.make cap 0 and vals = Array.make cap 0 in
  Array.blit t.keys 0 keys 0 t.count;
  Array.blit t.vals 0 vals 0 t.count;
  t.keys <- keys;
  t.vals <- vals

(* Insert [key] if absent. Returns the dense index whose value slot
   the caller must fill via [set_val], or [-1] when the key is already
   present. *)
let reserve t key =
  if 2 * (t.count + 1) > t.mask + 1 then rehash t;
  let mask = t.mask and slots = t.slots and keys = t.keys in
  let j = ref (hash key land mask) in
  let result = ref min_int in
  while !result = min_int do
    let s = slots.(!j) in
    if s = 0 then begin
      if t.count >= Array.length t.keys then grow_dense t;
      let i = t.count in
      t.keys.(i) <- key;
      t.count <- i + 1;
      slots.(!j) <- i + 1;
      result := i
    end
    else if keys.(s - 1) = key then result := -1
    else j := (!j + 1) land mask
  done;
  !result

let[@inline] set_val t i v = t.vals.(i) <- v

(* Dense index of [key], or [-1]. *)
let index t key =
  let mask = t.mask and slots = t.slots and keys = t.keys in
  let j = ref (hash key land mask) in
  let result = ref min_int in
  while !result = min_int do
    let s = slots.(!j) in
    if s = 0 then result := -1
    else if keys.(s - 1) = key then result := s - 1
    else j := (!j + 1) land mask
  done;
  !result

let mem t key = index t key >= 0

let find_default t key default =
  let i = index t key in
  if i < 0 then default else t.vals.(i)

let get t key =
  let i = index t key in
  if i < 0 then raise Not_found;
  t.vals.(i)

(* Insert or overwrite. *)
let replace t key v =
  let i = reserve t key in
  if i >= 0 then t.vals.(i) <- v
  else begin
    let j = index t key in
    t.vals.(j) <- v
  end

(* A fresh table holding [t]'s entries in the same insertion order,
   sized to its current length — how a pooled scratch table is kept
   past its reuse (e.g. in a memo). *)
let copy t =
  let c = create ~capacity:t.count () in
  for i = 0 to t.count - 1 do
    c.vals.(reserve c t.keys.(i)) <- t.vals.(i)
  done;
  c

let iter t f =
  for i = 0 to t.count - 1 do
    f t.keys.(i) t.vals.(i)
  done

let[@inline] key_at t i = t.keys.(i)
let[@inline] val_at t i = t.vals.(i)

let fold t init f =
  let acc = ref init in
  for i = 0 to t.count - 1 do
    acc := f !acc t.keys.(i) t.vals.(i)
  done;
  !acc
